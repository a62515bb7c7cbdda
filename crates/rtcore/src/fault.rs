//! Fault injection, cooperative cancellation, memory budgets and retry
//! policies — the robustness substrate the long-lived serving path is made
//! of.
//!
//! Four cooperating pieces live here, all following the same
//! zero-cost-when-off discipline as [`crate::telemetry::TelemetryConfig`]:
//!
//! * **Deterministic failpoints** — a [`FaultPlan`] is a seeded schedule of
//!   injectable faults.  Code threads a [`FaultInjector`] handle (an
//!   `Option<Arc<..>>` exactly like the telemetry handle) to the sites named
//!   by [`FaultSite`] and asks it through the [`crate::fail_point!`] macro.  The
//!   firing machinery only compiles in under the `fault-inject` cargo
//!   feature; without it every probe is an inlined `false` and the error arm
//!   is dead code the optimiser removes, so default builds carry nothing.
//!   With the feature, whether a given hit of a given site fires is a pure
//!   function of `(seed, site, hit ordinal)` — schedules replay exactly.
//! * **Query deadlines & cooperative cancellation** — a [`CancelScope`]
//!   couples an optional wall-clock [`Deadline`] with an optional
//!   [`CancelToken`] behind one shared tripped flag.  Launch engines poll it
//!   at packet and wide-node-frontier granularity; once tripped, a launch
//!   winds down and surfaces [`crate::Error::DeadlineExceeded`] carrying the
//!   work performed so far.  Partial neighbour output is discarded by the
//!   caller — a cancelled launch never produces a wrong answer, only a
//!   structured error.
//! * **Memory budgets** — a [`MemoryBudget`] is checked against the
//!   `device_bytes()` accounting every index already exposes; on pressure
//!   the engines degrade in documented order (evict the coldest shard BLAS
//!   to rebuild-on-demand, then refuse with [`crate::Error::OverBudget`]).
//! * **Bounded retry** — a [`RetryPolicy`] with deterministic (tick-based,
//!   never wall-clock) exponential backoff, shared by the quarantine
//!   recovery path and the streaming rebuild path.
//!
//! # Examples
//!
//! ```
//! use rtcore::fault::{CancelScope, CancelToken, FaultPlan, MemoryBudget, RetryPolicy};
//!
//! // The default plan is off and the default scope is inert: probes cost
//! // nothing and launches run to completion.
//! assert_eq!(FaultPlan::default(), FaultPlan::Off);
//! let scope = CancelScope::none();
//! assert!(!scope.is_active());
//! assert!(!scope.should_stop());
//!
//! // A token trips every scope that carries it.
//! let token = CancelToken::new();
//! let scope = CancelScope::with_token(&token);
//! assert!(!scope.should_stop());
//! token.cancel();
//! assert!(scope.should_stop());
//!
//! // Budgets and retry backoff are plain data.
//! assert!(MemoryBudget::Unlimited.allows(u64::MAX));
//! assert!(!MemoryBudget::Bytes(100).allows(101));
//! assert_eq!(RetryPolicy::default().backoff_ticks(2), 4);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Marker string present in binaries only when the `fault-inject` feature
/// is compiled in; CI greps release artifacts for it to prove default
/// builds carry no injection machinery.
#[cfg(feature = "fault-inject")]
pub const ARMED_MARKER: &str = "RTDBSCAN_FAULT_INJECT_ARMED";

// ---------------------------------------------------------------------------
// Failpoints
// ---------------------------------------------------------------------------

/// A seeded schedule of injectable faults.  [`FaultPlan::Off`] (the
/// default) arms nothing; [`FaultPlan::Seeded`] makes roughly one in
/// `one_in` hits of every [`FaultSite`] fire, decided deterministically
/// from `(seed, site, hit ordinal)` so a schedule replays bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPlan {
    /// No faults are armed.  Probes compile to nothing (without the
    /// `fault-inject` feature) or to an inlined `false` (with it).
    #[default]
    Off,
    /// Arm every site with a deterministic seeded schedule.
    Seeded {
        /// Seed mixed into every firing decision.
        seed: u64,
        /// Approximate firing rate: a hit fires when its mixed hash is
        /// `0 (mod one_in)`.  `one_in == 1` fires on every hit; `0` is
        /// treated as never.
        one_in: u32,
    },
}

/// The fixed set of injectable fault sites threaded through the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Allocation pressure while growing traversal scratch / arena state.
    ScratchGrow,
    /// Simulated failure mid-HLBVH (LBVH encode/sort/emit) construction.
    HlbvhBuild,
    /// Simulated failure in the BVH4 collapse pass.
    Bvh4Collapse,
    /// A shard's bottom-level scene comes up poisoned (the shard starts
    /// quarantined and must be recovered).
    ShardBlasPoison,
    /// A launch is delayed past its deadline (trips the active
    /// [`CancelScope`] instead of producing output).
    LaunchDelay,
}

impl FaultSite {
    /// Every site, in pipeline order.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::ScratchGrow,
        FaultSite::HlbvhBuild,
        FaultSite::Bvh4Collapse,
        FaultSite::ShardBlasPoison,
        FaultSite::LaunchDelay,
    ];

    /// Stable snake_case site name, used in [`crate::Error::FaultInjected`].
    pub fn name(&self) -> &'static str {
        match self {
            FaultSite::ScratchGrow => "scratch_grow",
            FaultSite::HlbvhBuild => "hlbvh_build",
            FaultSite::Bvh4Collapse => "bvh4_collapse",
            FaultSite::ShardBlasPoison => "shard_blas_poison",
            FaultSite::LaunchDelay => "launch_delay",
        }
    }

    fn ordinal(&self) -> usize {
        match self {
            FaultSite::ScratchGrow => 0,
            FaultSite::HlbvhBuild => 1,
            FaultSite::Bvh4Collapse => 2,
            FaultSite::ShardBlasPoison => 3,
            FaultSite::LaunchDelay => 4,
        }
    }
}

#[derive(Debug)]
struct InjectorInner {
    // The schedule fields are only read by `fire`, whose real body exists
    // under the `fault-inject` feature; keep them unconditionally so the
    // plan round-trips through `Debug` either way.
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    seed: u64,
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    one_in: u32,
    /// Per-site hit ordinals.  Atomic because injectors are probed from
    /// parallel launches; the count only feeds the deterministic hash, and
    /// per-site totals are read after the work joins.
    hits: [AtomicU64; FaultSite::ALL.len()],
}

/// The probe handle code threads to its fault sites.  Mirrors
/// [`crate::telemetry::Telemetry`]: a disarmed handle is a `None` and every
/// probe on it is a null check.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<InjectorInner>>,
}

/// SplitMix64 finalizer — the deterministic per-hit decision hash.
#[cfg(feature = "fault-inject")]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultInjector {
    /// Build the handle for a plan.  [`FaultPlan::Off`] yields a disarmed
    /// handle that allocates nothing.
    pub fn new(plan: FaultPlan) -> Self {
        match plan {
            FaultPlan::Off => FaultInjector { inner: None },
            FaultPlan::Seeded { seed, one_in } => FaultInjector {
                inner: Some(Arc::new(InjectorInner {
                    seed,
                    one_in,
                    hits: Default::default(),
                })),
            },
        }
    }

    /// True when a seeded plan is armed (always false without the
    /// `fault-inject` feature — the schedule exists but nothing probes it).
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// How many times `site` has been probed so far (0 when disarmed).
    pub fn hit_count(&self, site: FaultSite) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            // ordering: Relaxed — a pure probe tally read after (or racily
            // during) the probed work; no other state is published through
            // it.
            inner.hits[site.ordinal()].load(Ordering::Relaxed)
        })
    }

    /// Probe a fault site.  Only compiled with the `fault-inject` feature;
    /// the [`crate::fail_point!`] macro is the intended caller.
    #[cfg(feature = "fault-inject")]
    pub fn fire(&self, site: FaultSite) -> bool {
        let _ = std::hint::black_box(ARMED_MARKER);
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.one_in == 0 {
            return false;
        }
        // ordering: Relaxed — the ordinal is a per-site counter feeding a
        // deterministic hash; schedule determinism needs each hit to get a
        // unique ordinal (fetch_add guarantees that), not any cross-site
        // ordering.
        let ordinal = inner.hits[site.ordinal()].fetch_add(1, Ordering::Relaxed);
        let h = mix64(
            inner
                .seed
                .wrapping_add((site.ordinal() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(ordinal.wrapping_mul(0xd605_0dd3_2c5a_b9ef)),
        );
        h.is_multiple_of(inner.one_in as u64)
    }

    /// Without the feature the probe is an inlined constant `false`: the
    /// branch and its error arm are removed entirely by the optimiser.
    #[cfg(not(feature = "fault-inject"))]
    #[inline(always)]
    pub fn fire(&self, _site: FaultSite) -> bool {
        false
    }
}

/// Probe a fault site and return [`crate::Error::FaultInjected`] from the
/// enclosing `Result` function when it fires.
///
/// ```
/// use rtcore::fault::{FaultInjector, FaultPlan, FaultSite};
/// use rtcore::{fail_point, Result};
///
/// fn build_step(injector: &FaultInjector) -> Result<u32> {
///     fail_point!(injector, FaultSite::HlbvhBuild);
///     Ok(42)
/// }
/// assert_eq!(build_step(&FaultInjector::new(FaultPlan::Off)).unwrap(), 42);
/// ```
#[macro_export]
macro_rules! fail_point {
    ($injector:expr, $site:expr) => {
        if $injector.fire($site) {
            return Err($crate::error::Error::FaultInjected { site: $site.name() });
        }
    };
}

// ---------------------------------------------------------------------------
// Deadlines & cooperative cancellation
// ---------------------------------------------------------------------------

/// A wall-clock deadline for a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.  A zero budget is already expired —
    /// the deterministic way tests exercise the deadline path.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// True once the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// A shareable cancellation flag: every [`CancelScope`] carrying a clone of
/// the token trips when [`CancelToken::cancel`] is called.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation of every scope carrying this token.
    pub fn cancel(&self) {
        // ordering: Relaxed — a monotonic one-way flag; cancelled launches
        // discard their output, so no data is published through the store,
        // and the launch join provides the edge for post-join readers.
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        // ordering: Relaxed — see `cancel`.
        self.flag.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct ScopeInner {
    deadline: Option<Deadline>,
    token: Option<CancelToken>,
    /// Latched once either source trips, so parallel workers stop on one
    /// cheap flag load instead of each re-reading the clock.
    tripped: AtomicBool,
}

/// The cancellation context a launch runs under: an optional [`Deadline`],
/// an optional [`CancelToken`], and one shared tripped latch.
///
/// [`CancelScope::none`] (the default) is inert — every poll is a null
/// check and engines behave bit-identically to the pre-deadline code.
/// Engines poll [`CancelScope::tripped`] at fine granularity (a flag load)
/// and [`CancelScope::should_stop`] at coarse granularity (reads the
/// clock); once tripped a launch winds down and its driver returns
/// [`crate::Error::DeadlineExceeded`] with the counters of the work
/// performed, discarding partial neighbour output.
#[derive(Debug, Clone, Default)]
pub struct CancelScope {
    inner: Option<Arc<ScopeInner>>,
}

impl CancelScope {
    /// The inert scope: no deadline, no token, never trips.
    pub fn none() -> Self {
        CancelScope::default()
    }

    /// A scope that trips once `budget` has elapsed.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelScope::with(Some(Deadline::after(budget)), None)
    }

    /// A scope that trips when `token` is cancelled.
    pub fn with_token(token: &CancelToken) -> Self {
        CancelScope::with(None, Some(token.clone()))
    }

    /// A scope with both a deadline and a token.
    pub fn with(deadline: Option<Deadline>, token: Option<CancelToken>) -> Self {
        if deadline.is_none() && token.is_none() {
            return CancelScope::none();
        }
        CancelScope {
            inner: Some(Arc::new(ScopeInner {
                deadline,
                token,
                tripped: AtomicBool::new(false),
            })),
        }
    }

    /// True when the scope can trip at all (a deadline or token is set).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Fine-granularity poll: one flag load, no clock read.  Engines call
    /// this on every wide-node frontier pop.
    #[inline]
    pub fn tripped(&self) -> bool {
        match &self.inner {
            None => false,
            // ordering: Relaxed — the latch is monotonic and the work a
            // tripped launch performed is discarded; the launch join
            // publishes the final state to post-join readers.
            Some(inner) => inner.tripped.load(Ordering::Relaxed),
        }
    }

    /// Coarse-granularity poll: checks the latch, the token, and the
    /// wall clock, latching the trip so subsequent [`CancelScope::tripped`]
    /// polls see it.  Engines call this per packet (and every few dozen
    /// frontier pops to amortise the clock read).
    pub fn should_stop(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        // ordering: Relaxed — see `tripped`.
        if inner.tripped.load(Ordering::Relaxed) {
            return true;
        }
        let hit = inner.token.as_ref().is_some_and(CancelToken::is_cancelled)
            || inner.deadline.as_ref().is_some_and(Deadline::expired);
        if hit {
            // ordering: Relaxed — monotonic latch, no data published.
            inner.tripped.store(true, Ordering::Relaxed);
        }
        hit
    }

    /// Force the scope into the tripped state (the [`FaultSite::LaunchDelay`]
    /// fault uses this to simulate a launch blowing its deadline).
    pub fn trip(&self) {
        if let Some(inner) = &self.inner {
            // ordering: Relaxed — monotonic latch, no data published.
            inner.tripped.store(true, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Memory budgets
// ---------------------------------------------------------------------------

/// A simulated device-memory budget checked against `device_bytes()`
/// accounting.  On pressure the engines degrade in documented order: evict
/// the coldest shard BLAS to rebuild-on-demand, then refuse further growth
/// with [`crate::Error::OverBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryBudget {
    /// No budget: nothing ever degrades.
    #[default]
    Unlimited,
    /// At most this many bytes of index structure.
    Bytes(u64),
}

impl MemoryBudget {
    /// True when `bytes` fits the budget.
    pub fn allows(&self, bytes: u64) -> bool {
        match self {
            MemoryBudget::Unlimited => true,
            MemoryBudget::Bytes(limit) => bytes <= *limit,
        }
    }

    /// The byte limit, when one is set.
    pub fn limit(&self) -> Option<u64> {
        match self {
            MemoryBudget::Unlimited => None,
            MemoryBudget::Bytes(limit) => Some(*limit),
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded retry with deterministic backoff
// ---------------------------------------------------------------------------

/// Bounded retry with deterministic exponential backoff, measured in
/// abstract *ticks* (recovery attempts, maintenance rounds) rather than
/// wall-clock time so schedules replay exactly in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Give up (and stay degraded) after this many failed attempts.
    pub max_attempts: u32,
    /// Base of the exponential backoff: attempt `k` waits
    /// `backoff_base << k` ticks before the next try.
    pub backoff_base: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: 1,
        }
    }
}

impl RetryPolicy {
    /// Ticks to wait after the `attempt`-th failure (0-based), saturating.
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        (self.backoff_base as u64).saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
    }

    /// True while another attempt is allowed.
    pub fn allows_attempt(&self, attempts_so_far: u32) -> bool {
        attempts_so_far < self.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_is_disarmed_and_free() {
        let injector = FaultInjector::new(FaultPlan::Off);
        assert!(!injector.is_armed());
        assert!(!injector.fire(FaultSite::HlbvhBuild));
        assert_eq!(injector.hit_count(FaultSite::HlbvhBuild), 0);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn seeded_schedules_replay_deterministically() {
        let plan = FaultPlan::Seeded { seed: 7, one_in: 3 };
        let a: Vec<bool> = {
            let injector = FaultInjector::new(plan);
            (0..64)
                .map(|_| injector.fire(FaultSite::HlbvhBuild))
                .collect()
        };
        let b: Vec<bool> = {
            let injector = FaultInjector::new(plan);
            (0..64)
                .map(|_| injector.fire(FaultSite::HlbvhBuild))
                .collect()
        };
        assert_eq!(a, b, "same (seed, site, ordinal) must fire identically");
        assert!(a.iter().any(|&f| f), "one_in=3 over 64 hits must fire");
        assert!(!a.iter().all(|&f| f), "one_in=3 must not fire every hit");

        // Sites are decorrelated: a different site sees a different pattern.
        let injector = FaultInjector::new(plan);
        let c: Vec<bool> = (0..64)
            .map(|_| injector.fire(FaultSite::Bvh4Collapse))
            .collect();
        assert_ne!(a, c);
        assert_eq!(injector.hit_count(FaultSite::Bvh4Collapse), 64);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn one_in_one_always_fires_and_zero_never_does() {
        let always = FaultInjector::new(FaultPlan::Seeded { seed: 1, one_in: 1 });
        assert!((0..16).all(|_| always.fire(FaultSite::ScratchGrow)));
        let never = FaultInjector::new(FaultPlan::Seeded { seed: 1, one_in: 0 });
        assert!((0..16).all(|_| !never.fire(FaultSite::ScratchGrow)));
    }

    #[test]
    fn fail_point_returns_structured_error() {
        fn step(injector: &FaultInjector) -> crate::Result<()> {
            fail_point!(injector, FaultSite::Bvh4Collapse);
            Ok(())
        }
        assert!(step(&FaultInjector::new(FaultPlan::Off)).is_ok());
        #[cfg(feature = "fault-inject")]
        {
            let injector = FaultInjector::new(FaultPlan::Seeded { seed: 0, one_in: 1 });
            assert_eq!(
                step(&injector),
                Err(crate::error::Error::FaultInjected {
                    site: "bvh4_collapse"
                })
            );
        }
    }

    #[test]
    fn inert_scope_never_trips() {
        let scope = CancelScope::none();
        assert!(!scope.is_active());
        assert!(!scope.tripped());
        assert!(!scope.should_stop());
        scope.trip(); // no-op on the inert scope
        assert!(!scope.tripped());
    }

    #[test]
    fn expired_deadline_trips_and_latches() {
        let scope = CancelScope::with_deadline(Duration::ZERO);
        assert!(scope.is_active());
        assert!(!scope.tripped(), "fine poll alone never reads the clock");
        assert!(scope.should_stop(), "zero budget is already expired");
        assert!(scope.tripped(), "the coarse poll latches the trip");
    }

    #[test]
    fn token_cancellation_reaches_every_clone() {
        let token = CancelToken::new();
        let scope = CancelScope::with_token(&token);
        let clone = scope.clone();
        assert!(!clone.should_stop());
        token.cancel();
        assert!(token.is_cancelled());
        assert!(scope.should_stop());
        assert!(clone.tripped(), "clones share the latch");
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let scope = CancelScope::with_deadline(Duration::from_secs(3600));
        assert!(!scope.should_stop());
        assert!(!scope.tripped());
    }

    #[test]
    fn manual_trip_is_visible_to_fine_polls() {
        let scope = CancelScope::with_token(&CancelToken::new());
        scope.trip();
        assert!(scope.tripped());
    }

    #[test]
    fn budget_allows_and_limits() {
        assert!(MemoryBudget::Unlimited.allows(u64::MAX));
        assert_eq!(MemoryBudget::Unlimited.limit(), None);
        let b = MemoryBudget::Bytes(64);
        assert!(b.allows(64));
        assert!(!b.allows(65));
        assert_eq!(b.limit(), Some(64));
    }

    #[test]
    fn retry_backoff_is_exponential_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base: 2,
        };
        assert_eq!(policy.backoff_ticks(0), 2);
        assert_eq!(policy.backoff_ticks(1), 4);
        assert_eq!(policy.backoff_ticks(2), 8);
        assert_eq!(policy.backoff_ticks(63), u64::MAX.saturating_mul(2));
        assert!(policy.allows_attempt(0));
        assert!(policy.allows_attempt(2));
        assert!(!policy.allows_attempt(3));
    }

    #[test]
    fn site_names_are_unique_and_stable() {
        let names: Vec<&str> = FaultSite::ALL.iter().map(FaultSite::name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), FaultSite::ALL.len());
        assert!(names.contains(&"shard_blas_poison"));
    }
}
