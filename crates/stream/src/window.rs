//! Window and update-policy configuration for the streaming clusterer.

use rtcore::fault::{FaultPlan, MemoryBudget, RetryPolicy};
use rtcore::telemetry::TelemetryConfig;
use rtdbscan::DbscanParams;

/// Which points are "live": the sliding-window retention policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowPolicy {
    /// Keep at most this many points; ingesting beyond the budget evicts
    /// the oldest.
    Count(usize),
    /// Keep points whose age (relative to the newest ingested timestamp) is
    /// strictly less than this horizon, in seconds.  The boundary is
    /// exclusive on the old side — a point whose age *equals* the horizon is
    /// evicted (`age >= horizon` ⇒ out), the same closed/open split the
    /// ε-ball uses at exactly `eps` being *in*; one convention, applied
    /// everywhere, keeps snapshot-equivalence checks stable when timestamps
    /// land exactly on the boundary.
    Time(f64),
}

impl WindowPolicy {
    /// Validate the policy's parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            WindowPolicy::Count(0) => Err("count window must keep at least one point".into()),
            WindowPolicy::Time(h) if h <= 0.0 || !h.is_finite() => Err(format!(
                "time window horizon must be positive and finite, got {h}"
            )),
            _ => Ok(()),
        }
    }
}

/// Full configuration of a [`crate::StreamingClusterer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingConfig {
    /// DBSCAN parameters (ε, minPts) — fixed for the clusterer's lifetime.
    pub params: DbscanParams,
    /// The sliding-window retention policy.
    pub window: WindowPolicy,
    /// Rebuild when the overlay — the delta indexes' points plus the live
    /// arrivals no index holds yet — exceeds this fraction of the scene's
    /// live points; until then each ingest indexes its admitted points as
    /// one more delta, which queries launch on beside the scene.  Eight
    /// deltas force a rebuild too.
    pub max_pending_fraction: f32,
    /// Refit (remove the evicted points from the scene in place with
    /// `NeighborIndex::remove`, which re-bounds its BVH4) once they make up
    /// at least this fraction of the scene's points; below it, evicted
    /// points are only filtered out of hits.
    pub refit_dead_fraction: f32,
    /// Telemetry recording level.  Off (the default) allocates no recorder
    /// and leaves the ingest/snapshot paths bit-identical to a
    /// telemetry-free build; any enabled level records phase spans for
    /// window slides, refits, rebuilds and snapshots' stage-2 passes,
    /// retrievable through [`crate::StreamingClusterer::telemetry`].
    pub telemetry: TelemetryConfig,
    /// Hard ceiling on the clusterer's resident device bytes (default
    /// [`MemoryBudget::Unlimited`]): the scene and delta indexes, the
    /// window's entries and the kept ε-edges.  An ingest that would start
    /// over budget refuses — without touching window state — with
    /// [`rtcore::Error::OverBudget`].  A snapshot allocates only its
    /// union-find for the call, which is not charged.
    pub memory_budget: MemoryBudget,
    /// Bounded retry-with-backoff for main-scene rebuilds that fail (today
    /// only via fault injection; real builds over ingest-validated points
    /// cannot fail).  While a rebuild is failing the clusterer degrades
    /// gracefully: the old scene, its deltas and an exact scan of the
    /// arrivals a failed delta build left unindexed keep answering
    /// correctly, just slower.
    pub rebuild_retry: RetryPolicy,
    /// Deterministic fault-injection schedule (default [`FaultPlan::Off`])
    /// for the maintained scene's builds.  Only a build compiled with the
    /// `fault-inject` feature ever arms a plan; without the feature every
    /// plan behaves as `Off` at zero cost.
    pub fault: FaultPlan,
}

impl StreamingConfig {
    /// A configuration with the given parameters and window, default update
    /// policy knobs.
    pub fn new(params: DbscanParams, window: WindowPolicy) -> Self {
        StreamingConfig {
            params,
            window,
            max_pending_fraction: 0.25,
            refit_dead_fraction: 0.03125,
            telemetry: TelemetryConfig::Off,
            memory_budget: MemoryBudget::Unlimited,
            rebuild_retry: RetryPolicy::default(),
            fault: FaultPlan::Off,
        }
    }

    /// Validate every knob.
    pub fn validate(&self) -> rtcore::Result<()> {
        self.params.validate()?;
        if let Err(msg) = self.window.validate() {
            return Err(rtcore::Error::InvalidConfig(msg));
        }
        if self.max_pending_fraction <= 0.0 || !self.max_pending_fraction.is_finite() {
            return Err(rtcore::Error::InvalidConfig(format!(
                "max_pending_fraction must be positive and finite, got {}",
                self.max_pending_fraction
            )));
        }
        if !(0.0..=1.0).contains(&self.refit_dead_fraction) {
            return Err(rtcore::Error::InvalidConfig(format!(
                "refit_dead_fraction must be in [0, 1], got {}",
                self.refit_dead_fraction
            )));
        }
        if self.memory_budget == MemoryBudget::Bytes(0) {
            return Err(rtcore::Error::InvalidConfig(
                "memory_budget of zero bytes rejects every ingest; use at least 1 byte".into(),
            ));
        }
        if self.rebuild_retry.max_attempts == 0 {
            return Err(rtcore::Error::InvalidConfig(
                "rebuild_retry must allow at least one attempt".into(),
            ));
        }
        if let FaultPlan::Seeded { one_in, .. } = self.fault {
            if one_in == 0 {
                return Err(rtcore::Error::InvalidConfig(
                    "fault plan one_in must be at least 1".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_validation() {
        assert!(WindowPolicy::Count(1).validate().is_ok());
        assert!(WindowPolicy::Count(0).validate().is_err());
        assert!(WindowPolicy::Time(10.0).validate().is_ok());
        assert!(WindowPolicy::Time(0.0).validate().is_err());
        assert!(WindowPolicy::Time(f64::NAN).validate().is_err());
    }

    #[test]
    fn config_validation() {
        let params = DbscanParams::new(0.5, 3).unwrap();
        let good = StreamingConfig::new(params, WindowPolicy::Count(100));
        assert!(good.validate().is_ok());

        let bad_pending = StreamingConfig {
            max_pending_fraction: 0.0,
            ..good
        };
        assert!(bad_pending.validate().is_err());

        let bad_dead = StreamingConfig {
            refit_dead_fraction: 1.5,
            ..good
        };
        assert!(bad_dead.validate().is_err());
    }
}
