//! Offline stand-in for the parts of `loom` this workspace uses: a
//! model checker that runs a closure under **every schedule** of its
//! threads' visible operations (up to a configurable preemption bound) and
//! lets assertions inside the closure veto bad interleavings.
//!
//! # What the model explores — and what it does not
//!
//! Execution is fully serialised: exactly one model thread runs at a time,
//! and control is handed over only at *yield points* — every operation on
//! a [`sync::atomic`] type, every [`sync::Mutex`] lock/unlock, spawn and
//! join.  The scheduler drives a depth-first search over the tree of
//! "which runnable thread performs the next operation" choices, re-running
//! the closure once per schedule until the tree is exhausted.  Atomic
//! operations execute with sequentially consistent semantics regardless of
//! the `Ordering` argument, so the checker finds **interleaving** bugs
//! (lost updates, torn read-modify-write sequences, broken CAS retry
//! loops, deadlocks) but does not model weak-memory reordering.  That is
//! the honest contract for this repo's lock-free code: the orderings in
//! the real code are documented per-site by the `atomic-ordering` lint,
//! while the algorithms' interleaving correctness is checked here.
//!
//! # Bounding
//!
//! A full interleaving tree is exponential in the number of operations.
//! [`Builder::preemption_bound`] applies the CHESS result: schedules with
//! at most *p* involuntary context switches (the running thread is
//! preempted while still runnable) find the overwhelming majority of real
//! concurrency bugs at small *p*.  Forced switches — a thread blocking or
//! finishing — are free, so every thread always runs to completion.  With
//! `preemption_bound: None` the exploration is exhaustive.
//!
//! # Example
//!
//! ```
//! use loom::sync::atomic::{AtomicU64, Ordering};
//! use loom::sync::Arc;
//!
//! let iterations = loom::model(|| {
//!     let c = Arc::new(AtomicU64::new(0));
//!     let c2 = Arc::clone(&c);
//!     let t = loom::thread::spawn(move || {
//!         c2.fetch_add(1, Ordering::Relaxed);
//!     });
//!     c.fetch_add(1, Ordering::Relaxed);
//!     t.join().unwrap();
//!     // fetch_add is atomic: no interleaving can lose an update.
//!     assert_eq!(c.load(Ordering::Relaxed), 2);
//! });
//! assert!(iterations >= 2, "both orders of the two adds were explored");
//! ```

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc as StdArc, Condvar, Mutex as StdMutex};

// ---------------------------------------------------------------------------
// Execution state: one schedule of one model run
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Waiting for the thread with this id to finish.
    BlockedJoin(usize),
    /// Waiting for the mutex with this token to unlock.
    BlockedMutex(usize),
    Finished,
}

#[derive(Debug, Clone, Copy)]
struct Branch {
    /// Number of runnable alternatives at this choice point.
    options: usize,
    /// Which alternative this run took.
    selected: usize,
}

#[derive(Debug)]
struct ExecState {
    statuses: Vec<Status>,
    /// The one thread allowed to run (usize::MAX once everything finished).
    current: usize,
    /// Selections to replay, from the previous runs' DFS backtrack.
    prefix: Vec<usize>,
    /// Choice points recorded by this run (forced moves are not recorded).
    branches: Vec<Branch>,
    preemptions: usize,
    preemption_bound: Option<usize>,
    branch_cap: usize,
    /// Set when any model thread panics, so every other thread unblocks
    /// and unwinds instead of waiting forever on the token.
    panicked: bool,
}

struct Execution {
    state: StdMutex<ExecState>,
    cond: Condvar,
    /// OS join handles of spawned model threads; the harness drains these
    /// at the end of each iteration so no thread leaks into the next one.
    os_handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
    /// The first real panic payload raised by any model thread; the
    /// harness re-raises it after reaping every thread so the original
    /// assertion message survives the teardown.
    first_panic: StdMutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Execution {
    fn new(prefix: Vec<usize>, preemption_bound: Option<usize>, branch_cap: usize) -> Execution {
        Execution {
            state: StdMutex::new(ExecState {
                statuses: vec![Status::Runnable],
                current: 0,
                prefix,
                branches: Vec::new(),
                preemptions: 0,
                preemption_bound,
                branch_cap,
                panicked: false,
            }),
            cond: Condvar::new(),
            os_handles: StdMutex::new(Vec::new()),
            first_panic: StdMutex::new(None),
        }
    }
}

thread_local! {
    /// (execution, model thread id) of the model thread running on this OS
    /// thread; `None` outside a model, where every shim type falls back to
    /// plain std behaviour.
    static CONTEXT: RefCell<Option<(StdArc<Execution>, usize)>> = const { RefCell::new(None) };
}

fn current_context() -> Option<(StdArc<Execution>, usize)> {
    CONTEXT.with(|c| c.borrow().clone())
}

/// Panic payload used to tear down sibling threads after a model thread
/// panicked; the harness recognises and swallows it so only the original
/// panic propagates.
struct Aborted;

fn lock_state(exec: &Execution) -> std::sync::MutexGuard<'_, ExecState> {
    // The shim never continues after a poisoning panic inside the guard
    // scope (every path holding the lock is panic-free or aborts the whole
    // model), so recovering the inner state is sound.
    exec.state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Core scheduling step.  Called with `still_runnable = true` by a thread
/// about to perform a visible operation (a voluntary yield point), and with
/// `still_runnable = false` by a thread that just blocked or finished.
/// Returns once the calling thread holds the token again (trivially, for a
/// finishing thread that hands it elsewhere).
fn schedule(exec: &StdArc<Execution>, me: usize, still_runnable: bool) {
    let mut st = lock_state(exec);
    if st.panicked {
        drop(st);
        std::panic::panic_any(Aborted);
    }
    debug_assert_eq!(st.current, me, "yield from a thread not holding the token");

    let others: Vec<usize> = (0..st.statuses.len())
        .filter(|&t| t != me && st.statuses[t] == Status::Runnable)
        .collect();
    let options: Vec<usize> = if still_runnable {
        let budget_left = st
            .preemption_bound
            .is_none_or(|bound| st.preemptions < bound);
        if budget_left {
            // The running thread continues as option 0 so that the DFS
            // explores the preemption-free schedule first.
            std::iter::once(me).chain(others.iter().copied()).collect()
        } else {
            vec![me]
        }
    } else {
        others
    };

    if options.is_empty() {
        // Nothing can run.  Fine if every other thread already finished
        // (the model is over); a deadlock otherwise.
        let stuck: Vec<usize> = (0..st.statuses.len())
            .filter(|&t| t != me && !matches!(st.statuses[t], Status::Finished))
            .collect();
        if stuck.is_empty() {
            st.current = usize::MAX;
            drop(st);
            exec.cond.notify_all();
            return;
        }
        st.panicked = true;
        drop(st);
        exec.cond.notify_all();
        panic!("loom: deadlock — threads {stuck:?} are blocked and nothing is runnable");
    }

    let selected = if options.len() == 1 {
        0
    } else {
        let k = st.branches.len();
        let sel = if k < st.prefix.len() { st.prefix[k] } else { 0 };
        assert!(sel < options.len(), "loom: stale replay prefix");
        st.branches.push(Branch {
            options: options.len(),
            selected: sel,
        });
        if st.branches.len() > st.branch_cap {
            let cap = st.branch_cap;
            st.panicked = true;
            drop(st);
            exec.cond.notify_all();
            panic!(
                "loom: schedule exceeded {cap} choice points — bound the model \
                 (fewer operations per thread, or a lower preemption bound)"
            );
        }
        sel
    };
    let chosen = options[selected];
    if still_runnable && chosen != me {
        st.preemptions += 1;
    }
    st.current = chosen;
    // Decide whether to wait BEFORE releasing the lock: once another
    // thread holds the token it may flip our status (finish a join target,
    // unlock a mutex), and consulting `statuses` unlocked would race.
    let me_finished = st.statuses[me] == Status::Finished;
    drop(st);
    exec.cond.notify_all();

    let must_wait = if still_runnable {
        chosen != me
    } else {
        // Blocked threads wait to be woken and rescheduled; a finished
        // thread returns for good.
        !me_finished
    };
    if must_wait {
        wait_for_token(exec, me);
    }
}

/// Block until this thread holds the token again (or the model aborted).
fn wait_for_token(exec: &StdArc<Execution>, me: usize) {
    let mut st = lock_state(exec);
    while st.current != me && !st.panicked {
        st = exec
            .cond
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    if st.panicked {
        drop(st);
        std::panic::panic_any(Aborted);
    }
}

/// A voluntary yield point: give the scheduler a chance to preempt before
/// the caller performs its next visible operation.
fn yield_point() {
    if let Some((exec, me)) = current_context() {
        schedule(&exec, me, true);
    }
}

fn finish_thread(exec: &StdArc<Execution>, me: usize) {
    {
        let mut st = lock_state(exec);
        st.statuses[me] = Status::Finished;
        for t in 0..st.statuses.len() {
            if st.statuses[t] == Status::BlockedJoin(me) {
                st.statuses[t] = Status::Runnable;
            }
        }
    }
    schedule(exec, me, false);
}

/// Record a real panic from a model thread: keep the first payload so the
/// harness can re-raise it with the original message, flag the model as
/// panicked, and wake every parked thread so they tear down via [`Aborted`].
fn mark_panicked(exec: &StdArc<Execution>, payload: Box<dyn std::any::Any + Send>) {
    {
        let mut slot = exec
            .first_panic
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    let mut st = lock_state(exec);
    st.panicked = true;
    drop(st);
    exec.cond.notify_all();
}

// ---------------------------------------------------------------------------
// Model harness
// ---------------------------------------------------------------------------

/// Exploration knobs.  `Builder::default()` bounds preemptions at 3 —
/// deep enough for every classic lost-update/CAS-retry bug shape — and
/// caps runaway models instead of hanging the test suite.
#[derive(Debug, Clone)]
pub struct Builder {
    /// Max involuntary context switches per schedule; `None` = exhaustive.
    pub preemption_bound: Option<usize>,
    /// Abort if the DFS visits more schedules than this.
    pub max_iterations: usize,
    /// Abort any single schedule with more choice points than this.
    pub max_branches: usize,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            preemption_bound: Some(3),
            max_iterations: 5_000_000,
            max_branches: 50_000,
        }
    }
}

impl Builder {
    /// A builder with loom's field name for the preemption bound.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Run `f` once per schedule until the (bounded) interleaving tree is
    /// exhausted; panics inside `f` abort the exploration and propagate,
    /// with the failing schedule printed to stderr.  Returns the number of
    /// schedules explored.
    pub fn check<F>(&self, f: F) -> usize
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f = StdArc::new(f);
        let mut prefix: Vec<usize> = Vec::new();
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            assert!(
                iterations <= self.max_iterations,
                "loom: exceeded {} schedules — tighten the preemption bound or shrink the model",
                self.max_iterations
            );
            let exec = StdArc::new(Execution::new(
                prefix.clone(),
                self.preemption_bound,
                self.max_branches,
            ));

            // Thread 0 (the model's "main" thread) runs on a fresh OS
            // thread so the caller's thread-local context stays untouched.
            let exec0 = StdArc::clone(&exec);
            let body = StdArc::clone(&f);
            let main = std::thread::spawn(move || {
                CONTEXT.with(|c| *c.borrow_mut() = Some((StdArc::clone(&exec0), 0)));
                let result = catch_unwind(AssertUnwindSafe(|| body()));
                match result {
                    Ok(()) => finish_thread(&exec0, 0),
                    // Torn down because another thread raised the real
                    // panic; that payload is already in `first_panic`.
                    Err(payload) if payload.is::<Aborted>() => {}
                    Err(payload) => mark_panicked(&exec0, payload),
                }
            });
            let _ = main.join();

            // Drain every spawned OS thread before inspecting the run, so
            // no model thread survives into the next iteration.
            let handles = std::mem::take(&mut *lock_state_handles(&exec));
            for h in handles {
                let _ = h.join();
            }

            let panicked = lock_state(&exec).panicked;
            if panicked {
                eprintln!(
                    "loom: panic under schedule {:?} (iteration {})",
                    replay_of(&exec),
                    iterations
                );
                let payload = exec
                    .first_panic
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take()
                    .unwrap_or_else(|| Box::new("loom: model panicked without a payload"));
                resume_unwind(payload);
            }

            // DFS backtrack: bump the deepest choice point that still has
            // an unexplored alternative; drop everything below it.
            let mut branches = {
                let st = lock_state(&exec);
                st.branches.clone()
            };
            while let Some(last) = branches.last() {
                if last.selected + 1 < last.options {
                    break;
                }
                branches.pop();
            }
            match branches.last_mut() {
                None => return iterations,
                Some(last) => {
                    last.selected += 1;
                    prefix = branches.iter().map(|b| b.selected).collect();
                }
            }
        }
    }
}

fn lock_state_handles(
    exec: &Execution,
) -> std::sync::MutexGuard<'_, Vec<std::thread::JoinHandle<()>>> {
    exec.os_handles
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn replay_of(exec: &Execution) -> Vec<usize> {
    lock_state(exec)
        .branches
        .iter()
        .map(|b| b.selected)
        .collect()
}

/// Explore `f` under the default [`Builder`]; returns schedules explored.
pub fn model<F>(f: F) -> usize
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::default().check(f)
}

// ---------------------------------------------------------------------------
// thread
// ---------------------------------------------------------------------------

/// Model-aware replacements for `std::thread`.
pub mod thread {
    use super::*;

    /// Handle to a model thread; `join` is a blocking yield point.
    pub struct JoinHandle<T> {
        tid: usize,
        exec: StdArc<Execution>,
        result: StdArc<StdMutex<Option<std::thread::Result<T>>>>,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish and take its result.
        pub fn join(self) -> std::thread::Result<T> {
            let me = current_context()
                .map(|(_, id)| id)
                .expect("loom::thread::JoinHandle::join outside a model");
            loop {
                let finished = {
                    let st = lock_state(&self.exec);
                    st.statuses[self.tid] == Status::Finished
                };
                if finished {
                    break;
                }
                {
                    let mut st = lock_state(&self.exec);
                    // Re-check under the lock: the target may have finished
                    // since the unlocked peek above.
                    if st.statuses[self.tid] == Status::Finished {
                        break;
                    }
                    st.statuses[me] = Status::BlockedJoin(self.tid);
                }
                schedule(&self.exec, me, false);
            }
            self.result
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                .expect("loom thread result already taken")
        }
    }

    /// Spawn a model thread.  Panics when called outside [`crate::model`]
    /// (this shim has no free-threaded fallback — spawning real threads
    /// outside the scheduler would silently skip exploration).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (exec, me) = current_context().expect("loom::thread::spawn outside a model");
        let tid = {
            let mut st = lock_state(&exec);
            st.statuses.push(Status::Runnable);
            st.statuses.len() - 1
        };
        let result: StdArc<StdMutex<Option<std::thread::Result<T>>>> =
            StdArc::new(StdMutex::new(None));
        let slot = StdArc::clone(&result);
        let child_exec = StdArc::clone(&exec);
        let os = std::thread::spawn(move || {
            CONTEXT.with(|c| *c.borrow_mut() = Some((StdArc::clone(&child_exec), tid)));
            wait_for_token(&child_exec, tid);
            let out = catch_unwind(AssertUnwindSafe(f));
            match out {
                Ok(value) => {
                    *slot
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Ok(value));
                    finish_thread(&child_exec, tid);
                }
                // Teardown marker: the real panic is in `first_panic` and
                // the model is already winding down — just exit quietly.
                Err(payload) if payload.is::<Aborted>() => {}
                Err(payload) => mark_panicked(&child_exec, payload),
            }
        });
        lock_state_handles(&exec).push(os);
        // Yield so the DFS can run the child before the parent continues.
        schedule(&exec, me, true);
        JoinHandle { tid, exec, result }
    }

    /// A pure yield point.
    pub fn yield_now() {
        super::yield_point();
    }
}

// ---------------------------------------------------------------------------
// sync
// ---------------------------------------------------------------------------

/// Model-aware replacements for `std::sync`.
pub mod sync {
    use super::*;

    pub use std::sync::Arc;

    /// Model-aware atomics.  Every operation is a yield point executed
    /// with sequentially consistent semantics; the `Ordering` argument is
    /// accepted for source compatibility and ignored (see the crate docs).
    pub mod atomic {
        use super::super::yield_point;
        pub use std::sync::atomic::Ordering;

        macro_rules! model_atomic {
            ($name:ident, $std:ty, $int:ty) => {
                /// Model-aware atomic: each operation is a scheduler yield
                /// point followed by the real (SeqCst) std operation.
                #[derive(Debug, Default)]
                pub struct $name(pub(crate) $std);

                impl $name {
                    /// Create a new atomic with `value`.
                    pub const fn new(value: $int) -> Self {
                        Self(<$std>::new(value))
                    }

                    /// Model-aware load.
                    pub fn load(&self, _order: Ordering) -> $int {
                        yield_point();
                        self.0.load(Ordering::SeqCst)
                    }

                    /// Model-aware store.
                    pub fn store(&self, value: $int, _order: Ordering) {
                        yield_point();
                        self.0.store(value, Ordering::SeqCst)
                    }

                    /// Model-aware fetch_add (wrapping, like std).
                    pub fn fetch_add(&self, value: $int, _order: Ordering) -> $int {
                        yield_point();
                        self.0.fetch_add(value, Ordering::SeqCst)
                    }

                    /// Model-aware fetch_sub (wrapping, like std).
                    pub fn fetch_sub(&self, value: $int, _order: Ordering) -> $int {
                        yield_point();
                        self.0.fetch_sub(value, Ordering::SeqCst)
                    }

                    /// Model-aware fetch_min.
                    pub fn fetch_min(&self, value: $int, _order: Ordering) -> $int {
                        yield_point();
                        self.0.fetch_min(value, Ordering::SeqCst)
                    }

                    /// Model-aware compare_exchange.
                    pub fn compare_exchange(
                        &self,
                        current: $int,
                        new: $int,
                        _success: Ordering,
                        _failure: Ordering,
                    ) -> Result<$int, $int> {
                        yield_point();
                        self.0
                            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                    }

                    /// Model-aware compare_exchange_weak.  Never fails
                    /// spuriously (the code under test must already handle
                    /// both outcomes; genuine CAS losses are explored via
                    /// interleaving).
                    pub fn compare_exchange_weak(
                        &self,
                        current: $int,
                        new: $int,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$int, $int> {
                        self.compare_exchange(current, new, success, failure)
                    }

                    /// Read the value without a yield point (single-threaded
                    /// contexts: after joins, or via `&mut`).
                    pub fn into_inner(self) -> $int {
                        self.0.into_inner()
                    }
                }
            };
        }

        model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        model_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
        model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

        /// Model-aware `AtomicBool` (the subset of ops this workspace
        /// uses).
        #[derive(Debug, Default)]
        pub struct AtomicBool(std::sync::atomic::AtomicBool);

        impl AtomicBool {
            /// Create a new atomic bool.
            pub const fn new(value: bool) -> Self {
                Self(std::sync::atomic::AtomicBool::new(value))
            }

            /// Model-aware load.
            pub fn load(&self, _order: Ordering) -> bool {
                yield_point();
                self.0.load(Ordering::SeqCst)
            }

            /// Model-aware store.
            pub fn store(&self, value: bool, _order: Ordering) {
                yield_point();
                self.0.store(value, Ordering::SeqCst)
            }

            /// Model-aware compare_exchange.
            pub fn compare_exchange(
                &self,
                current: bool,
                new: bool,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<bool, bool> {
                yield_point();
                self.0
                    .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            }
        }
    }

    /// Model-aware mutex: contended locks park the thread in the scheduler
    /// (never on the OS) so every handoff order is explored.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: StdMutex<T>,
    }

    /// Guard returned by [`Mutex::lock`]; dropping it unlocks and wakes
    /// scheduler-parked waiters.
    pub struct MutexGuard<'a, T> {
        // Option so drop can release the std guard before waking waiters.
        std_guard: Option<std::sync::MutexGuard<'a, T>>,
        token: usize,
        ctx: Option<(StdArc<Execution>, usize)>,
    }

    impl<T> Mutex<T> {
        /// Create a new mutex.
        pub fn new(value: T) -> Self {
            Mutex {
                inner: StdMutex::new(value),
            }
        }

        /// Acquire the lock.  Inside a model this is a yield point, and a
        /// contended acquire blocks in the scheduler; outside a model it
        /// is a plain (poison-recovering) std lock.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let token = self as *const _ as usize;
            match current_context() {
                None => MutexGuard {
                    std_guard: Some(
                        self.inner
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner),
                    ),
                    token,
                    ctx: None,
                },
                Some((exec, me)) => loop {
                    schedule(&exec, me, true);
                    // Execution is token-serialised, so try_lock only fails
                    // when a preempted thread genuinely holds the lock.
                    match self.inner.try_lock() {
                        Ok(guard) => {
                            return MutexGuard {
                                std_guard: Some(guard),
                                token,
                                ctx: Some((exec, me)),
                            }
                        }
                        Err(std::sync::TryLockError::Poisoned(p)) => {
                            return MutexGuard {
                                std_guard: Some(p.into_inner()),
                                token,
                                ctx: Some((exec, me)),
                            }
                        }
                        Err(std::sync::TryLockError::WouldBlock) => {
                            {
                                let mut st = lock_state(&exec);
                                st.statuses[me] = Status::BlockedMutex(token);
                            }
                            schedule(&exec, me, false);
                        }
                    }
                },
            }
        }

        /// Consume the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.inner
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.std_guard.as_ref().expect("guard taken")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.std_guard.as_mut().expect("guard taken")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the std lock first, then wake scheduler-parked
            // waiters so their next try_lock can succeed.
            self.std_guard = None;
            if let Some((exec, _me)) = &self.ctx {
                let mut st = lock_state(exec);
                for t in 0..st.statuses.len() {
                    if st.statuses[t] == Status::BlockedMutex(self.token) {
                        st.statuses[t] = Status::Runnable;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};
    use super::sync::{Arc, Mutex};
    use std::collections::BTreeSet;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn explores_more_than_one_schedule() {
        let iters = super::model(|| {
            let a = Arc::new(AtomicU64::new(0));
            let a2 = Arc::clone(&a);
            let t = super::thread::spawn(move || a2.store(1, Ordering::Relaxed));
            a.store(2, Ordering::Relaxed);
            t.join().unwrap();
        });
        assert!(iters >= 2, "only {iters} schedules explored");
    }

    #[test]
    fn finds_the_lost_update_in_a_racy_increment() {
        // load-then-store increment from two threads: some interleaving
        // must lose an update (final 1), some must not (final 2).  This is
        // the canary proving the checker actually explores interleavings.
        let outcomes = Arc::new(StdMutex::new(BTreeSet::new()));
        let sink = Arc::clone(&outcomes);
        super::model(move || {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = super::thread::spawn(move || {
                let v = c2.load(Ordering::Relaxed);
                c2.store(v + 1, Ordering::Relaxed);
            });
            let v = c.load(Ordering::Relaxed);
            c.store(v + 1, Ordering::Relaxed);
            t.join().unwrap();
            sink.lock().unwrap().insert(c.load(Ordering::Relaxed));
        });
        let seen = outcomes.lock().unwrap();
        assert!(seen.contains(&1), "lost-update interleaving never explored");
        assert!(seen.contains(&2), "race-free interleaving never explored");
    }

    #[test]
    fn atomic_fetch_add_never_loses_updates() {
        super::model(|| {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = super::thread::spawn(move || {
                c2.fetch_add(1, Ordering::Relaxed);
            });
            c.fetch_add(1, Ordering::Relaxed);
            t.join().unwrap();
            assert_eq!(c.load(Ordering::Relaxed), 2);
        });
    }

    #[test]
    fn mutex_serialises_critical_sections() {
        let outcomes = Arc::new(StdMutex::new(BTreeSet::new()));
        let sink = Arc::clone(&outcomes);
        super::model(move || {
            let m = Arc::new(Mutex::new(0u64));
            let m2 = Arc::clone(&m);
            let t = super::thread::spawn(move || {
                let mut g = m2.lock();
                let v = *g;
                // The guard is held across the "compute" step, so the
                // read-modify-write is indivisible under every schedule.
                *g = v + 1;
            });
            {
                let mut g = m.lock();
                let v = *g;
                *g = v + 1;
            }
            t.join().unwrap();
            sink.lock().unwrap().insert(*m.lock());
        });
        let seen = outcomes.lock().unwrap();
        assert_eq!(
            seen.iter().copied().collect::<Vec<_>>(),
            vec![2],
            "mutex-protected increments must never lose an update"
        );
    }

    #[test]
    fn three_threads_interleave() {
        let outcomes = Arc::new(StdMutex::new(BTreeSet::new()));
        let sink = Arc::clone(&outcomes);
        super::model(move || {
            let c = Arc::new(AtomicU64::new(0));
            let mk = |mult: u64| {
                let c = Arc::clone(&c);
                super::thread::spawn(move || {
                    let v = c.load(Ordering::Relaxed);
                    c.store(v * 10 + mult, Ordering::Relaxed);
                })
            };
            let t1 = mk(1);
            let t2 = mk(2);
            t1.join().unwrap();
            t2.join().unwrap();
            sink.lock().unwrap().insert(c.load(Ordering::Relaxed));
        });
        let seen = outcomes.lock().unwrap();
        // Sequential orders give 12 and 21; racy overlaps give 1 or 2.
        for expect in [12, 21, 1, 2] {
            assert!(seen.contains(&expect), "outcome {expect} missing: {seen:?}");
        }
    }

    #[test]
    fn deterministic_schedule_count() {
        let count = || {
            super::Builder::default().check(|| {
                let c = Arc::new(AtomicU64::new(0));
                let c2 = Arc::clone(&c);
                let t = super::thread::spawn(move || {
                    c2.fetch_add(3, Ordering::Relaxed);
                });
                c.fetch_add(5, Ordering::Relaxed);
                t.join().unwrap();
                assert_eq!(c.load(Ordering::Relaxed), 8);
            })
        };
        assert_eq!(count(), count(), "exploration must be deterministic");
    }

    #[test]
    fn panics_propagate_with_all_threads_reaped() {
        let result = std::panic::catch_unwind(|| {
            super::model(|| {
                let c = Arc::new(AtomicU64::new(0));
                let c2 = Arc::clone(&c);
                let t = super::thread::spawn(move || {
                    let v = c2.load(Ordering::Relaxed);
                    c2.store(v + 1, Ordering::Relaxed);
                });
                let v = c.load(Ordering::Relaxed);
                c.store(v + 1, Ordering::Relaxed);
                t.join().unwrap();
                // Fails on the lost-update schedule.
                assert_eq!(c.load(Ordering::Relaxed), 2);
            });
        });
        assert!(result.is_err(), "the lost-update schedule must be found");
    }

    #[test]
    fn atomics_work_outside_models() {
        let c = AtomicU64::new(7);
        c.fetch_add(1, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 8);
        let m = Mutex::new(5u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }
}
