//! Error type shared by the rtcore crate.

use crate::hardware::WorkCounters;
use std::fmt;

/// Errors produced while building scenes or launching pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The scene contained no primitives; a BVH cannot be built.
    EmptyScene,
    /// A primitive had a non-finite coordinate or radius.
    InvalidPrimitive {
        /// Index of the offending primitive in the build input.
        index: usize,
        /// Human-readable description of what was wrong.
        reason: String,
    },
    /// The simulated device ran out of memory.
    ///
    /// Mirrors the 6 GB limit of the RTX 2060 used in the paper: G-DBSCAN and
    /// CUDA-DClust+ hit this above ~100 K points.
    OutOfDeviceMemory {
        /// Bytes the allocation would have required.
        requested: u64,
        /// Bytes still available on the simulated device.
        available: u64,
    },
    /// A configuration value was out of range (for example a zero radius).
    InvalidConfig(String),
    /// A cancellable launch tripped its deadline or cancel token.
    ///
    /// Partial neighbour output is discarded by the driver — the launch
    /// never surfaces a wrong answer — but `partial` reports the work that
    /// was performed before the trip so callers can budget retries.
    DeadlineExceeded {
        /// Counters for the work completed before cancellation (boxed so
        /// the error enum stays small on the happy path).
        partial: Box<WorkCounters>,
    },
    /// An operation would exceed the configured [`crate::fault::MemoryBudget`]
    /// even after every graceful-degradation step (evicting cold shard
    /// scenes) was applied.
    OverBudget {
        /// Bytes the structure would occupy after the operation.
        requested: u64,
        /// The configured budget in bytes.
        budget: u64,
    },
    /// A deterministic failpoint fired (only reachable with the
    /// `fault-inject` feature and a seeded [`crate::fault::FaultPlan`]).
    FaultInjected {
        /// Stable name of the [`crate::fault::FaultSite`] that fired.
        site: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyScene => write!(f, "cannot build a BVH over an empty scene"),
            Error::InvalidPrimitive { index, reason } => {
                write!(f, "invalid primitive at index {index}: {reason}")
            }
            Error::OutOfDeviceMemory {
                requested,
                available,
            } => write!(
                f,
                "simulated device out of memory: requested {requested} bytes, {available} available"
            ),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::DeadlineExceeded { partial } => write!(
                f,
                "launch cancelled by deadline or token after {} distance computations \
                 ({} wide-node visits); partial results were discarded",
                partial.dist_comps, partial.wide_node_visits
            ),
            Error::OverBudget { requested, budget } => write!(
                f,
                "memory budget exceeded: structure needs {requested} bytes, budget is {budget}"
            ),
            Error::FaultInjected { site } => {
                write!(f, "injected fault fired at site `{site}`")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_empty_scene() {
        assert_eq!(
            Error::EmptyScene.to_string(),
            "cannot build a BVH over an empty scene"
        );
    }

    #[test]
    fn display_oom_mentions_sizes() {
        let e = Error::OutOfDeviceMemory {
            requested: 100,
            available: 7,
        };
        let s = e.to_string();
        assert!(s.contains("100"));
        assert!(s.contains('7'));
    }

    #[test]
    fn display_invalid_primitive() {
        let e = Error::InvalidPrimitive {
            index: 3,
            reason: "NaN coordinate".into(),
        };
        assert!(e.to_string().contains("index 3"));
        assert!(e.to_string().contains("NaN"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::EmptyScene, Error::EmptyScene);
        assert_ne!(Error::EmptyScene, Error::InvalidConfig("x".into()));
    }

    #[test]
    fn display_deadline_reports_partial_work() {
        let mut partial = WorkCounters::ZERO;
        partial.dist_comps = 42;
        partial.wide_node_visits = 7;
        let s = Error::DeadlineExceeded {
            partial: Box::new(partial),
        }
        .to_string();
        assert!(s.contains("42"));
        assert!(s.contains('7'));
        assert!(s.contains("discarded"));
    }

    #[test]
    fn display_over_budget_mentions_sizes() {
        let s = Error::OverBudget {
            requested: 4096,
            budget: 1024,
        }
        .to_string();
        assert!(s.contains("4096"));
        assert!(s.contains("1024"));
    }

    #[test]
    fn display_fault_injected_names_site() {
        let s = Error::FaultInjected {
            site: "hlbvh_build",
        }
        .to_string();
        assert!(s.contains("hlbvh_build"));
    }
}
