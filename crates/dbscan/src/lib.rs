//! RT-DBSCAN: DBSCAN accelerated by (simulated) ray-tracing hardware, plus
//! the GPU baselines it is evaluated against.
//!
//! This crate reproduces the algorithmic contribution of *RT-DBSCAN:
//! Accelerating DBSCAN using Ray Tracing Hardware* (Nagarajan & Kulkarni,
//! IPDPS 2023) on top of the `rtcore` software RT pipeline:
//!
//! * [`RtDbscan`] — the paper's algorithm: fixed-radius neighbour searches
//!   expressed as ray–sphere intersection queries over a device-built BVH,
//!   with a two-stage Union-Find clustering (Algorithm 3).
//! * [`Fdbscan`] — the FDBSCAN / ArborX baseline (BVH + Union-Find on the
//!   shader cores), with an optional early-exit traversal.
//! * [`GDbscan`] — the ε-graph + BFS baseline.
//! * [`CudaDclustPlus`] — the grid-index + chain-expansion baseline.
//! * [`ClassicDbscan`] — the sequential reference implementation used as the
//!   correctness oracle.
//!
//! All implementations expose the same [`DbscanAlgorithm`] interface and
//! report per-phase wall-clock timings, work counters and simulated device
//! memory, which is what the `rtdbscan-bench` crate uses to regenerate every
//! table and figure of the paper.
//!
//! Since the API redesign, two orthogonal axes compose through one surface:
//! the *algorithm* ([`engine::Algo`]) and the *neighbour-search backend*
//! ([`engine::IndexKind`], the `rtcore::index::NeighborIndex` trait).  The
//! [`engine::ClusterEngine`] builder façade is the recommended entry point;
//! the per-algorithm structs remain for direct use, and every one of them
//! now also runs over an arbitrary backend via its `run_on` method.
//!
//! # Quickstart
//!
//! ```
//! use rtcore::geometry::Point3;
//! use rtdbscan::prelude::*;
//!
//! // Two tight groups of points and one straggler.
//! let mut points: Vec<Point3> = (0..20).map(|i| Point3::new_2d(0.1 * i as f32, 0.0)).collect();
//! points.extend((0..20).map(|i| Point3::new_2d(100.0 + 0.1 * i as f32, 0.0)));
//! points.push(Point3::new_2d(50.0, 50.0));
//!
//! let engine = ClusterEngine::builder()
//!     .algorithm(Algo::Rt)
//!     .index(IndexKind::WideBatched)
//!     .eps(0.5)
//!     .min_pts(3)
//!     .build()
//!     .unwrap();
//! let result = engine.run(&points).unwrap();
//! assert_eq!(result.clustering.num_clusters(), 2);
//! assert_eq!(result.clustering.noise_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod classic;
pub mod dclust;
pub mod disjoint_set;
pub mod engine;
pub mod fdbscan;
pub mod gdbscan;
pub mod labels;
pub mod metrics;
pub mod params;
pub mod rt_dbscan;
pub mod runner;
pub mod stages;

pub use classic::ClassicDbscan;
pub use dclust::CudaDclustPlus;
pub use engine::{Algo, ClusterEngine, ClusterEngineBuilder, ClusterSession, ConfigError};
pub use fdbscan::Fdbscan;
pub use gdbscan::GDbscan;
pub use labels::{Clustering, NOISE};
pub use params::DbscanParams;
pub use rt_dbscan::RtDbscan;
pub use runner::{
    DbscanAlgorithm, Phase, PhaseCounters, PhaseTimings, RunResult, SimulatedBreakdown,
};

/// Flat convenience re-exports: `use rtdbscan::prelude::*;` brings in the
/// engine façade, the backend layer, the parameter types and the result
/// types in one line.
pub mod prelude {
    pub use crate::engine::{
        Algo, ClusterEngine, ClusterEngineBuilder, ClusterSession, ConfigError, IndexKind,
        TelemetryConfig,
    };
    pub use crate::labels::{Clustering, NOISE};
    pub use crate::params::DbscanParams;
    pub use crate::runner::{DbscanAlgorithm, Phase, PhaseCounters, PhaseTimings, RunResult};
    pub use crate::{ClassicDbscan, CudaDclustPlus, Fdbscan, GDbscan, RtDbscan};
    pub use rtcore::fault::{CancelScope, CancelToken, Deadline, FaultPlan, MemoryBudget};
    pub use rtcore::index::{
        CsrNeighbors, IndexCapabilities, Neighbor, NeighborFlow, NeighborIndex,
        NeighborIndexBuilder,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcore::geometry::Point3;

    /// The re-exported quickstart types compose as documented.
    #[test]
    fn public_api_smoke_test() {
        let points: Vec<Point3> = (0..30)
            .map(|i| Point3::new_2d(0.2 * i as f32, 0.0))
            .collect();
        let params = DbscanParams::new(0.5, 2).unwrap();
        let algorithms: Vec<Box<dyn DbscanAlgorithm>> = vec![
            Box::new(RtDbscan::default()),
            Box::new(Fdbscan::default()),
            Box::new(GDbscan::default()),
            Box::new(CudaDclustPlus::default()),
            Box::new(ClassicDbscan),
        ];
        for algo in &algorithms {
            let r = algo.run(&points, params).unwrap();
            assert_eq!(r.clustering.num_clusters(), 1, "{}", algo.name());
            assert_eq!(r.clustering.noise_count(), 0, "{}", algo.name());
        }
    }
}
