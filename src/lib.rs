//! Umbrella crate for the RT-DBSCAN reproduction workspace.
//!
//! The real code lives in the member crates; this crate exists so the
//! cross-crate integration tests in `tests/` and the demos in `examples/`
//! have a package to hang off.  It re-exports the member crates under their
//! usual names for convenience.
//!
//! Crate map (see `README.md` for the full tour):
//!
//! * [`rtcore`] — the software ray-tracing substrate (geometry, BVH
//!   builders and refit, traversal, neighbour-index backends, device
//!   model).
//! * [`rtdbscan`] — RT-DBSCAN and the baselines it is compared against.
//! * [`rtdbscan_datasets`] — synthetic analogues of the paper's datasets,
//!   plus replayable point streams.
//! * [`rtdbscan_stream`] — the streaming subsystem: windowed ingestion,
//!   BVH refit/rebuild policies and incremental cluster maintenance.

#![warn(missing_docs)]

pub use rtcore;
pub use rtdbscan;
pub use rtdbscan_datasets;
pub use rtdbscan_stream;

/// Flat one-line import surface for the whole workspace:
/// `use rtdbscan_repro::prelude::*;` brings in the [`rtdbscan::engine`]
/// builder façade, the `rtcore::index` backend layer, the parameter and
/// result types, and the streaming entry points (including the
/// [`rtdbscan_stream::EngineStreamExt`] trait that makes
/// `engine.stream(window)` available).
pub mod prelude {
    pub use rtcore::geometry::Point3;
    pub use rtcore::hardware::{DeviceModel, WorkCounters};
    pub use rtdbscan::prelude::*;
    pub use rtdbscan_stream::{
        EngineStreamExt, StreamingClusterer, StreamingConfig, StreamingSnapshotAlgorithm,
        WindowPolicy,
    };
}
