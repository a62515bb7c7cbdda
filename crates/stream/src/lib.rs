//! Streaming RT-DBSCAN: incremental density clustering over sliding
//! windows.
//!
//! The batch pipeline in `rtdbscan` rebuilds the world from scratch on
//! every run: input transformation, acceleration-structure build, stage-1
//! neighbour counting, stage-2 cluster formation.  That is the right shape
//! for the paper's experiments and exactly the wrong shape for a production
//! system clustering live trajectory or geospatial feeds, where points
//! arrive continuously and old ones age out.  This crate adds the streaming
//! shape on top of the same substrate:
//!
//! * [`StreamingClusterer`] — batched ingestion into a sliding time/count
//!   window ([`WindowPolicy`]).  The scene is a
//!   [`rtcore::index::NeighborIndex`] kept alive across batches: expiring
//!   points are *refitted* out of its BVH4 in place
//!   (`NeighborIndex::remove`), each batch of newly arrived points is
//!   indexed as a small delta before it is queried, and a full rebuild
//!   absorbs the deltas once they outgrow their share of the scene or
//!   their number reaches a cap.  Each group of ingest queries (a batch's
//!   evicted points, then its admitted ones) is one batched CSR launch per
//!   level.  Points are named by arrival number, so the window is one deque
//!   and a liveness check is one comparison.
//! * Two layers of cluster maintenance.  Per-point ε-neighbour counts are
//!   maintained exactly under insertion and deletion, so core flags never
//!   need a stage-1 re-run, and each admitted point's ε-edges to older
//!   points are kept.  Each [`StreamingClusterer::snapshot`] of a changed
//!   window then feeds the live edges to the batch pipeline's own stage-2
//!   rule ([`rtdbscan::stages::ClusterForest`]) with the maintained core
//!   flags — no index build, no query — so it labels the window exactly as
//!   `ClusterEngine::run` over it would; a repeat snapshot of an unchanged
//!   window returns the cached result.
//! * [`StreamingSnapshotAlgorithm`] — a [`rtdbscan::DbscanAlgorithm`]
//!   adapter that replays a batch input through the streaming path, so the
//!   oracle and metrics machinery (`same_clustering`, ARI/NMI, the bench
//!   harness) applies to the streaming subsystem unchanged.
//!
//! Every piece of work — ingest launches, refits, rebuilds, delta builds
//! and the snapshots' union/find traffic — is
//! recorded in `rtcore::hardware::WorkCounters`, with refit and rebuild
//! decisions visible as `refits` / `rebuilds`, so the simulated-device cost
//! model prices streaming updates the same way it prices the batch
//! pipeline.

#![warn(missing_docs)]

mod adapter;
mod clusterer;
mod engine_ext;
mod window;

pub use adapter::StreamingSnapshotAlgorithm;
pub use clusterer::{IngestReport, StreamingClusterer, StreamingStats};
pub use engine_ext::EngineStreamExt;
pub use window::{StreamingConfig, WindowPolicy};
