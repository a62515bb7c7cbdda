//! Streaming as a mode of the batch [`ClusterEngine`]: the
//! [`EngineStreamExt`] extension trait adds `engine.stream(window_policy)`,
//! so one validated configuration drives the one-shot, session and
//! streaming shapes alike.

use crate::{StreamingClusterer, StreamingConfig, WindowPolicy};
use rtdbscan::engine::ClusterEngine;

/// Streaming entry points on [`ClusterEngine`] (bring this trait into scope
/// — it is part of the workspace prelude).
///
/// The engine's ε / `minPts` parameters carry over unchanged.  The
/// stream's scene and deltas always take the `Algo::Rt` engine's default
/// index configuration (without compaction): labels are identical across
/// backends, so only the work counters could differ.
///
/// ```
/// use rtcore::geometry::Point3;
/// use rtdbscan::engine::{Algo, ClusterEngine, IndexKind};
/// use rtdbscan_stream::{EngineStreamExt, WindowPolicy};
///
/// let engine = ClusterEngine::builder()
///     .algorithm(Algo::Rt)
///     .index(IndexKind::WideBatched)
///     .eps(1.0)
///     .min_pts(1)
///     .build()
///     .unwrap();
/// let mut stream = engine.stream(WindowPolicy::Count(4)).unwrap();
/// stream
///     .ingest(&[
///         (Point3::new_2d(0.0, 0.0), 0.0),
///         (Point3::new_2d(0.5, 0.0), 1.0),
///     ])
///     .unwrap();
/// assert_eq!(stream.snapshot().num_clusters(), 1);
/// ```
pub trait EngineStreamExt {
    /// The [`StreamingConfig`] this engine's settings translate to.
    fn streaming_config(&self, window: WindowPolicy) -> StreamingConfig;

    /// A [`StreamingClusterer`] over this engine's parameters and backend.
    fn stream(&self, window: WindowPolicy) -> rtcore::Result<StreamingClusterer>;
}

impl EngineStreamExt for ClusterEngine {
    fn streaming_config(&self, window: WindowPolicy) -> StreamingConfig {
        StreamingConfig::new(self.params(), window)
    }

    fn stream(&self, window: WindowPolicy) -> rtcore::Result<StreamingClusterer> {
        StreamingClusterer::new(self.streaming_config(window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcore::geometry::Point3;
    use rtdbscan::engine::{Algo, IndexKind};
    use rtdbscan::metrics::same_clustering;
    use rtdbscan::{ClassicDbscan, DbscanParams};

    #[test]
    fn engine_stream_matches_the_batch_engine_on_window_contents() {
        let params = DbscanParams::new(0.8, 3).unwrap();
        let engine = ClusterEngine::builder()
            .algorithm(Algo::Rt)
            .index(IndexKind::WideBatched)
            .params(params)
            .build()
            .unwrap();
        let mut stream = engine.stream(WindowPolicy::Count(500)).unwrap();
        let pts: Vec<Point3> = (0..120)
            .map(|i| Point3::new_2d((i % 30) as f32 * 0.4, (i / 30) as f32 * 0.4))
            .collect();
        let timed: Vec<(Point3, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as f64))
            .collect();
        stream.ingest(&timed).unwrap();
        let snapshot = stream.snapshot();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        assert_eq!(reference.core, snapshot.core);
        assert!(same_clustering(&reference, &snapshot, &pts, params));
    }

    #[test]
    fn invalid_window_policies_are_rejected() {
        let engine = ClusterEngine::builder()
            .eps(0.5)
            .min_pts(2)
            .build()
            .unwrap();
        assert!(engine.stream(WindowPolicy::Count(0)).is_err());
        assert!(engine.stream(WindowPolicy::Time(-1.0)).is_err());
    }
}
