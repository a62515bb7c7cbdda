//! `DbscanAlgorithm` adapter: run a batch workload through the streaming
//! path so the oracle, metrics and bench machinery apply to it unchanged.

use crate::clusterer::StreamingClusterer;
use crate::window::{StreamingConfig, WindowPolicy};
use rtcore::geometry::Point3;
use rtcore::hardware::ExecutionPath;
use rtcore::Result;
use rtdbscan::runner::{DbscanAlgorithm, PhaseCounters, PhaseTimings, RunResult};
use rtdbscan::DbscanParams;

/// Replays a batch input through [`StreamingClusterer`] and returns the
/// final snapshot as an ordinary [`RunResult`].
///
/// The window is sized to hold the entire input, so the final snapshot
/// covers exactly the same point set a batch algorithm sees — which is what
/// lets `rtdbscan::metrics::same_clustering` and the equivalence test suite
/// compare the streaming subsystem directly against `ClassicDbscan` and
/// RT-DBSCAN.
///
/// ```
/// use rtcore::geometry::Point3;
/// use rtdbscan::{ClassicDbscan, DbscanAlgorithm, DbscanParams};
/// use rtdbscan::metrics::same_clustering;
/// use rtdbscan_stream::StreamingSnapshotAlgorithm;
///
/// let points: Vec<Point3> = (0..40).map(|i| Point3::new_2d(0.2 * i as f32, 0.0)).collect();
/// let params = DbscanParams::new(0.5, 2).unwrap();
/// let streamed = StreamingSnapshotAlgorithm::default().run(&points, params).unwrap();
/// let reference = ClassicDbscan::cluster(&points, params).unwrap();
/// assert!(same_clustering(&reference, &streamed.clustering, &points, params));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StreamingSnapshotAlgorithm {
    /// Points per ingestion batch during the replay.
    pub batch_size: usize,
}

impl Default for StreamingSnapshotAlgorithm {
    fn default() -> Self {
        StreamingSnapshotAlgorithm { batch_size: 512 }
    }
}

impl DbscanAlgorithm for StreamingSnapshotAlgorithm {
    fn name(&self) -> &'static str {
        "Streaming RT-DBSCAN (snapshot)"
    }

    fn run(&self, points: &[Point3], params: DbscanParams) -> Result<RunResult> {
        params.validate()?;
        let window = WindowPolicy::Count(points.len().max(1));
        let mut clusterer = StreamingClusterer::new(StreamingConfig::new(params, window))?;

        let start = std::time::Instant::now();
        let batch = self.batch_size.max(1);
        let mut time = 0.0f64;
        for chunk in points.chunks(batch) {
            let timed: Vec<(Point3, f64)> = chunk
                .iter()
                .map(|&p| {
                    time += 1.0;
                    (p, time)
                })
                .collect();
            clusterer.ingest(&timed)?;
        }
        let clustering = clusterer.snapshot();
        let elapsed = start.elapsed();

        let (build, stage1, stage2) = clusterer.phase_counters();
        Ok(RunResult {
            clustering,
            // The streaming path interleaves all three phases; wall-clock
            // time is reported against the total, with the per-phase *work*
            // split carried by the counters.
            timings: PhaseTimings {
                build: std::time::Duration::ZERO,
                core_identification: std::time::Duration::ZERO,
                cluster_formation: elapsed,
            },
            counters: PhaseCounters {
                build,
                core_identification: stage1,
                cluster_formation: stage2,
            },
            path: ExecutionPath::RtCore,
            device_bytes: clusterer.device_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdbscan::metrics::same_clustering;
    use rtdbscan::{ClassicDbscan, RtDbscan};

    fn blobs() -> Vec<Point3> {
        let mut pts = Vec::new();
        for c in 0..3 {
            let cx = c as f32 * 12.0;
            for i in 0..45 {
                let a = i as f32 * 0.41;
                let r = 0.8 * ((i % 9) as f32 / 9.0);
                pts.push(Point3::new_2d(cx + r * a.cos(), 3.0 + r * a.sin()));
            }
        }
        for i in 0..7 {
            pts.push(Point3::new_2d(5.0 + i as f32, -40.0));
        }
        pts
    }

    #[test]
    fn adapter_matches_batch_algorithms() {
        let pts = blobs();
        for (eps, min_pts) in [(0.5, 4), (1.0, 8), (2.0, 3)] {
            let params = DbscanParams::new(eps, min_pts).unwrap();
            let reference = ClassicDbscan::cluster(&pts, params).unwrap();
            let rt = RtDbscan::default().run(&pts, params).unwrap().clustering;
            let streamed = StreamingSnapshotAlgorithm::default()
                .run(&pts, params)
                .unwrap()
                .clustering;
            assert_eq!(reference.core, streamed.core, "eps={eps}");
            assert!(
                same_clustering(&reference, &streamed, &pts, params),
                "eps={eps}"
            );
            assert!(same_clustering(&rt, &streamed, &pts, params), "eps={eps}");
        }
    }

    #[test]
    fn small_batches_with_per_batch_snapshots_agree_too() {
        let pts = blobs();
        let params = DbscanParams::new(0.8, 5).unwrap();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        let streamed = StreamingSnapshotAlgorithm { batch_size: 17 }
            .run(&pts, params)
            .unwrap()
            .clustering;
        assert_eq!(reference.core, streamed.core);
        assert!(same_clustering(&reference, &streamed, &pts, params));

        // The same replay with a snapshot after every batch ends on the
        // same clustering: an intermediate snapshot changes no later one.
        let window = WindowPolicy::Count(pts.len());
        let mut c = StreamingClusterer::new(StreamingConfig::new(params, window)).unwrap();
        for (i, chunk) in pts.chunks(17).enumerate() {
            let timed: Vec<(Point3, f64)> = chunk.iter().map(|&p| (p, i as f64)).collect();
            c.ingest(&timed).unwrap();
            let _ = c.snapshot();
        }
        assert_eq!(c.snapshot(), streamed);
    }

    #[test]
    fn run_result_is_fully_populated() {
        let pts = blobs();
        let params = DbscanParams::new(0.8, 5).unwrap();
        let run = StreamingSnapshotAlgorithm::default()
            .run(&pts, params)
            .unwrap();
        assert_eq!(run.path, ExecutionPath::RtCore);
        assert!(run.device_bytes > 0);
        assert!(run.counters.build.build_prims > 0);
        assert!(run.counters.core_identification.rays as usize >= pts.len());
        assert!(run.counters.total().total_ops() > 0);
        // Streaming work feeds the simulated-device model like any other run.
        assert!(run.simulated_total().as_secs_f64() > 0.0);
    }

    #[test]
    fn empty_input_is_fine() {
        let params = DbscanParams::new(0.5, 2).unwrap();
        let run = StreamingSnapshotAlgorithm::default()
            .run(&[], params)
            .unwrap();
        assert!(run.clustering.is_empty());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(
            StreamingSnapshotAlgorithm::default().name(),
            "Streaming RT-DBSCAN (snapshot)"
        );
    }
}
