//! FDBSCAN baseline (Prokopenko et al., "Fast tree-based algorithms for
//! DBSCAN on GPUs" — the ArborX implementation the paper compares against).
//!
//! FDBSCAN builds a bounding-volume hierarchy over the points and runs two
//! parallel stages: (1) a fixed-radius traversal per point to count
//! neighbours and mark core points, and (2) a second traversal per core
//! point that merges clusters through a parallel Union-Find, claiming border
//! points atomically.  It stores no neighbour lists, which is what gives it
//! its minimal memory footprint.
//!
//! The two stages are the shared two-stage driver in `stages` — the same
//! launches, union-find and lowest-index border claim as RT-DBSCAN — and
//! only the substrate and execution path differ:
//!
//! * all traversal runs on the shader cores
//!   ([`ExecutionPath::ShaderCore`]) — there is no RT-core acceleration;
//! * the native backend is a *binary* BVH built by the GPU-style LBVH
//!   (Morton order), not the wide batched scene the RT driver collapses to,
//!   and no primitive compaction is applied;
//! * optionally, stage 1 terminates a traversal early once `minPts`
//!   neighbours have been seen (the `early_exit` switch studied in
//!   Section VI-B / Fig 9).

use crate::params::DbscanParams;
use crate::runner::{timed, DbscanAlgorithm, RunResult};
use crate::stages;
use rtcore::bvh::BuilderKind;
use rtcore::fault::CancelScope;
use rtcore::geometry::Point3;
use rtcore::hardware::ExecutionPath;
use rtcore::index::{IndexKind, NeighborIndex, NeighborIndexBuilder};
use rtcore::Result;

/// Configuration of the FDBSCAN baseline.
#[derive(Debug, Clone, Copy)]
pub struct Fdbscan {
    /// Terminate the stage-1 traversal as soon as `minPts` neighbours have
    /// been found.  The paper's headline comparisons run with this *off*
    /// (Section V-B explains why); Fig 9 studies the effect of turning it on.
    pub early_exit: bool,
    /// Maximum primitives per BVH leaf.
    pub max_leaf_size: usize,
}

impl Default for Fdbscan {
    fn default() -> Self {
        Fdbscan {
            early_exit: false,
            max_leaf_size: 4,
        }
    }
}

impl Fdbscan {
    /// FDBSCAN with the early-exit optimisation enabled
    /// ("FDBSCAN-EarlyExit" in Fig 9).
    pub fn with_early_exit() -> Self {
        Fdbscan {
            early_exit: true,
            ..Fdbscan::default()
        }
    }

    /// The neighbour-index configuration this baseline builds by default: a
    /// binary BVH from the GPU-style LBVH builder, no compaction.
    pub fn index_builder(&self) -> NeighborIndexBuilder {
        NeighborIndexBuilder {
            bvh_builder: BuilderKind::Lbvh,
            max_leaf_size: self.max_leaf_size,
            ..NeighborIndexBuilder::new(IndexKind::BinaryBvh)
        }
    }

    /// Run both stages over an already-built neighbour index (build phase
    /// reported with the index's counters and zero wall-clock time — the
    /// caller owns the build timing).  The traversal work is charged to the
    /// shader cores whatever the backend.
    pub fn run_on(
        &self,
        index: &dyn NeighborIndex,
        points: &[Point3],
        params: DbscanParams,
    ) -> Result<RunResult> {
        stages::run_two_stage(
            index,
            points,
            params,
            self.early_exit,
            ExecutionPath::ShaderCore,
            &CancelScope::none(),
        )
    }
}

impl DbscanAlgorithm for Fdbscan {
    fn name(&self) -> &'static str {
        if self.early_exit {
            "FDBSCAN-EarlyExit"
        } else {
            "FDBSCAN"
        }
    }

    fn run(&self, points: &[Point3], params: DbscanParams) -> Result<RunResult> {
        params.validate()?;
        let (index, build_time) = timed(|| self.index_builder().build(points, params.eps));
        let mut result = self.run_on(index?.as_ref(), points, params)?;
        result.timings.build += build_time;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::ClassicDbscan;
    use crate::labels::NOISE;
    use crate::metrics::same_clustering;

    fn blobs(n_per: usize) -> Vec<Point3> {
        let mut pts = Vec::new();
        for c in 0..3 {
            let cx = c as f32 * 20.0;
            for i in 0..n_per {
                let a = i as f32 * 0.17;
                let r = 0.8 * ((i % 13) as f32 / 13.0);
                pts.push(Point3::new_2d(cx + r * a.cos(), r * a.sin()));
            }
        }
        pts.push(Point3::new_2d(10.0, 10.0));
        pts.push(Point3::new_2d(-10.0, 10.0));
        pts
    }

    #[test]
    fn matches_classic_dbscan() {
        let pts = blobs(60);
        let params = DbscanParams::new(0.5, 5).unwrap();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        let fd = Fdbscan::default().run(&pts, params).unwrap().clustering;
        assert!(same_clustering(&reference, &fd, &pts, params));
        assert_eq!(reference.num_clusters(), fd.num_clusters());
        assert_eq!(reference.core, fd.core);
    }

    #[test]
    fn early_exit_preserves_the_clustering() {
        let pts = blobs(80);
        let params = DbscanParams::new(0.6, 4).unwrap();
        let plain = Fdbscan::default().run(&pts, params).unwrap();
        let early = Fdbscan::with_early_exit().run(&pts, params).unwrap();
        assert!(same_clustering(
            &plain.clustering,
            &early.clustering,
            &pts,
            params
        ));
        // Early exit must not do *more* stage-1 work.
        assert!(
            early.counters.core_identification.prim_tests
                <= plain.counters.core_identification.prim_tests
        );
    }

    #[test]
    fn early_exit_reduces_work_on_dense_data() {
        // Dense blob where every neighbourhood is far larger than minPts.
        let pts: Vec<Point3> = (0..500)
            .map(|i| Point3::new_2d((i % 25) as f32 * 0.05, (i / 25) as f32 * 0.05))
            .collect();
        let params = DbscanParams::new(2.0, 5).unwrap();
        let plain = Fdbscan::default().run(&pts, params).unwrap();
        let early = Fdbscan::with_early_exit().run(&pts, params).unwrap();
        assert!(
            (early.counters.core_identification.prim_tests as f64)
                < 0.5 * plain.counters.core_identification.prim_tests as f64,
            "early {} vs plain {}",
            early.counters.core_identification.prim_tests,
            plain.counters.core_identification.prim_tests
        );
    }

    #[test]
    fn all_noise_when_min_pts_unreachable() {
        let pts = blobs(20);
        let params = DbscanParams::new(0.5, 500).unwrap();
        let r = Fdbscan::default().run(&pts, params).unwrap();
        assert_eq!(r.clustering.num_clusters(), 0);
        assert_eq!(r.clustering.noise_count(), pts.len());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let params = DbscanParams::new(1.0, 2).unwrap();
        let empty = Fdbscan::default().run(&[], params).unwrap();
        assert!(empty.clustering.is_empty());
        let single = Fdbscan::default().run(&[Point3::ORIGIN], params).unwrap();
        assert_eq!(single.clustering.labels, vec![NOISE]);
    }

    #[test]
    fn reports_shader_core_path_and_phase_counters() {
        let pts = blobs(40);
        let params = DbscanParams::new(0.5, 5).unwrap();
        let r = Fdbscan::default().run(&pts, params).unwrap();
        assert_eq!(r.path, ExecutionPath::ShaderCore);
        assert!(r.counters.build.build_prims as usize == pts.len());
        assert!(r.counters.core_identification.rays as usize == pts.len());
        // One full query per core at most, plus one sampling query per core
        // when the sampled skip is tried.
        let core_count = r.clustering.core_count();
        assert!(r.counters.cluster_formation.rays as usize <= pts.len() + core_count);
        assert!(r.counters.cluster_formation.union_ops > 0);
        assert!(r.device_bytes > 0);
        assert_eq!(r.clustering.len(), pts.len());
    }

    #[test]
    fn names_distinguish_early_exit() {
        assert_eq!(Fdbscan::default().name(), "FDBSCAN");
        assert_eq!(Fdbscan::with_early_exit().name(), "FDBSCAN-EarlyExit");
    }
}
