//! RT-DBSCAN — the paper's contribution.
//!
//! RT-DBSCAN re-expresses DBSCAN's fixed-radius neighbour searches as ray
//! tracing queries so that the BVH build and traversal can run on RT cores:
//!
//! 1. **Input transformation** (Section III-B): every data point becomes a
//!    solid sphere of radius ε.  The device builder also performs primitive
//!    compaction, merging exactly coincident centres into one sphere with a
//!    multiplicity count (see `rtcore::bvh::compact`).
//! 2. **Stage 1 — core-point identification** (Algorithm 3, lines 1–6): one
//!    infinitesimal ray is launched per point; the Intersection program
//!    counts how many spheres contain the ray origin.  Points with at least
//!    `minPts` neighbours are core points.
//! 3. **Stage 2 — cluster formation** (Algorithm 3, lines 7–18): one ray per
//!    core point; core neighbours merge through a parallel Union-Find and
//!    each border point is claimed atomically for its lowest-index core
//!    neighbour (the paper's critical section), so labels do not depend on
//!    thread timing.  Neighbour lists are never materialised — the distance
//!    work is simply recomputed, which is what keeps the memory footprint
//!    minimal.
//!
//! Both stages are the shared two-stage driver in `stages` and run over
//! *any* backend ([`RtDbscan::run_on`]): the default is the wide (BVH4)
//! batched index — the layout real RT cores walk — with the binary BVH
//! index as the traversal oracle, but the same two stages execute unchanged
//! over a two-level sharded scene, a uniform grid or a brute-force scan.
//! The per-candidate work accounting (one `dist_comps` per
//! Intersection-program invocation, AnyHit bounces for the triangle
//! ablation) lives in the backend and is bit-identical to the pre-redesign
//! pipeline launches.

use crate::params::DbscanParams;
use crate::runner::{timed, DbscanAlgorithm, RunResult};
use crate::stages;
use rtcore::bvh::BuilderKind;
use rtcore::fault::CancelScope;
use rtcore::geometry::Point3;
use rtcore::hardware::ExecutionPath;
use rtcore::index::{GeometryKind, IndexKind, NeighborIndex, NeighborIndexBuilder};
use rtcore::{Error, Result};

/// Configuration of RT-DBSCAN.
#[derive(Debug, Clone, Copy)]
pub struct RtDbscan {
    /// Merge exactly coincident points into one primitive at build time.
    /// This is part of the (simulated) device builder; disabling it is an
    /// ablation knob, not something the OptiX user controls.
    pub compaction: bool,
    /// Which builder the device uses for its acceleration structure.
    pub builder: BuilderKind,
    /// How the ε-spheres are presented to the hardware.
    /// [`GeometryKind::TriangleSpheres`] reproduces the Section VI-C
    /// ablation (2–5× slower because of AnyHit overhead).
    pub geometry: GeometryKind,
    /// Launches smaller than this run sequentially instead of through the
    /// parallel launch.  Benches sweep it to locate the
    /// sequential-vs-parallel crossover.
    pub min_parallel_launch: usize,
    /// Which BVH backend both stages launch on.  Defaults to
    /// [`IndexKind::WideBatched`] — the BVH4 layout real RT cores walk; the
    /// binary BVH remains selectable as the oracle
    /// ([`RtDbscan::with_binary_traversal`]).  BVH kinds only: the other
    /// backends run the same stages through [`RtDbscan::run_on`].
    pub traversal: IndexKind,
}

impl Default for RtDbscan {
    fn default() -> Self {
        RtDbscan {
            compaction: true,
            builder: BuilderKind::BinnedSah,
            geometry: GeometryKind::CustomSpheres,
            min_parallel_launch: NeighborIndexBuilder::new(IndexKind::WideBatched)
                .min_parallel_launch,
            traversal: IndexKind::WideBatched,
        }
    }
}

impl RtDbscan {
    /// The triangle-tessellation ablation of Section VI-C: spheres are
    /// approximated with `triangles_per_sphere` triangles so the hardware
    /// triangle unit can be used, at the price of one AnyHit call per hit.
    pub fn with_triangle_geometry(triangles_per_sphere: u32) -> Self {
        RtDbscan {
            geometry: GeometryKind::TriangleSpheres {
                triangles_per_sphere,
            },
            ..RtDbscan::default()
        }
    }

    /// RT-DBSCAN without the device-side primitive compaction (ablation).
    pub fn without_compaction() -> Self {
        RtDbscan {
            compaction: false,
            ..RtDbscan::default()
        }
    }

    /// RT-DBSCAN on the one-ray-at-a-time binary traversal — the oracle the
    /// wide batched default is verified against.
    pub fn with_binary_traversal() -> Self {
        RtDbscan {
            traversal: IndexKind::BinaryBvh,
            ..RtDbscan::default()
        }
    }

    /// The neighbour-index configuration this algorithm builds by default:
    /// a BVH index (wide batched or binary, per
    /// [`RtDbscan::traversal`]) with the configured device builder,
    /// compaction pass and geometry presentation.
    pub fn index_builder(&self) -> NeighborIndexBuilder {
        NeighborIndexBuilder {
            kind: self.traversal,
            bvh_builder: self.builder,
            compaction: self.compaction,
            geometry: self.geometry,
            min_parallel_launch: self.min_parallel_launch,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        }
    }

    /// Run both clustering stages over an already-built neighbour index.
    ///
    /// The build phase of the returned result carries the index's build
    /// counters and zero wall-clock time (the caller built the index and
    /// owns its timing); the execution path is the RT cores when the
    /// backend is BVH-backed, the shader cores otherwise.
    pub fn run_on(
        &self,
        index: &dyn NeighborIndex,
        points: &[Point3],
        params: DbscanParams,
    ) -> Result<RunResult> {
        let path = Self::path_on(index);
        stages::run_two_stage(index, points, params, false, path, &CancelScope::none())
    }

    /// The execution path RT-DBSCAN's work over `index` is charged to: the
    /// RT cores when the backend is BVH-backed, the shader cores otherwise.
    pub(crate) fn path_on(index: &dyn NeighborIndex) -> ExecutionPath {
        if index.capabilities().rt_core {
            ExecutionPath::RtCore
        } else {
            ExecutionPath::ShaderCore
        }
    }
}

impl DbscanAlgorithm for RtDbscan {
    fn name(&self) -> &'static str {
        match self.geometry {
            GeometryKind::CustomSpheres => {
                if self.compaction {
                    "RT-DBSCAN"
                } else {
                    "RT-DBSCAN (no compaction)"
                }
            }
            GeometryKind::TriangleSpheres { .. } => "RT-DBSCAN (triangles)",
        }
    }

    fn run(&self, points: &[Point3], params: DbscanParams) -> Result<RunResult> {
        params.validate()?;
        if !self.traversal.is_bvh() {
            return Err(Error::InvalidConfig(format!(
                "RT-DBSCAN traverses a BVH, not the {} index (use run_on for other backends)",
                self.traversal.name()
            )));
        }
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
    use crate::fdbscan::Fdbscan;
    use crate::metrics::same_clustering;
    use rtcore::hardware::{ExecutionPath, WorkCounters};

    /// The engine-level session the removed `RtDbscanSession` shim used to
    /// wrap: default RT-DBSCAN configuration, any `minPts` per cluster call.
    fn rt_session(pts: &[Point3], eps: f32) -> crate::engine::ClusterSession {
        crate::engine::ClusterEngine::builder()
            .eps(eps)
            .min_pts(1)
            .build()
            .unwrap()
            .session(pts)
            .unwrap()
    }

    fn blobs_with_noise() -> Vec<Point3> {
        let mut pts = Vec::new();
        for c in 0..4 {
            let cx = (c % 2) as f32 * 15.0;
            let cy = (c / 2) as f32 * 15.0;
            for i in 0..50 {
                let a = i as f32 * 0.251;
                let r = 0.9 * ((i % 11) as f32 / 11.0);
                pts.push(Point3::new_2d(cx + r * a.cos(), cy + r * a.sin()));
            }
        }
        for i in 0..10 {
            pts.push(Point3::new_2d(7.5, 3.0 + i as f32));
        }
        pts
    }

    #[test]
    fn matches_classic_dbscan() {
        let pts = blobs_with_noise();
        let params = DbscanParams::new(0.5, 5).unwrap();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        let rt = RtDbscan::default().run(&pts, params).unwrap().clustering;
        assert_eq!(reference.core, rt.core);
        assert!(same_clustering(&reference, &rt, &pts, params));
        assert_eq!(reference.num_clusters(), rt.num_clusters());
    }

    #[test]
    fn matches_fdbscan_baseline() {
        let pts = blobs_with_noise();
        for (eps, min_pts) in [(0.4, 3), (0.8, 10), (2.0, 4)] {
            let params = DbscanParams::new(eps, min_pts).unwrap();
            let fd = Fdbscan::default().run(&pts, params).unwrap().clustering;
            let rt = RtDbscan::default().run(&pts, params).unwrap().clustering;
            assert_eq!(fd.core, rt.core, "eps={eps} min_pts={min_pts}");
            assert!(
                same_clustering(&fd, &rt, &pts, params),
                "eps={eps} min_pts={min_pts}"
            );
        }
    }

    #[test]
    fn handles_heavily_duplicated_points() {
        // 30 copies of each of 5 locations plus a separate sparse line.
        let mut pts = Vec::new();
        for loc in 0..5 {
            for _ in 0..30 {
                pts.push(Point3::new_2d(loc as f32 * 0.2, 0.0));
            }
        }
        for i in 0..20 {
            pts.push(Point3::new_2d(100.0 + i as f32 * 5.0, 0.0));
        }
        let params = DbscanParams::new(0.5, 10).unwrap();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        let rt = RtDbscan::default().run(&pts, params).unwrap();
        assert_eq!(reference.core, rt.clustering.core);
        assert!(same_clustering(&reference, &rt.clustering, &pts, params));
        // Compaction must have merged the duplicates.
        assert!(rt.counters.build.compaction_merges > 0);
    }

    #[test]
    fn compaction_reduces_intersection_calls_on_duplicated_data() {
        let mut pts = Vec::new();
        for loc in 0..20 {
            for _ in 0..50 {
                pts.push(Point3::new_2d(loc as f32, (loc % 3) as f32));
            }
        }
        let params = DbscanParams::new(0.1, 100).unwrap();
        let with = RtDbscan::default().run(&pts, params).unwrap();
        let without = RtDbscan::without_compaction().run(&pts, params).unwrap();
        assert_eq!(with.clustering.core, without.clustering.core);
        assert!(
            with.counters.core_identification.prim_tests * 5
                < without.counters.core_identification.prim_tests,
            "with {} vs without {}",
            with.counters.core_identification.prim_tests,
            without.counters.core_identification.prim_tests
        );
    }

    #[test]
    fn triangle_geometry_gives_same_clusters_but_more_work() {
        let pts = blobs_with_noise();
        let params = DbscanParams::new(0.5, 5).unwrap();
        let spheres = RtDbscan::default().run(&pts, params).unwrap();
        let triangles = RtDbscan::with_triangle_geometry(20)
            .run(&pts, params)
            .unwrap();
        assert_eq!(spheres.clustering.core, triangles.clustering.core);
        assert!(same_clustering(
            &spheres.clustering,
            &triangles.clustering,
            &pts,
            params
        ));
        assert_eq!(spheres.counters.total().anyhit_invocations, 0);
        assert!(triangles.counters.total().anyhit_invocations > 0);
    }

    #[test]
    fn reports_rt_core_path_and_build_breakdown() {
        let pts = blobs_with_noise();
        let params = DbscanParams::new(0.5, 5).unwrap();
        let r = RtDbscan::default().run(&pts, params).unwrap();
        assert_eq!(r.path, ExecutionPath::RtCore);
        assert_eq!(r.counters.build.build_prims as usize, pts.len());
        assert_eq!(r.counters.core_identification.rays as usize, pts.len());
        assert!(r.counters.cluster_formation.union_ops > 0);
        assert!(r.device_bytes > 0);
    }

    #[test]
    fn empty_input_and_all_noise() {
        let params = DbscanParams::new(0.5, 5).unwrap();
        let empty = RtDbscan::default().run(&[], params).unwrap();
        assert!(empty.clustering.is_empty());

        let sparse: Vec<Point3> = (0..50)
            .map(|i| Point3::new_2d(i as f32 * 10.0, 0.0))
            .collect();
        let r = RtDbscan::default().run(&sparse, params).unwrap();
        assert_eq!(r.clustering.num_clusters(), 0);
        assert_eq!(r.clustering.noise_count(), 50);
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(RtDbscan::default().name(), "RT-DBSCAN");
        assert_eq!(
            RtDbscan::without_compaction().name(),
            "RT-DBSCAN (no compaction)"
        );
        assert_eq!(
            RtDbscan::with_triangle_geometry(12).name(),
            "RT-DBSCAN (triangles)"
        );
    }

    #[test]
    fn session_matches_one_shot_runs_for_every_min_pts() {
        let pts = blobs_with_noise();
        let session = rt_session(&pts, 0.5);
        for min_pts in [2usize, 5, 20, 500] {
            let params = DbscanParams::new(0.5, min_pts).unwrap();
            let one_shot = RtDbscan::default().run(&pts, params).unwrap().clustering;
            let reused = session.cluster(min_pts).unwrap().clustering;
            assert_eq!(one_shot.core, reused.core, "minPts={min_pts}");
            assert!(
                same_clustering(&one_shot, &reused, &pts, params),
                "minPts={min_pts}"
            );
            assert_eq!(session.core_count_for(min_pts), reused.core_count());
        }
    }

    #[test]
    fn session_reuse_skips_stage_one_work() {
        let pts = blobs_with_noise();
        let session = rt_session(&pts, 0.5);
        let run = session.cluster(5).unwrap();
        assert_eq!(run.counters.build, WorkCounters::ZERO);
        assert_eq!(run.counters.core_identification, WorkCounters::ZERO);
        assert!(run.counters.cluster_formation.rays > 0);
        let (setup_counters, _) = session.setup_cost();
        assert!(setup_counters.build.build_prims > 0);
        assert_eq!(setup_counters.core_identification.rays as usize, pts.len());
    }

    #[test]
    fn session_neighbor_counts_match_brute_force() {
        let pts = blobs_with_noise();
        let eps = 0.5f32;
        let session = rt_session(&pts, eps);
        for (i, &count) in session.neighbor_counts().iter().enumerate().step_by(17) {
            // Closed-ball convention on squared f32 distances — the single
            // boundary rule every implementation in the workspace shares.
            let expected = pts
                .iter()
                .enumerate()
                .filter(|&(j, q)| j != i && pts[i].distance_squared(*q) <= eps * eps)
                .count() as u64;
            assert_eq!(count, expected, "point {i}");
        }
    }

    #[test]
    fn session_parameter_helpers() {
        let pts = blobs_with_noise();
        let session = rt_session(&pts, 0.5);
        assert_eq!(session.len(), pts.len());
        assert!(!session.is_empty());
        assert_eq!(session.eps(), 0.5);
        let min_pts_half = session.min_pts_for_core_fraction(0.5);
        let cores = session.core_count_for(min_pts_half);
        assert!(cores >= pts.len() / 2, "{cores} of {}", pts.len());
        // An empty session behaves sanely.
        let empty = rt_session(&[], 0.5);
        assert!(empty.is_empty());
        assert_eq!(empty.min_pts_for_core_fraction(0.5), 1);
        assert!(empty.cluster(3).unwrap().clustering.is_empty());
    }

    #[test]
    fn session_rejects_invalid_parameters() {
        let pts = blobs_with_noise();
        assert!(crate::engine::ClusterEngine::builder()
            .eps(-1.0)
            .min_pts(1)
            .build()
            .is_err());
        let session = rt_session(&pts, 0.5);
        assert!(session.cluster(0).is_err());
    }

    #[test]
    fn min_parallel_launch_is_plumbed_through_and_result_invariant() {
        let pts = blobs_with_noise();
        let params = DbscanParams::new(0.5, 5).unwrap();
        // Force the all-sequential and all-parallel launch paths.
        let sequential = RtDbscan {
            min_parallel_launch: usize::MAX,
            ..RtDbscan::default()
        };
        let parallel = RtDbscan {
            min_parallel_launch: 0,
            ..RtDbscan::default()
        };
        assert_eq!(sequential.index_builder().min_parallel_launch, usize::MAX);
        assert_eq!(parallel.index_builder().min_parallel_launch, 0);
        assert_eq!(
            RtDbscan::default().index_builder().min_parallel_launch,
            NeighborIndexBuilder::new(IndexKind::WideBatched).min_parallel_launch
        );

        let seq_run = sequential.run(&pts, params).unwrap();
        let par_run = parallel.run(&pts, params).unwrap();
        // The launch path is an execution detail: clusterings, core flags
        // and traversal counters must be identical.
        assert_eq!(seq_run.clustering.core, par_run.clustering.core);
        assert!(same_clustering(
            &seq_run.clustering,
            &par_run.clustering,
            &pts,
            params
        ));
        assert_eq!(
            seq_run.counters.core_identification,
            par_run.counters.core_identification
        );
        assert_eq!(
            seq_run.counters.core_identification.rays as usize,
            pts.len()
        );
    }

    #[test]
    fn wide_batched_default_matches_binary_oracle_and_charges_fewer_node_visits() {
        let pts = blobs_with_noise();
        let params = DbscanParams::new(0.5, 5).unwrap();
        assert_eq!(RtDbscan::default().traversal, IndexKind::WideBatched);
        let wide = RtDbscan::default().run(&pts, params).unwrap();
        let binary = RtDbscan::with_binary_traversal().run(&pts, params).unwrap();

        // Identical queries …
        assert_eq!(
            wide.counters.core_identification.rays,
            binary.counters.core_identification.rays
        );
        assert_eq!(
            wide.counters.core_identification.dist_comps,
            binary.counters.core_identification.dist_comps
        );
        // … identical answers …
        assert_eq!(wide.clustering.core, binary.clustering.core);
        assert!(same_clustering(
            &wide.clustering,
            &binary.clustering,
            &pts,
            params
        ));
        // … disjoint node-visit accounting …
        assert_eq!(wide.counters.core_identification.node_visits, 0);
        assert!(wide.counters.core_identification.wide_node_visits > 0);
        assert!(wide.counters.core_identification.batched_launches > 0);
        assert_eq!(binary.counters.core_identification.wide_node_visits, 0);
        // … and a strictly cheaper simulated node-visit bill for the wide
        // batched engine.
        use rtcore::hardware::CostProfile;
        let profile = CostProfile::rt_core();
        let charge = |c: &rtcore::hardware::WorkCounters| {
            c.node_visits as f64 * profile.node_visit_ns
                + c.wide_node_visits as f64 * profile.wide_visit_ns()
        };
        assert!(
            charge(&wide.counters.core_identification)
                < charge(&binary.counters.core_identification),
            "wide {} vs binary {}",
            charge(&wide.counters.core_identification),
            charge(&binary.counters.core_identification)
        );
    }

    #[test]
    fn lbvh_builder_variant_is_still_correct() {
        let pts = blobs_with_noise();
        let params = DbscanParams::new(0.5, 5).unwrap();
        let alt = RtDbscan {
            builder: BuilderKind::Lbvh,
            ..RtDbscan::default()
        };
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        let rt = alt.run(&pts, params).unwrap().clustering;
        assert_eq!(reference.core, rt.core);
        assert!(same_clustering(&reference, &rt, &pts, params));
    }

    #[test]
    fn run_on_accepts_any_backend() {
        let pts = blobs_with_noise();
        let params = DbscanParams::new(0.5, 5).unwrap();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        for kind in IndexKind::ALL {
            let index = NeighborIndexBuilder::new(kind)
                .build(&pts, params.eps)
                .unwrap();
            let run = RtDbscan::default()
                .run_on(index.as_ref(), &pts, params)
                .unwrap();
            assert_eq!(reference.core, run.clustering.core, "{kind:?}");
            assert!(
                same_clustering(&reference, &run.clustering, &pts, params),
                "{kind:?}"
            );
            let expected_path = if kind.is_bvh() {
                ExecutionPath::RtCore
            } else {
                ExecutionPath::ShaderCore
            };
            assert_eq!(run.path, expected_path, "{kind:?}");
            // `run` itself builds a BVH and refuses any other traversal.
            let own = RtDbscan {
                traversal: kind,
                ..RtDbscan::without_compaction()
            }
            .run(&pts, params);
            assert_eq!(own.is_ok(), kind.is_bvh(), "{kind:?}");
        }
    }
}
