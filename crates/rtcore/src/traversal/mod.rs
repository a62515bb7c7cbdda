//! Counted, stack-based BVH traversal.
//!
//! This is the software stand-in for the hardware traversal the RT cores
//! perform: given a ray, walk the hierarchy, test bounding boxes, and invoke
//! a callback for every primitive whose leaf AABB the ray reached.  The
//! callback plays the role of the OptiX *Intersection program* — it decides
//! whether the primitive is really hit (bounding boxes are conservative,
//! Section III-C / Algorithm 2 Line 6) and whether traversal should continue.
//!
//! Every step of the traversal is recorded in a [`WorkCounters`] so the
//! device cost model can charge it to either the RT-core or the shader-core
//! execution path.
//!
//! This module walks the *binary* tree one ray at a time and serves as the
//! correctness oracle; the [`batch`] submodule provides the wide (BVH4)
//! single-ray and ray-packet engines that the RT device path uses by
//! default.

pub mod batch;
pub mod order;
pub mod scratch;

pub use batch::{collect_sphere_hits_csr, traverse_batch_with_scratch};
pub(crate) use batch::{traverse_batch_runs, traverse_wide, LeafVisit};
pub(crate) use order::{launch_order, LaunchOrder};
pub use order::{QueryOrder, ReorderScratch};
pub use scratch::{PoolGuard, ScratchPool, TraversalScratch};

use crate::bvh::{Bvh, NodeKind};
use crate::geometry::{Ray, Sphere};
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;

/// Where per-node visit events go.  The engines are generic over the sink
/// and monomorphised with [`NoSink`] on every public entry point, so the
/// disabled case compiles to exactly the pre-telemetry code — no branch,
/// no call, no extra state in the hot loop.  The profiling backends pass a
/// [`crate::telemetry::NodeHeatmap`] reference instead.
pub(crate) trait VisitSink: Copy {
    /// One node visit (the same event the `node_visits` /
    /// `wide_node_visits` counters charge).
    fn visit(self, node: u32);
}

/// The no-op sink: inlines to nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NoSink;

impl VisitSink for NoSink {
    #[inline(always)]
    fn visit(self, _node: u32) {}
}

impl VisitSink for &crate::telemetry::NodeHeatmap {
    #[inline]
    fn visit(self, node: u32) {
        self.record(node);
    }
}

/// Decision returned by a primitive callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// Keep traversing; more primitives may be reported.
    Continue,
    /// Stop traversal for this ray (the early-exit optimisation FDBSCAN uses
    /// and the AnyHit program can request in OptiX).
    Terminate,
}

/// Outcome of a single-ray traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversalOutcome {
    /// True if the callback requested early termination.
    pub terminated_early: bool,
    /// Number of primitives for which the callback was invoked.
    pub primitives_visited: u64,
}

/// Traverse `bvh` with `ray`, invoking `on_primitive` for every primitive in
/// every leaf whose bounds the ray intersects.
///
/// Work performed (node visits, AABB tests, intersection-program
/// invocations) is accumulated into `counters`.  The callback is expected to
/// perform — and count — its own exact distance test, mirroring the structure
/// of the paper's Intersection program.
pub fn traverse<F>(
    bvh: &Bvh,
    ray: &Ray,
    counters: &mut WorkCounters,
    on_primitive: F,
) -> TraversalOutcome
where
    F: FnMut(&Sphere, &mut WorkCounters) -> Traversal,
{
    let mut stack: Vec<u32> = Vec::with_capacity(64);
    traverse_on_stack(bvh, ray, &mut stack, counters, NoSink, on_primitive)
}

/// [`traverse`] reusing the node stack of a caller-held
/// [`TraversalScratch`] — zero allocations once the stack has grown to the
/// tree's depth — with a node-visit sink for the heatmap profiler.  Hits,
/// traversal order and counted work are identical to the one-shot entry
/// point.
pub(crate) fn traverse_with_scratch_sink<S, F>(
    bvh: &Bvh,
    ray: &Ray,
    scratch: &mut TraversalScratch,
    counters: &mut WorkCounters,
    sink: S,
    on_primitive: F,
) -> TraversalOutcome
where
    S: VisitSink,
    F: FnMut(&Sphere, &mut WorkCounters) -> Traversal,
{
    traverse_on_stack(
        bvh,
        ray,
        &mut scratch.node_stack,
        counters,
        sink,
        on_primitive,
    )
}

/// Shared body of [`traverse`] / [`traverse_with_scratch_sink`] over a
/// caller-provided node stack.
fn traverse_on_stack<S, F>(
    bvh: &Bvh,
    ray: &Ray,
    stack: &mut Vec<u32>,
    counters: &mut WorkCounters,
    sink: S,
    mut on_primitive: F,
) -> TraversalOutcome
where
    S: VisitSink,
    F: FnMut(&Sphere, &mut WorkCounters) -> Traversal,
{
    let mut outcome = TraversalOutcome {
        terminated_early: false,
        primitives_visited: 0,
    };
    if bvh.nodes.is_empty() {
        return outcome;
    }

    // Root test.
    sat_bump(&mut counters.aabb_tests, 1);
    if !bvh.nodes[0].bounds.intersects_ray(ray) {
        return outcome;
    }

    stack.clear();
    stack.push(0);

    'outer: while let Some(idx) = stack.pop() {
        let node = &bvh.nodes[idx as usize];
        sat_bump(&mut counters.node_visits, 1);
        sink.visit(idx);
        match node.kind {
            NodeKind::Internal { left, right } => {
                for child in [left, right] {
                    sat_bump(&mut counters.aabb_tests, 1);
                    if bvh.nodes[child as usize].bounds.intersects_ray(ray) {
                        stack.push(child);
                    }
                }
            }
            NodeKind::Leaf {
                first_prim,
                prim_count,
            } => {
                let first = first_prim as usize;
                let count = prim_count as usize;
                for prim in &bvh.primitives[first..first + count] {
                    sat_bump(&mut counters.prim_tests, 1);
                    outcome.primitives_visited += 1;
                    if on_primitive(prim, counters) == Traversal::Terminate {
                        outcome.terminated_early = true;
                        break 'outer;
                    }
                }
            }
        }
    }
    outcome
}

/// Convenience query used by tests and the high-level search API: return the
/// `point_index` of every sphere that the ray actually hits (exact sphere
/// test, not just AABB overlap), excluding `exclude_index` (the
/// self-intersection filter of Algorithm 2, Line 6).
pub fn collect_sphere_hits(
    bvh: &Bvh,
    ray: &Ray,
    exclude_index: Option<u32>,
    counters: &mut WorkCounters,
) -> Vec<u32> {
    let mut hits = Vec::new();
    traverse(bvh, ray, counters, |sphere, counters| {
        sat_bump(&mut counters.dist_comps, 1);
        if sphere.intersects_ray(ray) && Some(sphere.point_index) != exclude_index {
            hits.push(sphere.point_index);
        }
        Traversal::Continue
    });
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::{spheres_from_points, BvhBuilder, LbvhBuilder, SahBuilder};
    use crate::geometry::Point3;

    fn line_points(n: usize, spacing: f32) -> Vec<Point3> {
        (0..n)
            .map(|i| Point3::new(i as f32 * spacing, 0.0, 0.0))
            .collect()
    }

    /// Brute-force reference for fixed-radius neighbours.
    fn brute_force(points: &[Point3], q: usize, radius: f32) -> Vec<u32> {
        let mut out: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|&(i, p)| i != q && points[q].distance_squared(*p) <= radius * radius)
            .map(|(i, _)| i as u32)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn traversal_matches_brute_force_for_every_builder() {
        let points = line_points(200, 0.35);
        let radius = 1.0;
        let builders: Vec<Box<dyn BvhBuilder>> = vec![
            Box::new(SahBuilder::default()),
            Box::new(LbvhBuilder::default()),
        ];
        for builder in builders {
            let bvh = builder.build(spheres_from_points(&points, radius)).unwrap();
            for q in [0usize, 17, 99, 199] {
                let ray = Ray::epsilon_ray(points[q]);
                let mut counters = WorkCounters::ZERO;
                let mut hits = collect_sphere_hits(&bvh, &ray, Some(q as u32), &mut counters);
                hits.sort_unstable();
                assert_eq!(
                    hits,
                    brute_force(&points, q, radius),
                    "builder {:?}, query {q}",
                    builder.kind()
                );
                assert!(counters.node_visits > 0);
                assert!(counters.prim_tests > 0);
            }
        }
    }

    #[test]
    fn ray_outside_scene_touches_nothing() {
        let points = line_points(50, 1.0);
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&points, 0.4))
            .unwrap();
        let ray = Ray::epsilon_ray(Point3::new(1000.0, 1000.0, 0.0));
        let mut counters = WorkCounters::ZERO;
        let hits = collect_sphere_hits(&bvh, &ray, None, &mut counters);
        assert!(hits.is_empty());
        // The root AABB test rejects the ray immediately.
        assert_eq!(counters.node_visits, 0);
        assert_eq!(counters.aabb_tests, 1);
    }

    #[test]
    fn early_termination_stops_traversal() {
        let points = line_points(100, 0.1); // everything within radius of everything
        let bvh = SahBuilder::default()
            .build(spheres_from_points(&points, 100.0))
            .unwrap();
        let ray = Ray::epsilon_ray(points[50]);

        let mut full = WorkCounters::ZERO;
        let outcome_full = traverse(&bvh, &ray, &mut full, |_, _| Traversal::Continue);
        assert!(!outcome_full.terminated_early);
        assert_eq!(outcome_full.primitives_visited, 100);

        let mut limited = WorkCounters::ZERO;
        let mut seen = 0;
        let outcome_limited = traverse(&bvh, &ray, &mut limited, |_, _| {
            seen += 1;
            if seen >= 5 {
                Traversal::Terminate
            } else {
                Traversal::Continue
            }
        });
        assert!(outcome_limited.terminated_early);
        assert_eq!(outcome_limited.primitives_visited, 5);
        assert!(limited.prim_tests < full.prim_tests);
        assert!(limited.node_visits <= full.node_visits);
    }

    #[test]
    fn pruning_reduces_work_versus_scanning_all_leaves() {
        // Widely spread points with a small radius: traversal should touch a
        // small fraction of the primitives.
        let points = line_points(4096, 10.0);
        let bvh = SahBuilder::default()
            .build(spheres_from_points(&points, 1.0))
            .unwrap();
        let ray = Ray::epsilon_ray(points[2048]);
        let mut counters = WorkCounters::ZERO;
        let hits = collect_sphere_hits(&bvh, &ray, Some(2048), &mut counters);
        assert!(hits.is_empty()); // spacing 10 > radius 1, no neighbours
        assert!(
            counters.prim_tests < 64,
            "expected heavy pruning, got {} primitive tests",
            counters.prim_tests
        );
    }

    #[test]
    fn empty_bvh_traversal_is_a_noop() {
        let bvh = Bvh {
            nodes: vec![],
            primitives: vec![],
            builder: crate::bvh::BuilderKind::Lbvh,
            build_counters: WorkCounters::ZERO,
        };
        let mut counters = WorkCounters::ZERO;
        let outcome = traverse(
            &bvh,
            &Ray::epsilon_ray(Point3::ORIGIN),
            &mut counters,
            |_, _| Traversal::Continue,
        );
        assert_eq!(outcome.primitives_visited, 0);
        assert_eq!(counters, WorkCounters::ZERO);
    }

    #[test]
    fn counters_accumulate_across_queries() {
        let points = line_points(100, 0.5);
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&points, 1.0))
            .unwrap();
        let mut counters = WorkCounters::ZERO;
        for (i, &p) in points.iter().enumerate() {
            collect_sphere_hits(&bvh, &Ray::epsilon_ray(p), Some(i as u32), &mut counters);
        }
        assert!(counters.prim_tests >= 100);
        assert!(counters.dist_comps >= 100);
        assert!(counters.node_visits > counters.rays);
    }
}
