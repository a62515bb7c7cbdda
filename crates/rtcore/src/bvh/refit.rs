//! In-place binary BVH refit: the cheap branch of a streaming update
//! policy.
//!
//! Production ray tracers rarely rebuild an acceleration structure from
//! scratch on every scene change; they *refit* — patch primitives in place
//! and recompute node bounds bottom-up.  OptiX exposes exactly this pair of
//! operations (`OPTIX_BUILD_OPERATION_UPDATE` vs a fresh build).
//! [`remove_points`] is the software equivalent for the binary sphere
//! scenes of the RT-DBSCAN reproduction: it deletes primitives (points
//! sliding out of a streaming window) by compacting leaf ranges in place,
//! then refits bounds bottom-up.  No sorting, no partitioning, no node
//! allocation.  The binary oracle index ([`crate::index::BinaryBvhIndex`])
//! removes points through it; the wide scene has its own in-place removal
//! ([`crate::bvh::WideBvh::remove_points`]).
//!
//! All work is counted: node AABB recomputations are charged to
//! [`WorkCounters::refit_node_ops`] and each pass increments
//! [`WorkCounters::refits`], so refit/rebuild decisions are visible in the
//! same counter stream the device cost model consumes (a refit never pays
//! the fixed build-setup cost — that is precisely its advantage).

use crate::bvh::{Bvh, NodeKind};
use crate::geometry::Aabb;
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;

/// What one refit pass did to the tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefitStats {
    /// Nodes whose bounds were recomputed.
    pub nodes_refit: u64,
    /// Primitives physically removed from the primitive array.
    pub prims_removed: u64,
}

/// Bottom-up bounds refit.
///
/// Children are always emitted after their parent by every builder in this
/// crate, so a reverse index scan sees children before parents and a single
/// pass suffices: leaves recompute their bounds from their primitives,
/// internal nodes take the union of their (already refitted) children.
fn refit_bounds(bvh: &mut Bvh, counters: &mut WorkCounters) -> u64 {
    let mut nodes_refit = 0u64;
    for i in (0..bvh.nodes.len()).rev() {
        let bounds = match bvh.nodes[i].kind {
            NodeKind::Leaf {
                first_prim,
                prim_count,
            } => {
                let first = first_prim as usize;
                let count = prim_count as usize;
                bvh.primitives[first..first + count]
                    .iter()
                    .fold(Aabb::EMPTY, |acc, s| acc.union(&s.bounds()))
            }
            NodeKind::Internal { left, right } => bvh.nodes[left as usize]
                .bounds
                .union(&bvh.nodes[right as usize].bounds),
        };
        bvh.nodes[i].bounds = bounds;
        nodes_refit += 1;
    }
    sat_bump(&mut counters.refit_node_ops, nodes_refit);
    nodes_refit
}

/// Remove every primitive whose `point_index` satisfies `should_remove`,
/// compacting the primitive array and leaf ranges in place, then refit all
/// node bounds bottom-up.
///
/// The tree topology (node array, parent/child links) is untouched; leaves
/// that lose all primitives stay in the tree with empty bounds, which the
/// traversal's AABB test rejects for free.  Structural invariants
/// ([`crate::bvh::validate`]) are preserved.
///
/// Cost: one pass over the nodes plus one pass over the primitives — no
/// Morton sort, no SAH sweeps, no allocation beyond the compacted primitive
/// array.
pub fn remove_points<F>(bvh: &mut Bvh, should_remove: F, counters: &mut WorkCounters) -> RefitStats
where
    F: Fn(u32) -> bool,
{
    let before = bvh.primitives.len();
    // Compact primitives leaf-range by leaf-range.  Leaf ranges partition
    // the primitive array, so rewriting each leaf's survivors to a write
    // cursor in ascending first_prim order keeps ranges contiguous and
    // non-overlapping.
    let mut leaves: Vec<usize> = (0..bvh.nodes.len())
        .filter(|&i| bvh.nodes[i].is_leaf())
        .collect();
    leaves.sort_by_key(|&i| match bvh.nodes[i].kind {
        NodeKind::Leaf { first_prim, .. } => first_prim,
        NodeKind::Internal { .. } => unreachable!(),
    });

    let mut write = 0usize;
    for &leaf in &leaves {
        let (first, count) = match bvh.nodes[leaf].kind {
            NodeKind::Leaf {
                first_prim,
                prim_count,
            } => (first_prim as usize, prim_count as usize),
            NodeKind::Internal { .. } => unreachable!(),
        };
        let new_first = write;
        for read in first..first + count {
            if !should_remove(bvh.primitives[read].point_index) {
                bvh.primitives[write] = bvh.primitives[read];
                write += 1;
            }
        }
        bvh.nodes[leaf].kind = NodeKind::Leaf {
            first_prim: new_first as u32,
            prim_count: (write - new_first) as u32,
        };
    }
    bvh.primitives.truncate(write);

    let stats = RefitStats {
        nodes_refit: refit_bounds(bvh, counters),
        prims_removed: (before - write) as u64,
    };
    sat_bump(&mut counters.refits, 1);
    sat_bump(&mut counters.misc_ops, before as u64); // per-primitive liveness test
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::{spheres_from_points, validate, BvhBuilder, LbvhBuilder, SahBuilder};
    use crate::geometry::{Point3, Ray};
    use crate::traversal::collect_sphere_hits;

    fn grid_points(n_side: usize) -> Vec<Point3> {
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                pts.push(Point3::new(i as f32, j as f32, 0.0));
            }
        }
        pts
    }

    fn brute_force(points: &[(u32, Point3)], q: Point3, radius: f32) -> Vec<u32> {
        let mut out: Vec<u32> = points
            .iter()
            .filter(|&&(_, p)| p.distance_squared(q) <= radius * radius)
            .map(|&(i, _)| i)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn removal_keeps_tree_valid_and_queries_exact() {
        let pts = grid_points(20);
        let radius = 1.5;
        for builder_kind in ["lbvh", "sah"] {
            let prims = spheres_from_points(&pts, radius);
            let mut bvh = match builder_kind {
                "lbvh" => LbvhBuilder::default().build(prims).unwrap(),
                _ => SahBuilder::default().build(prims).unwrap(),
            };
            let mut counters = WorkCounters::ZERO;
            // Remove every third point.
            let stats = remove_points(&mut bvh, |i| i % 3 == 0, &mut counters);
            assert_eq!(stats.prims_removed as usize, pts.len().div_ceil(3));
            assert!(stats.nodes_refit > 0);
            assert_eq!(counters.refits, 1);
            assert!(counters.refit_node_ops > 0);
            validate(&bvh).unwrap_or_else(|e| panic!("{builder_kind}: {e}"));

            // Queries over the refitted tree must exactly match brute force
            // over the survivors.
            let survivors: Vec<(u32, Point3)> = pts
                .iter()
                .enumerate()
                .filter(|&(i, _)| i % 3 != 0)
                .map(|(i, &p)| (i as u32, p))
                .collect();
            for q in [Point3::new(3.2, 4.1, 0.0), Point3::new(10.0, 10.0, 0.0)] {
                let mut c = WorkCounters::ZERO;
                let mut hits = collect_sphere_hits(&bvh, &Ray::epsilon_ray(q), None, &mut c);
                hits.sort_unstable();
                assert_eq!(hits, brute_force(&survivors, q, radius), "{builder_kind}");
            }
        }
    }

    #[test]
    fn removing_everything_leaves_an_empty_valid_tree() {
        let pts = grid_points(8);
        let mut bvh = LbvhBuilder::default()
            .build(spheres_from_points(&pts, 0.5))
            .unwrap();
        let mut counters = WorkCounters::ZERO;
        let stats = remove_points(&mut bvh, |_| true, &mut counters);
        assert_eq!(stats.prims_removed as usize, pts.len());
        assert_eq!(bvh.primitives.len(), 0);
        validate(&bvh).unwrap();
        // A query against the emptied tree touches nothing.
        let mut c = WorkCounters::ZERO;
        let hits = collect_sphere_hits(
            &bvh,
            &Ray::epsilon_ray(Point3::new(1.0, 1.0, 0.0)),
            None,
            &mut c,
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn refit_is_much_cheaper_than_rebuild_in_counted_work() {
        let pts = grid_points(40); // 1600 points
        let prims = spheres_from_points(&pts, 0.5);
        let bvh_fresh = LbvhBuilder::default().build(prims.clone()).unwrap();
        let rebuild_ops = bvh_fresh.build_counters.build_ops();

        let mut bvh = LbvhBuilder::default().build(prims).unwrap();
        let mut counters = WorkCounters::ZERO;
        remove_points(&mut bvh, |i| i % 10 == 0, &mut counters);
        assert!(
            counters.refit_ops() * 2 < rebuild_ops,
            "refit {} vs rebuild {}",
            counters.refit_ops(),
            rebuild_ops
        );
        // And in simulated device time, where the rebuild also pays the
        // fixed setup cost.
        use crate::hardware::{DeviceModel, ExecutionPath};
        let device = DeviceModel::default();
        let refit_time = device
            .build_time(&counters, ExecutionPath::RtCore)
            .as_secs_f64();
        let rebuild_time = device
            .build_time(&bvh_fresh.build_counters, ExecutionPath::RtCore)
            .as_secs_f64();
        assert!(
            refit_time * 5.0 < rebuild_time,
            "refit {refit_time}s vs rebuild {rebuild_time}s"
        );
    }
}
