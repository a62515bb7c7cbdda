//! Bounding Volume Hierarchies.
//!
//! The RT cores "intelligently build a Bounding Volume Hierarchy"
//! (Section II-B1 of the paper); this module provides the software
//! equivalents used by the simulator:
//!
//! * [`LbvhBuilder`] — the GPU-style fast builder: primitives are sorted
//!   along a Morton curve and the hierarchy is emitted from the sorted
//!   order.  This is what the baseline FDBSCAN-style traversal uses.
//! * [`SahBuilder`] — a binned Surface Area Heuristic builder, the
//!   "high-quality" builder used for the RT device path (OptiX builds its
//!   acceleration structure with quality heuristics the user cannot see).
//! * [`compact_coincident`] — the primitive-compaction pass the RT path applies before
//!   building: exactly coincident sphere centres are merged into a single
//!   primitive with a multiplicity count.
//! * [`wide`] — the BVH4 layout real RT cores traverse: any binary tree from
//!   the builders above collapses into SoA wide nodes
//!   ([`WideBvh::from_binary`]) consumed by the batched traversal engine in
//!   [`crate::traversal::batch`].
//! * [`tlas`] — two-level scenes: Morton-range shard planning plus the
//!   top-level BVH whose leaves are shard instances, each owning a
//!   bottom-level BVH built by the machinery above.
//!
//! All builders produce the same flat [`Bvh`] representation and report the
//! work they performed through [`crate::hardware::WorkCounters`].
//!
//! A BVH index build encodes and radix-sorts its input points along the
//! Morton curve once.  Compaction groups the runs of equal codes in that
//! order, and the LBVH emitter and the shard planner take the sorted
//! representatives and their codes from it without sorting again; SAH takes
//! the representatives in ascending point order.

pub(crate) mod build;
mod compact;
mod node;
pub mod refit;
pub mod tlas;
mod validate;
pub mod wide;

pub use build::{BuildParallelism, BuilderKind, BvhBuilder, LbvhBuilder, SahBuilder};
pub use compact::{compact_coincident, CompactionResult};
pub use node::{Bvh, BvhNode, NodeKind};
pub use refit::{remove_points, RefitStats};
pub use tlas::{
    plan_shards, plan_shards_with, ShardPlan, ShardingConfig, Tlas, TlasNode, TlasNodeKind,
};
pub use validate::{validate, BvhInvariantError};
pub use wide::{
    validate_wide, PrimLanes, WideBvh, WideChild, WideInvariantError, WideNode, WIDE_BRANCHING,
};

use crate::error::Result;
use crate::geometry::{Point3, Sphere};

/// Convenience: wrap every point in an ε-sphere primitive (the input
/// transformation of Section III-B) without compaction.
pub fn spheres_from_points(points: &[Point3], radius: f32) -> Vec<Sphere> {
    points
        .iter()
        .enumerate()
        .map(|(i, &p)| Sphere::new(p, radius, i as u32))
        .collect()
}

/// Build a BVH over raw points using the given builder.
///
/// This is the common entry point used by the query layer and by the DBSCAN
/// implementations: it performs the sphere expansion and delegates to the
/// builder.
pub fn build_over_points<B: BvhBuilder + ?Sized>(
    builder: &B,
    points: &[Point3],
    radius: f32,
) -> Result<Bvh> {
    builder.build(spheres_from_points(points, radius))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spheres_from_points_preserves_indices_and_radius() {
        let pts = vec![Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 2.0, 3.0)];
        let spheres = spheres_from_points(&pts, 0.5);
        assert_eq!(spheres.len(), 2);
        assert_eq!(spheres[0].point_index, 0);
        assert_eq!(spheres[1].point_index, 1);
        assert!(spheres.iter().all(|s| s.radius == 0.5));
        assert!(spheres.iter().all(|s| s.multiplicity == 1));
        assert_eq!(spheres[1].center, pts[1]);
    }

    #[test]
    fn build_over_points_produces_valid_tree() {
        let pts: Vec<Point3> = (0..100)
            .map(|i| Point3::new(i as f32 * 0.3, (i % 7) as f32, 0.0))
            .collect();
        let bvh = build_over_points(&LbvhBuilder::default(), &pts, 0.2).unwrap();
        validate(&bvh).unwrap();
        assert_eq!(bvh.primitives.len(), 100);
    }
}
