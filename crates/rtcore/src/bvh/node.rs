//! Flat BVH representation shared by every builder.

use crate::bvh::BuilderKind;
use crate::geometry::{Aabb, Sphere};
use crate::hardware::WorkCounters;

/// What a node contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An internal node with two children, stored as indices into
    /// [`Bvh::nodes`].
    Internal {
        /// Index of the left child.
        left: u32,
        /// Index of the right child.
        right: u32,
    },
    /// A leaf node owning a contiguous range of primitives in
    /// [`Bvh::primitives`].
    Leaf {
        /// Index of the first primitive.
        first_prim: u32,
        /// Number of primitives in the leaf.
        prim_count: u32,
    },
}

/// One node of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BvhNode {
    /// Bounds enclosing everything below this node.
    pub bounds: Aabb,
    /// Children or primitive range.
    pub kind: NodeKind,
}

impl BvhNode {
    /// True if this is a leaf node.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }
}

/// A built acceleration structure: flat node array plus the (re-ordered)
/// primitive array.
///
/// Node 0 is always the root.  Primitives referenced by a leaf are stored
/// contiguously, which keeps traversal cache-friendly — the layout mirrors
/// what GPU acceleration structures do.
#[derive(Debug, Clone)]
pub struct Bvh {
    /// Flat node storage; index 0 is the root.
    pub nodes: Vec<BvhNode>,
    /// Primitives, re-ordered so leaf ranges are contiguous.
    pub primitives: Vec<Sphere>,
    /// Which builder produced this tree.
    pub builder: BuilderKind,
    /// Work the build performed (fed to the device cost model).
    pub build_counters: WorkCounters,
}

impl Bvh {
    /// Number of primitives in the scene (after any compaction).
    pub fn primitive_count(&self) -> usize {
        self.primitives.len()
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root node's bounds (the whole scene).
    pub fn scene_bounds(&self) -> Aabb {
        self.nodes.first().map(|n| n.bounds).unwrap_or(Aabb::EMPTY)
    }

    /// Maximum depth of the tree (root = depth 1).  Iterative to avoid stack
    /// overflow on degenerate trees.
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut max_depth = 0usize;
        let mut stack = vec![(0u32, 1usize)];
        while let Some((idx, depth)) = stack.pop() {
            max_depth = max_depth.max(depth);
            if let NodeKind::Internal { left, right } = self.nodes[idx as usize].kind {
                stack.push((left, depth + 1));
                stack.push((right, depth + 1));
            }
        }
        max_depth
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Estimated device-memory footprint of this acceleration structure in
    /// bytes (nodes + primitive records), used by the memory tracker.
    pub fn device_bytes(&self) -> u64 {
        let node_bytes = std::mem::size_of::<BvhNode>() as u64 * self.nodes.len() as u64;
        let prim_bytes = std::mem::size_of::<Sphere>() as u64 * self.primitives.len() as u64;
        node_bytes + prim_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::{BvhBuilder, SahBuilder};
    use crate::geometry::Point3;

    fn small_bvh() -> Bvh {
        let spheres: Vec<Sphere> = (0..16)
            .map(|i| Sphere::new(Point3::new(i as f32, 0.0, 0.0), 0.4, i as u32))
            .collect();
        SahBuilder::default().build(spheres).unwrap()
    }

    #[test]
    fn node_kind_queries() {
        let leaf = BvhNode {
            bounds: Aabb::EMPTY,
            kind: NodeKind::Leaf {
                first_prim: 0,
                prim_count: 2,
            },
        };
        let internal = BvhNode {
            bounds: Aabb::EMPTY,
            kind: NodeKind::Internal { left: 1, right: 2 },
        };
        assert!(leaf.is_leaf());
        assert!(!internal.is_leaf());
    }

    #[test]
    fn statistics_of_a_small_tree() {
        let bvh = small_bvh();
        assert_eq!(bvh.primitive_count(), 16);
        assert!(bvh.node_count() >= 3);
        assert!(bvh.depth() >= 2);
        assert!(bvh.leaf_count() >= 2);
        assert!(bvh.device_bytes() > 0);
        let b = bvh.scene_bounds();
        assert!(b.contains_point(Point3::new(0.0, 0.0, 0.0)));
        assert!(b.contains_point(Point3::new(15.0, 0.0, 0.0)));
    }

    #[test]
    fn empty_bvh_statistics() {
        let bvh = Bvh {
            nodes: vec![],
            primitives: vec![],
            builder: BuilderKind::BinnedSah,
            build_counters: WorkCounters::ZERO,
        };
        assert_eq!(bvh.depth(), 0);
        assert_eq!(bvh.leaf_count(), 0);
        assert!(bvh.scene_bounds().is_empty());
    }
}
