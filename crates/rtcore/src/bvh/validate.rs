//! Structural validation of built BVHs.
//!
//! Used by unit / property tests and exposed publicly so downstream crates
//! can assert tree invariants in their own tests.

use crate::bvh::{Bvh, NodeKind};
use std::fmt;

/// A violated BVH invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BvhInvariantError {
    /// The tree has no nodes but claims primitives (or vice versa).
    EmptyTreeWithPrimitives,
    /// A node index was out of range.
    NodeIndexOutOfRange {
        /// Offending child index.
        index: u32,
    },
    /// A leaf's primitive range exceeded the primitive array.
    PrimRangeOutOfRange {
        /// First primitive of the offending leaf.
        first: u32,
        /// Count of the offending leaf.
        count: u32,
    },
    /// A node was reachable through two different parents (the "tree" is a
    /// DAG or contains a cycle).
    NodeVisitedTwice {
        /// Offending node index.
        index: u32,
    },
    /// Some node was never reached from the root.
    UnreachableNodes {
        /// Number of unreachable nodes.
        count: usize,
    },
    /// A primitive was not covered by exactly one leaf.
    PrimitiveCoverage {
        /// Primitive index.
        index: u32,
        /// Number of leaves that claimed it.
        times: usize,
    },
    /// A child's bounds were not contained in its parent's bounds.
    ChildNotContained {
        /// Parent node index.
        parent: u32,
        /// Child node index.
        child: u32,
    },
    /// A leaf's bounds did not contain one of its primitives' bounds.
    PrimitiveNotContained {
        /// Leaf node index.
        leaf: u32,
        /// Primitive index.
        prim: u32,
    },
}

impl fmt::Display for BvhInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BvhInvariantError::EmptyTreeWithPrimitives => {
                write!(f, "node/primitive arrays disagree about emptiness")
            }
            BvhInvariantError::NodeIndexOutOfRange { index } => {
                write!(f, "child node index {index} out of range")
            }
            BvhInvariantError::PrimRangeOutOfRange { first, count } => {
                write!(
                    f,
                    "leaf primitive range [{first}, {first}+{count}) out of range"
                )
            }
            BvhInvariantError::NodeVisitedTwice { index } => {
                write!(f, "node {index} reachable through two parents")
            }
            BvhInvariantError::UnreachableNodes { count } => {
                write!(f, "{count} nodes unreachable from the root")
            }
            BvhInvariantError::PrimitiveCoverage { index, times } => {
                write!(
                    f,
                    "primitive {index} covered by {times} leaves (expected 1)"
                )
            }
            BvhInvariantError::ChildNotContained { parent, child } => {
                write!(
                    f,
                    "bounds of child {child} not contained in parent {parent}"
                )
            }
            BvhInvariantError::PrimitiveNotContained { leaf, prim } => {
                write!(f, "primitive {prim} not contained in bounds of leaf {leaf}")
            }
        }
    }
}

impl std::error::Error for BvhInvariantError {}

/// Check every structural invariant of a built BVH.
///
/// Invariants checked:
/// 1. every node is reachable from the root exactly once (proper binary tree);
/// 2. child bounds are contained in parent bounds;
/// 3. leaf primitive ranges are in-bounds and every primitive is covered by
///    exactly one leaf;
/// 4. leaf bounds contain the bounds of each primitive they own.
pub fn validate(bvh: &Bvh) -> Result<(), BvhInvariantError> {
    if bvh.nodes.is_empty() {
        if bvh.primitives.is_empty() {
            return Ok(());
        }
        return Err(BvhInvariantError::EmptyTreeWithPrimitives);
    }

    let n_nodes = bvh.nodes.len();
    let n_prims = bvh.primitives.len();
    let mut visited = vec![false; n_nodes];
    let mut prim_cover = vec![0usize; n_prims];

    let mut stack: Vec<u32> = vec![0];
    visited[0] = true;
    while let Some(idx) = stack.pop() {
        let node = &bvh.nodes[idx as usize];
        match node.kind {
            NodeKind::Internal { left, right } => {
                for child in [left, right] {
                    if child as usize >= n_nodes {
                        return Err(BvhInvariantError::NodeIndexOutOfRange { index: child });
                    }
                    if visited[child as usize] {
                        return Err(BvhInvariantError::NodeVisitedTwice { index: child });
                    }
                    visited[child as usize] = true;
                    let cb = bvh.nodes[child as usize].bounds;
                    if !node.bounds.contains_aabb(&cb) {
                        return Err(BvhInvariantError::ChildNotContained { parent: idx, child });
                    }
                    stack.push(child);
                }
            }
            NodeKind::Leaf {
                first_prim,
                prim_count,
            } => {
                let first = first_prim as usize;
                let count = prim_count as usize;
                if first + count > n_prims {
                    return Err(BvhInvariantError::PrimRangeOutOfRange {
                        first: first_prim,
                        count: prim_count,
                    });
                }
                for (offset, prim) in bvh.primitives[first..first + count].iter().enumerate() {
                    prim_cover[first + offset] += 1;
                    if !node.bounds.contains_aabb(&prim.bounds()) {
                        return Err(BvhInvariantError::PrimitiveNotContained {
                            leaf: idx,
                            prim: (first + offset) as u32,
                        });
                    }
                }
            }
        }
    }

    let unreachable = visited.iter().filter(|v| !**v).count();
    if unreachable > 0 {
        return Err(BvhInvariantError::UnreachableNodes { count: unreachable });
    }
    for (i, &times) in prim_cover.iter().enumerate() {
        if times != 1 {
            return Err(BvhInvariantError::PrimitiveCoverage {
                index: i as u32,
                times,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::{BuilderKind, BvhBuilder, BvhNode, LbvhBuilder, SahBuilder};
    use crate::geometry::{Aabb, Point3, Sphere};
    use crate::hardware::WorkCounters;

    fn valid_bvh() -> Bvh {
        let spheres: Vec<Sphere> = (0..50)
            .map(|i| Sphere::new(Point3::new(i as f32, (i * 3 % 11) as f32, 0.0), 0.4, i))
            .collect();
        SahBuilder::default().build(spheres).unwrap()
    }

    #[test]
    fn valid_trees_pass() {
        validate(&valid_bvh()).unwrap();
        let spheres: Vec<Sphere> = (0..50)
            .map(|i| Sphere::new(Point3::new((i % 5) as f32, 0.0, 0.0), 0.4, i))
            .collect();
        validate(&LbvhBuilder::default().build(spheres).unwrap()).unwrap();
    }

    #[test]
    fn empty_tree_with_primitives_is_invalid() {
        let bvh = Bvh {
            nodes: vec![],
            primitives: vec![Sphere::new(Point3::ORIGIN, 1.0, 0)],
            builder: BuilderKind::BinnedSah,
            build_counters: WorkCounters::ZERO,
        };
        assert_eq!(
            validate(&bvh).unwrap_err(),
            BvhInvariantError::EmptyTreeWithPrimitives
        );
    }

    #[test]
    fn shrunken_parent_bounds_are_detected() {
        let mut bvh = valid_bvh();
        // Shrink the root bounds so children stick out.
        bvh.nodes[0].bounds = Aabb::from_sphere(Point3::ORIGIN, 0.01);
        let err = validate(&bvh).unwrap_err();
        assert!(
            matches!(
                err,
                BvhInvariantError::ChildNotContained { .. }
                    | BvhInvariantError::PrimitiveNotContained { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn out_of_range_child_is_detected() {
        let mut bvh = valid_bvh();
        if let NodeKind::Internal { left, .. } = bvh.nodes[0].kind {
            bvh.nodes[0].kind = NodeKind::Internal {
                left,
                right: 10_000,
            };
        }
        assert_eq!(
            validate(&bvh).unwrap_err(),
            BvhInvariantError::NodeIndexOutOfRange { index: 10_000 }
        );
    }

    #[test]
    fn bad_leaf_range_is_detected() {
        let bvh = Bvh {
            nodes: vec![BvhNode {
                bounds: Aabb::from_sphere(Point3::ORIGIN, 10.0),
                kind: NodeKind::Leaf {
                    first_prim: 0,
                    prim_count: 5,
                },
            }],
            primitives: vec![Sphere::new(Point3::ORIGIN, 1.0, 0)],
            builder: BuilderKind::BinnedSah,
            build_counters: WorkCounters::ZERO,
        };
        assert!(matches!(
            validate(&bvh).unwrap_err(),
            BvhInvariantError::PrimRangeOutOfRange { .. }
        ));
    }

    #[test]
    fn uncovered_primitive_is_detected() {
        let bvh = Bvh {
            nodes: vec![BvhNode {
                bounds: Aabb::from_sphere(Point3::ORIGIN, 10.0),
                kind: NodeKind::Leaf {
                    first_prim: 0,
                    prim_count: 1,
                },
            }],
            primitives: vec![
                Sphere::new(Point3::ORIGIN, 1.0, 0),
                Sphere::new(Point3::new(1.0, 0.0, 0.0), 1.0, 1),
            ],
            builder: BuilderKind::BinnedSah,
            build_counters: WorkCounters::ZERO,
        };
        assert!(matches!(
            validate(&bvh).unwrap_err(),
            BvhInvariantError::PrimitiveCoverage { index: 1, times: 0 }
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = BvhInvariantError::ChildNotContained {
            parent: 1,
            child: 2,
        };
        assert!(e.to_string().contains("child 2"));
        let e = BvhInvariantError::UnreachableNodes { count: 3 };
        assert!(e.to_string().contains('3'));
    }
}
