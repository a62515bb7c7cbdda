//! Two-level scene support: Morton-range shard planning and the top-level
//! acceleration structure (TLAS) over shard instances.
//!
//! The flat wide-batched path builds one LBVH over the whole scene.  A
//! two-level scene instead cuts the *same* Morton-sorted primitive array into
//! contiguous shards, builds one bottom-level BVH (BLAS) per shard, and puts
//! a small top-level BVH over the shard root bounds.  Because the cuts are
//! chosen by descending the LBVH builder's `morton_split` from the full range —
//! exactly the splits the flat builder would take — every BLAS is
//! bit-identical to the corresponding subtree of the flat LBVH.  That
//! alignment is what lets the sharded backend reproduce the flat path's
//! candidate sets (and therefore its `dist_comps`/`prim_tests` counters)
//! exactly: a candidate is charged iff its *leaf* box is hit, leaf boxes are
//! identical, and the box test is monotone under the parent⊇child containment
//! that [`crate::bvh::validate`] enforces, so the structure above the leaves
//! cannot change which candidates are enumerated.

use crate::bvh::build::{morton_order, validate_prims, BuildParallelism, LbvhBuilder};
use crate::error::Result;
use crate::geometry::{Aabb, Ray, Sphere};
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;

/// Sharding knobs for a two-level scene.
///
/// Attached to `NeighborIndexBuilder::sharding` (and surfaced on the cluster
/// engine builder as `shard_size`); `None` keeps the flat single-BVH path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingConfig {
    /// Largest number of primitives a single shard (BLAS) may hold.  Shard
    /// boundaries are Morton-split descents of the full range, so actual
    /// shards are usually smaller.  Must be at least the index's
    /// `max_leaf_size` so no cut can land inside a leaf of the aligned flat
    /// tree.
    pub max_shard_size: usize,
}

impl ShardingConfig {
    /// Config with the given maximum shard size.
    pub const fn new(max_shard_size: usize) -> Self {
        ShardingConfig { max_shard_size }
    }
}

/// The output of [`plan_shards`]: the scene's primitives in global Morton
/// order plus the contiguous ranges that become shards.  A sharded index
/// builds the same plan from its one Morton pass over the input points.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Primitives sorted by Morton code over the *global* scene bounds.
    pub sorted_prims: Vec<Sphere>,
    /// Morton code of each sorted primitive (parallel to `sorted_prims`).
    pub sorted_codes: Vec<u32>,
    /// Half-open `[start, end)` ranges into the sorted arrays, ascending and
    /// exactly partitioning `0..n`.  One shard per range.
    pub ranges: Vec<(usize, usize)>,
    /// Work charged while planning: the global Morton encode (`misc_ops`),
    /// the radix sort (`build_sort_ops`) and one `build_node_ops` per split
    /// decision taken while descending to the shard cuts.
    pub counters: WorkCounters,
}

/// Morton-sort the primitives over the global scene bounds and cut them into
/// shards of at most `max_shard_size` primitives by descending the LBVH split
/// function from the full range.
///
/// Fails with [`crate::error::Error::EmptyScene`] on an empty input and
/// [`crate::error::Error::InvalidPrimitive`] on non-finite geometry,
/// mirroring the flat builders.
pub fn plan_shards(prims: Vec<Sphere>, max_shard_size: usize) -> Result<ShardPlan> {
    plan_shards_with(prims, max_shard_size, BuildParallelism::Sequential)
}

/// [`plan_shards`] with an explicit parallelism setting for the global
/// encode/sort.  The plan is bit-identical for every setting — the sharded
/// backend's counter-identity guarantees do not depend on it.
pub fn plan_shards_with(
    prims: Vec<Sphere>,
    max_shard_size: usize,
    parallelism: BuildParallelism,
) -> Result<ShardPlan> {
    validate_prims(&prims)?;
    let mut counters = WorkCounters::ZERO;
    // Encode over the global centroid bounds — the same frame the flat LBVH
    // uses, so the sort order (and therefore every downstream split) matches.
    let (sorted_prims, sorted_codes) = morton_order(&prims, parallelism.resolved(), &mut counters);
    let ranges = cut_shards(&sorted_codes, max_shard_size, &mut counters);
    Ok(ShardPlan {
        sorted_prims,
        sorted_codes,
        ranges,
        counters,
    })
}

/// The shard cut of a Morton-sorted code lane: descend the flat tree's own
/// split function from the full range until every range holds at most
/// `max_shard_size` codes, charging one `build_node_ops` per split.  The
/// ranges come out ascending and partition `0..codes.len()` (none for an
/// empty lane).
pub(crate) fn cut_shards(
    codes: &[u32],
    max_shard_size: usize,
    counters: &mut WorkCounters,
) -> Vec<(usize, usize)> {
    let max_shard = max_shard_size.max(1);
    // analyze-allow: hot-path-alloc -- build path: the shard range list is allocated once per scene plan
    let mut ranges = Vec::new();
    // Push right before left so the explicit stack pops ranges in ascending
    // order.
    // analyze-allow: hot-path-alloc -- build path: the cut-descent stack is allocated once per scene plan
    let mut stack = vec![(0usize, codes.len())];
    while let Some((start, end)) = stack.pop() {
        if end == start {
            continue;
        }
        if end - start <= max_shard {
            ranges.push((start, end));
            continue;
        }
        sat_bump(&mut counters.build_node_ops, 1);
        let mid = LbvhBuilder::morton_split(codes, start, end);
        stack.push((mid, end));
        stack.push((start, mid));
    }
    ranges
}

/// A node of the top-level BVH.  Leaves reference shard (BLAS) indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlasNode {
    /// Sphere-inflated bounds of everything below this node.
    pub bounds: Aabb,
    /// Interior links or the shard this leaf instances.
    pub kind: TlasNodeKind,
}

/// Discriminates interior TLAS nodes from shard-instance leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlasNodeKind {
    /// Interior node with two children (indices into the node array).
    Internal {
        /// Left child index.
        left: u32,
        /// Right child index.
        right: u32,
    },
    /// Leaf holding one shard instance.
    Leaf {
        /// Index of the shard (BLAS) this leaf references.
        shard: u32,
    },
}

/// Top-level BVH whose leaves are shard instances.
///
/// Built over the shard root bounds in shard order (the shards are already
/// Morton-ordered, so a balanced split over the index range is spatially
/// coherent).  Traversal uses the same [`Aabb::intersects_ray`] predicate the
/// wavefront engines gate their roots with, so a shard that could contribute
/// candidates is never skipped.
#[derive(Debug, Clone, Default)]
pub struct Tlas {
    /// Node array; `nodes[0]` is the root when non-empty.
    pub nodes: Vec<TlasNode>,
}

impl Tlas {
    /// Build a TLAS over the given shard bounds (one entry per shard, in
    /// shard order).  Empty bounds entries (fully evicted shards) are kept as
    /// leaves with empty boxes — `intersects_ray` never hits them.  Charges
    /// one `build_node_ops` per emitted node.
    pub fn build(shard_bounds: &[Aabb], counters: &mut WorkCounters) -> Tlas {
        // analyze-allow: hot-path-alloc -- build path: the node array is allocated once per TLAS (re)build, not per query
        let mut tlas = Tlas { nodes: Vec::new() };
        if !shard_bounds.is_empty() {
            tlas.emit(shard_bounds, 0, shard_bounds.len(), counters);
        }
        tlas
    }

    fn emit(
        &mut self,
        bounds: &[Aabb],
        start: usize,
        end: usize,
        counters: &mut WorkCounters,
    ) -> u32 {
        let index = self.nodes.len() as u32;
        sat_bump(&mut counters.build_node_ops, 1);
        let node_bounds = bounds[start..end]
            .iter()
            .fold(Aabb::EMPTY, |acc, b| acc.union(b));
        if end - start == 1 {
            self.nodes.push(TlasNode {
                bounds: node_bounds,
                kind: TlasNodeKind::Leaf {
                    shard: start as u32,
                },
            });
            return index;
        }
        self.nodes.push(TlasNode {
            bounds: node_bounds,
            kind: TlasNodeKind::Leaf { shard: u32::MAX }, // patched below
        });
        let mid = start + (end - start) / 2;
        let left = self.emit(bounds, start, mid, counters);
        let right = self.emit(bounds, mid, end, counters);
        self.nodes[index as usize].kind = TlasNodeKind::Internal { left, right };
        index
    }

    /// Number of shard-instance leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, TlasNodeKind::Leaf { .. }))
            .count()
    }

    /// Bounds of the whole two-level scene (the root's box), or an empty box
    /// when no shards remain.
    pub fn scene_bounds(&self) -> Aabb {
        self.nodes.first().map(|n| n.bounds).unwrap_or(Aabb::EMPTY)
    }

    /// Append to `out` the shard indices whose bounds the ray overlaps,
    /// charging `tlas_node_visits` for every node popped.  The predicate is
    /// [`Aabb::intersects_ray`] — identical to the wavefront engines' root
    /// gate — so the enumeration is conservative: a BLAS that could produce
    /// candidates is always listed (a listed BLAS may still produce none).
    pub fn overlapping(&self, ray: &Ray, counters: &mut WorkCounters, out: &mut Vec<u32>) {
        self.for_each_leaf_hit(ray, counters, |shard| out.push(shard));
    }

    /// Call `leaf(shard)` for every shard leaf the ray overlaps, in
    /// ascending shard order, charging `tlas_node_visits` for every node
    /// popped — the enumeration behind [`Tlas::overlapping`], without the
    /// output vector.
    pub(crate) fn for_each_leaf_hit(
        &self,
        ray: &Ray,
        counters: &mut WorkCounters,
        leaf: impl FnMut(u32),
    ) {
        self.for_each_leaf_hit_from(&[0], ray, counters, leaf);
    }

    /// [`Tlas::for_each_leaf_hit`] for a ray whose origin is already known
    /// to lie in the root box (a packet router that tested the packet's
    /// box against the root knows it for every ray of the packet): the
    /// root's own test is skipped and the descent starts at its children.
    pub(crate) fn for_each_leaf_hit_below_root(
        &self,
        ray: &Ray,
        counters: &mut WorkCounters,
        leaf: impl FnMut(u32),
    ) {
        match self.nodes.first().map(|n| n.kind) {
            Some(TlasNodeKind::Internal { left, right }) => {
                self.for_each_leaf_hit_from(&[left, right], ray, counters, leaf)
            }
            _ => self.for_each_leaf_hit(ray, counters, leaf),
        }
    }

    fn for_each_leaf_hit_from(
        &self,
        start: &[u32],
        ray: &Ray,
        counters: &mut WorkCounters,
        mut leaf: impl FnMut(u32),
    ) {
        self.descend(
            start,
            counters,
            |node| node.intersects_ray(ray),
            |shard, _| {
                leaf(shard);
                true
            },
        );
    }

    /// Call `leaf(shard, leaf_box)` for every shard leaf whose box overlaps
    /// `bounds`, in ascending shard order, charging `tlas_node_visits` for
    /// every node popped; the descent stops as soon as `leaf` returns
    /// `false`, and the return value says whether it ran to the end.  A
    /// packet router bounds its rays once, descends with that box, and then
    /// tests each ray only against the leaf boxes reached: a leaf
    /// containing a ray's origin overlaps any box containing that origin,
    /// and so does each of its ancestors, so no leaf a per-ray
    /// [`Tlas::overlapping`] would list is missed.
    pub(crate) fn for_each_leaf_overlapping(
        &self,
        bounds: &Aabb,
        counters: &mut WorkCounters,
        leaf: impl FnMut(u32, &Aabb) -> bool,
    ) -> bool {
        self.descend(&[0], counters, |node| node.intersects_aabb(bounds), leaf)
    }

    /// Depth-first descent from the `start` nodes (left to right) on a
    /// fixed-size stack: pop a node, charge one `tlas_node_visits`, skip it
    /// unless `enter` accepts its box, hand leaves to `leaf` and push
    /// interior children right-then-left so leaves come out in ascending
    /// shard order.  Stops (returning `false`) at the first leaf `leaf`
    /// rejects.
    fn descend(
        &self,
        start: &[u32],
        counters: &mut WorkCounters,
        enter: impl Fn(&Aabb) -> bool,
        mut leaf: impl FnMut(u32, &Aabb) -> bool,
    ) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        // `Tlas::build` splits shard ranges at their midpoint, so the tree
        // depth is at most ceil(log2(shards)) <= 32 and a depth-first walk
        // holds at most depth + 2 pending nodes.
        let mut stack = [0u32; TLAS_STACK];
        let mut top = start.len();
        for (slot, &node) in stack.iter_mut().zip(start.iter().rev()) {
            *slot = node;
        }
        while top > 0 {
            top -= 1;
            let ni = stack[top];
            sat_bump(&mut counters.tlas_node_visits, 1);
            let node = &self.nodes[ni as usize];
            if !enter(&node.bounds) {
                continue;
            }
            match node.kind {
                TlasNodeKind::Leaf { shard } => {
                    if !leaf(shard, &node.bounds) {
                        return false;
                    }
                }
                TlasNodeKind::Internal { left, right } => {
                    stack[top] = right;
                    stack[top + 1] = left;
                    top += 2;
                }
            }
        }
        true
    }
}

/// Pending-node capacity of the TLAS descent stack (see [`Tlas::descend`]).
const TLAS_STACK: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::build::lbvh_from_sorted;
    use crate::bvh::{BvhBuilder, LbvhBuilder, NodeKind};
    use crate::error::Error;
    use crate::geometry::Point3;

    fn scatter(n: usize, seed: u64) -> Vec<Sphere> {
        // Deterministic LCG scatter, with a duplicate run in the middle to
        // exercise the identical-code midpoint split.
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 10.0
        };
        (0..n)
            .map(|i| {
                let c = if i % 17 == 0 {
                    Point3::new(5.0, 5.0, 5.0)
                } else {
                    Point3::new(next(), next(), next())
                };
                Sphere::new(c, 0.25, i as u32)
            })
            .collect()
    }

    /// Leaf primitive partitions of a flat BVH, as sorted id-lists.
    fn leaf_partitions(nodes: &[crate::bvh::BvhNode], prims: &[Sphere]) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for node in nodes {
            if let NodeKind::Leaf {
                first_prim,
                prim_count,
            } = node.kind
            {
                if prim_count == 0 {
                    continue;
                }
                let mut ids: Vec<u32> = prims
                    [first_prim as usize..(first_prim + prim_count) as usize]
                    .iter()
                    .map(|s| s.point_index)
                    .collect();
                ids.sort_unstable();
                out.push(ids);
            }
        }
        out.sort();
        out
    }

    #[test]
    fn plan_partitions_the_range_in_order() {
        let plan = plan_shards(scatter(500, 7), 64).unwrap();
        assert!(plan.ranges.len() > 1);
        let mut cursor = 0;
        for &(s, e) in &plan.ranges {
            assert_eq!(s, cursor);
            assert!(e > s);
            assert!(e - s <= 64);
            cursor = e;
        }
        assert_eq!(cursor, 500);
    }

    #[test]
    fn plan_rejects_empty_scene() {
        assert_eq!(plan_shards(vec![], 64).unwrap_err(), Error::EmptyScene);
    }

    #[test]
    fn shard_blases_align_with_the_flat_lbvh_leaves() {
        // The load-bearing property: per-shard LBVH emission over the
        // pre-sorted slices reproduces exactly the flat tree's leaf
        // partitions (and boxes, implied by identical partitions + ranges).
        let prims = scatter(400, 11);
        let max_leaf = 4;
        let flat = LbvhBuilder {
            max_leaf_size: max_leaf,
            ..LbvhBuilder::default()
        }
        .build(prims.clone())
        .unwrap();
        let flat_leaves = leaf_partitions(&flat.nodes, &flat.primitives);

        let plan = plan_shards(prims, 32).unwrap();
        let mut sharded_leaves = Vec::new();
        for &(s, e) in &plan.ranges {
            let blas = lbvh_from_sorted(
                plan.sorted_prims[s..e].to_vec(),
                &plan.sorted_codes[s..e],
                max_leaf,
                WorkCounters::ZERO,
                BuildParallelism::Sequential,
                &crate::telemetry::Telemetry::disabled(),
            )
            .unwrap();
            sharded_leaves.extend(leaf_partitions(&blas.nodes, &blas.primitives));
        }
        sharded_leaves.sort();
        assert_eq!(flat_leaves, sharded_leaves);
    }

    #[test]
    fn tlas_enumeration_is_conservative() {
        let prims = scatter(300, 3);
        let plan = plan_shards(prims, 48).unwrap();
        let bounds: Vec<Aabb> = plan
            .ranges
            .iter()
            .map(|&(s, e)| {
                plan.sorted_prims[s..e]
                    .iter()
                    .fold(Aabb::EMPTY, |acc, p| acc.union(&p.bounds()))
            })
            .collect();
        let mut counters = WorkCounters::ZERO;
        let tlas = Tlas::build(&bounds, &mut counters);
        assert_eq!(tlas.leaf_count(), plan.ranges.len());
        assert!(counters.build_node_ops > 0);

        let mut out = Vec::new();
        for q in plan.sorted_prims.iter().step_by(13) {
            let ray = Ray::epsilon_ray(q.center);
            out.clear();
            tlas.overlapping(&ray, &mut counters, &mut out);
            // Every shard holding a sphere whose box contains the query
            // centre (i.e. a sphere the engine would charge as a candidate)
            // must be listed.
            for (shard, &(s, e)) in plan.ranges.iter().enumerate() {
                let close = plan.sorted_prims[s..e]
                    .iter()
                    .any(|p| p.bounds().contains_point(q.center));
                if close {
                    assert!(
                        out.contains(&(shard as u32)),
                        "shard {shard} near query was skipped"
                    );
                }
            }
        }
        assert!(counters.tlas_node_visits > 0);
    }

    #[test]
    fn empty_tlas_yields_nothing() {
        let mut counters = WorkCounters::ZERO;
        let tlas = Tlas::build(&[], &mut counters);
        let mut out = Vec::new();
        tlas.overlapping(&Ray::epsilon_ray(Point3::ORIGIN), &mut counters, &mut out);
        assert!(out.is_empty());
        assert_eq!(tlas.scene_bounds(), Aabb::EMPTY);
    }
}
