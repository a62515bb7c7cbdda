//! BVH builders.

use crate::bvh::{Bvh, BvhNode, NodeKind};
use crate::error::{Error, Result};
use crate::geometry::{
    morton_encode_3d, radix_sort_by_code_parallel, Aabb, MortonCode, SendPtr, Sphere,
};
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;
use crate::telemetry::{PhaseKind, Telemetry};
use rayon::prelude::*;

/// Identifies which construction algorithm produced a [`Bvh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuilderKind {
    /// Morton-curve linear BVH (GPU-style fast build).
    Lbvh,
    /// Binned Surface Area Heuristic build.
    BinnedSah,
    /// Longest-axis median split.
    MedianSplit,
}

impl std::fmt::Display for BuilderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuilderKind::Lbvh => write!(f, "LBVH"),
            BuilderKind::BinnedSah => write!(f, "binned-SAH"),
            BuilderKind::MedianSplit => write!(f, "median-split"),
        }
    }
}

/// How much logical parallelism an acceleration-structure build may use.
///
/// The value is a *chunk count*, not a physical thread count: the thread
/// pool runs `min(cores, chunks)` workers, and every parallel build stage is
/// written so its output depends only on the chunk decomposition — which is
/// itself chosen so the result is bit-identical to the sequential build.
/// `Sequential` is the default everywhere, so existing counter-identity
/// guarantees are unaffected unless a caller opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BuildParallelism {
    /// Single-threaded build (the default; exact legacy code path).
    #[default]
    Sequential,
    /// One logical chunk per worker of the thread pool
    /// (`rayon::current_num_threads`, which honours `RAYON_NUM_THREADS`).
    Auto,
    /// A fixed logical chunk count (clamped to at least 1).
    Threads(usize),
}

impl BuildParallelism {
    /// The logical worker count this setting resolves to.
    pub fn resolved(self) -> usize {
        match self {
            BuildParallelism::Sequential => 1,
            BuildParallelism::Auto => rayon::current_num_threads(),
            BuildParallelism::Threads(t) => t.max(1),
        }
    }

    /// Derive the parallelism each of `shard_count` nested builds may use
    /// when the shards themselves already run in parallel: the budget is
    /// divided so the total stays at `self` and the pool is never
    /// oversubscribed.  With at least as many shards as workers this
    /// degrades to `Sequential` per shard (the pre-existing behaviour).
    pub fn for_nested(self, shard_count: usize) -> BuildParallelism {
        let per_shard = self.resolved() / shard_count.max(1);
        if per_shard <= 1 {
            BuildParallelism::Sequential
        } else {
            BuildParallelism::Threads(per_shard)
        }
    }
}

/// Common interface of every builder.
pub trait BvhBuilder: Sync {
    /// Build a hierarchy over the given primitives.
    ///
    /// Fails with [`Error::EmptyScene`] if `prims` is empty and
    /// [`Error::InvalidPrimitive`] if any primitive has non-finite geometry
    /// or a negative radius.
    fn build(&self, prims: Vec<Sphere>) -> Result<Bvh>;

    /// The kind tag recorded in the produced [`Bvh`].
    fn kind(&self) -> BuilderKind;
}

/// Validate primitives before building.
pub(crate) fn validate_prims(prims: &[Sphere]) -> Result<()> {
    if prims.is_empty() {
        return Err(Error::EmptyScene);
    }
    for (i, s) in prims.iter().enumerate() {
        if !s.center.is_finite() {
            return Err(Error::InvalidPrimitive {
                index: i,
                reason: "non-finite sphere centre".into(),
            });
        }
        if !s.radius.is_finite() || s.radius < 0.0 {
            return Err(Error::InvalidPrimitive {
                index: i,
                reason: format!("invalid radius {}", s.radius),
            });
        }
    }
    Ok(())
}

/// Bounds of a contiguous primitive range.
fn range_bounds(prims: &[Sphere]) -> Aabb {
    prims
        .iter()
        .fold(Aabb::EMPTY, |acc, s| acc.union(&s.bounds()))
}

/// Bounds of the primitive *centroids* in a range (used for splitting).
fn centroid_bounds(prims: &[Sphere]) -> Aabb {
    prims
        .iter()
        .fold(Aabb::EMPTY, |acc, s| acc.grown_to_include(s.center))
}

/// Shared recursive emitter: given a primitive array that the builder is
/// allowed to reorder, recursively partition `[start, end)` and append nodes.
///
/// `split` decides where to partition a range; it returns `None` to force a
/// leaf.  Returns the index of the node created for the range.
fn emit_node<S>(
    prims: &mut [Sphere],
    start: usize,
    end: usize,
    max_leaf_size: usize,
    nodes: &mut Vec<BvhNode>,
    counters: &mut WorkCounters,
    split: &S,
) -> u32
where
    S: Fn(&mut [Sphere], usize, usize, &mut WorkCounters) -> Option<usize>,
{
    let node_index = nodes.len() as u32;
    let bounds = range_bounds(&prims[start..end]);
    sat_bump(&mut counters.build_node_ops, 1);
    // Placeholder, patched below once children are known.
    nodes.push(BvhNode {
        bounds,
        kind: NodeKind::Leaf {
            first_prim: start as u32,
            prim_count: (end - start) as u32,
        },
    });

    let count = end - start;
    if count <= max_leaf_size {
        return node_index;
    }
    let mid = match split(prims, start, end, counters) {
        Some(mid) if mid > start && mid < end => mid,
        _ => return node_index, // could not split further: keep as leaf
    };
    let left = emit_node(prims, start, mid, max_leaf_size, nodes, counters, split);
    let right = emit_node(prims, mid, end, max_leaf_size, nodes, counters, split);
    nodes[node_index as usize].kind = NodeKind::Internal { left, right };
    node_index
}

fn finish_build(
    kind: BuilderKind,
    mut prims: Vec<Sphere>,
    max_leaf_size: usize,
    split: impl Fn(&mut [Sphere], usize, usize, &mut WorkCounters) -> Option<usize>,
    mut counters: WorkCounters,
) -> Bvh {
    let mut nodes = Vec::with_capacity(2 * prims.len().max(1));
    sat_bump(&mut counters.build_prims, prims.len() as u64);
    let n = prims.len();
    emit_node(
        &mut prims,
        0,
        n,
        max_leaf_size.max(1),
        &mut nodes,
        &mut counters,
        &split,
    );
    Bvh {
        nodes,
        primitives: prims,
        builder: kind,
        build_counters: counters,
    }
}

// ---------------------------------------------------------------------------
// Median split
// ---------------------------------------------------------------------------

/// Longest-axis median-split builder.
///
/// Simple and predictable; used as the reference in tests and as an ablation
/// point in the benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct MedianSplitBuilder {
    /// Maximum number of primitives per leaf.
    pub max_leaf_size: usize,
}

impl Default for MedianSplitBuilder {
    fn default() -> Self {
        MedianSplitBuilder { max_leaf_size: 4 }
    }
}

impl BvhBuilder for MedianSplitBuilder {
    fn build(&self, prims: Vec<Sphere>) -> Result<Bvh> {
        validate_prims(&prims)?;
        let max_leaf = self.max_leaf_size;
        Ok(finish_build(
            BuilderKind::MedianSplit,
            prims,
            max_leaf,
            |prims, start, end, counters| {
                let cb = centroid_bounds(&prims[start..end]);
                let axis = cb.longest_axis();
                let (ex, ey, ez) = cb.extent();
                if ex <= 0.0 && ey <= 0.0 && ez <= 0.0 {
                    // All centroids coincide; split the range in half anyway
                    // so heavily duplicated data still yields a shallow tree.
                    return Some((start + end) / 2);
                }
                let range = &mut prims[start..end];
                sat_bump(&mut counters.build_sort_ops, range.len() as u64);
                let mid = range.len() / 2;
                range.select_nth_unstable_by(mid, |a, b| {
                    a.center[axis]
                        .partial_cmp(&b.center[axis])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                Some(start + mid)
            },
            WorkCounters::ZERO,
        ))
    }

    fn kind(&self) -> BuilderKind {
        BuilderKind::MedianSplit
    }
}

// ---------------------------------------------------------------------------
// Binned SAH
// ---------------------------------------------------------------------------

/// Binned Surface-Area-Heuristic builder.
///
/// This is the "high quality" builder standing in for whatever OptiX does in
/// its opaque hardware-assisted build: primitives are partitioned so that the
/// expected traversal cost (child surface area × child primitive count) is
/// minimised over a fixed number of candidate planes.
#[derive(Debug, Clone, Copy)]
pub struct SahBuilder {
    /// Maximum number of primitives per leaf.
    pub max_leaf_size: usize,
    /// Number of candidate bins per axis.
    pub bins: usize,
}

impl Default for SahBuilder {
    fn default() -> Self {
        SahBuilder {
            max_leaf_size: 4,
            bins: 16,
        }
    }
}

impl BvhBuilder for SahBuilder {
    fn build(&self, prims: Vec<Sphere>) -> Result<Bvh> {
        validate_prims(&prims)?;
        let max_leaf = self.max_leaf_size;
        let bins = self.bins.max(2);
        Ok(finish_build(
            BuilderKind::BinnedSah,
            prims,
            max_leaf,
            move |prims, start, end, counters| {
                let cb = centroid_bounds(&prims[start..end]);
                let axis = cb.longest_axis();
                let min = cb.min[axis];
                let extent = cb.max[axis] - min;
                let range = &mut prims[start..end];
                sat_bump(&mut counters.build_sort_ops, range.len() as u64);
                if extent <= 0.0 {
                    // Degenerate: all centroids identical along every axis
                    // (centroid_bounds picks the longest). Fall back to an
                    // even split.
                    return Some((start + end) / 2);
                }

                // Bin primitives by centroid.
                let mut bin_counts = vec![0usize; bins];
                let mut bin_bounds = vec![Aabb::EMPTY; bins];
                let bin_of = |c: f32| -> usize {
                    let t = ((c - min) / extent * bins as f32) as usize;
                    t.min(bins - 1)
                };
                for s in range.iter() {
                    let b = bin_of(s.center[axis]);
                    bin_counts[b] += 1;
                    bin_bounds[b] = bin_bounds[b].union(&s.bounds());
                }

                // Sweep to find the cheapest split plane.
                let mut left_area = vec![0.0f32; bins];
                let mut left_count = vec![0usize; bins];
                let mut acc = Aabb::EMPTY;
                let mut cnt = 0usize;
                for b in 0..bins {
                    acc = acc.union(&bin_bounds[b]);
                    cnt += bin_counts[b];
                    left_area[b] = if acc.is_empty() {
                        0.0
                    } else {
                        acc.surface_area()
                    };
                    left_count[b] = cnt;
                }
                let mut best_cost = f32::INFINITY;
                let mut best_bin = None;
                let mut acc = Aabb::EMPTY;
                let mut cnt = 0usize;
                for b in (1..bins).rev() {
                    acc = acc.union(&bin_bounds[b]);
                    cnt += bin_counts[b];
                    let right_area = if acc.is_empty() {
                        0.0
                    } else {
                        acc.surface_area()
                    };
                    let lc = left_count[b - 1];
                    let rc = cnt;
                    if lc == 0 || rc == 0 {
                        continue;
                    }
                    let cost = left_area[b - 1] * lc as f32 + right_area * rc as f32;
                    if cost < best_cost {
                        best_cost = cost;
                        best_bin = Some(b);
                    }
                }
                let split_bin = best_bin?;

                // Partition in place around the chosen plane.
                let mid = itertools_partition(range, |s| bin_of(s.center[axis]) < split_bin);
                if mid == 0 || mid == range.len() {
                    // SAH failed to separate anything (can happen with many
                    // coincident centroids); fall back to an even split.
                    return Some((start + end) / 2);
                }
                Some(start + mid)
            },
            WorkCounters::ZERO,
        ))
    }

    fn kind(&self) -> BuilderKind {
        BuilderKind::BinnedSah
    }
}

/// In-place stable-enough partition: moves elements satisfying `pred` to the
/// front, returns the number of such elements.
fn itertools_partition<T, F: Fn(&T) -> bool>(slice: &mut [T], pred: F) -> usize {
    let mut next_front = 0usize;
    for i in 0..slice.len() {
        if pred(&slice[i]) {
            slice.swap(i, next_front);
            next_front += 1;
        }
    }
    next_front
}

// ---------------------------------------------------------------------------
// LBVH (Morton order)
// ---------------------------------------------------------------------------

/// Linear BVH builder: Morton-code sort followed by top-down emission that
/// splits each range at the most significant bit in which its codes differ.
///
/// This is the classic GPU construction (Lauterbach et al. / Karras) and the
/// structure ArborX — the library behind the FDBSCAN baseline — uses.
#[derive(Debug, Clone, Copy)]
pub struct LbvhBuilder {
    /// Maximum number of primitives per leaf.
    pub max_leaf_size: usize,
    /// Logical parallelism of the encode/sort/emit pipeline.  The output is
    /// bit-identical for every setting; `Sequential` (the default) runs the
    /// legacy single-threaded path.
    pub parallelism: BuildParallelism,
}

impl Default for LbvhBuilder {
    fn default() -> Self {
        LbvhBuilder {
            max_leaf_size: 4,
            parallelism: BuildParallelism::Sequential,
        }
    }
}

impl LbvhBuilder {
    /// Find the split position of a sorted Morton-code range: one past the
    /// last element that shares the highest differing bit with the first
    /// element.  Returns the midpoint when all codes are identical.
    pub(crate) fn morton_split(codes: &[u32], start: usize, end: usize) -> usize {
        let first = codes[start];
        let last = codes[end - 1];
        if first == last {
            return (start + end) / 2;
        }
        let common_prefix = (first ^ last).leading_zeros();
        // Binary search for the first element whose prefix differs from
        // `first` at bit position `common_prefix`.
        let mut lo = start;
        let mut hi = end - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let prefix = (first ^ codes[mid]).leading_zeros();
            if prefix > common_prefix {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.clamp(start + 1, end - 1)
    }
}

/// Shared Morton-order preparation for every LBVH-style consumer (the flat
/// builder and the sharded TLAS planner): scene bounds over the centroids,
/// per-primitive Morton encode, stable radix sort, and a fused gather that
/// fills the sorted primitive and code lanes in one pass.
///
/// `workers` is the logical chunk count; `1` is the exact legacy sequential
/// path.  For any `workers` value the output is bit-identical: the bounds
/// reduction only reassociates `min`/`max` folds over the fixed index order
/// (associative for the finite inputs `validate_prims` guarantees), the
/// encode and gather write each lane index independently, and the parallel
/// radix sort is stable with the same region order as the sequential one.
pub(crate) fn morton_order(
    prims: &[Sphere],
    workers: usize,
    counters: &mut WorkCounters,
) -> (Vec<Sphere>, Vec<u32>) {
    let n = prims.len();
    let workers = workers.min(n).max(1);
    let chunk = n.div_ceil(workers.max(1)).max(1);

    // 1. Scene bounds via a chunked min/max reduction over the centroids.
    let scene = if workers <= 1 {
        prims
            .iter()
            .fold(Aabb::EMPTY, |acc, s| acc.grown_to_include(s.center))
    } else {
        let partials: Vec<Aabb> = (0..workers)
            .into_par_iter()
            .map(|t| {
                let lo = (t * chunk).min(n);
                let hi = ((t + 1) * chunk).min(n);
                prims[lo..hi]
                    .iter()
                    .fold(Aabb::EMPTY, |acc, s| acc.grown_to_include(s.center))
            })
            .collect();
        partials.iter().fold(Aabb::EMPTY, |acc, b| acc.union(b))
    };
    let extent = scene.extent();

    // 2. Chunk-parallel Morton encode into a preallocated lane.
    let mut codes: Vec<MortonCode> = if workers <= 1 {
        prims
            .iter()
            .enumerate()
            .map(|(i, s)| MortonCode {
                code: morton_encode_3d(s.center, scene.min, extent),
                index: i as u32,
            })
            .collect()
    } else {
        let mut codes = vec![MortonCode { code: 0, index: 0 }; n];
        let out = SendPtr::new(codes.as_mut_ptr());
        (0..workers).into_par_iter().for_each(|t| {
            let lo = (t * chunk).min(n);
            let hi = ((t + 1) * chunk).min(n);
            for (i, s) in prims[lo..hi].iter().enumerate() {
                // SAFETY: chunks partition `[0, n)` into disjoint index
                // ranges; worker `t` only writes lane slots `lo..hi`, and
                // the lane is only read after the pool joins.
                unsafe {
                    *out.get().add(lo + i) = MortonCode {
                        code: morton_encode_3d(s.center, scene.min, extent),
                        index: (lo + i) as u32,
                    };
                }
            }
        });
        codes
    };
    sat_bump(&mut counters.misc_ops, n as u64); // code computation

    // 3. Radix sort by code (stable; bit-identical for any chunk count).
    let sort_stats = radix_sort_by_code_parallel(&mut codes, workers);
    sat_bump(&mut counters.build_sort_ops, sort_stats.scatter_ops);
    sat_bump(&mut counters.build_chunk_merges, sort_stats.chunk_merges);

    // 4. Fused gather: fill both the sorted primitive and the sorted code
    // lane in one pass (the codes are needed again by `morton_split`).
    if workers <= 1 {
        let mut sorted_prims: Vec<Sphere> = Vec::with_capacity(n);
        let mut sorted_codes: Vec<u32> = Vec::with_capacity(n);
        for c in &codes {
            sorted_prims.push(prims[c.index as usize]);
            sorted_codes.push(c.code);
        }
        (sorted_prims, sorted_codes)
    } else {
        let mut sorted_prims: Vec<Sphere> = vec![prims[0]; n];
        let mut sorted_codes: Vec<u32> = vec![0u32; n];
        let prims_out = SendPtr::new(sorted_prims.as_mut_ptr());
        let codes_out = SendPtr::new(sorted_codes.as_mut_ptr());
        let codes_ref: &[MortonCode] = &codes;
        (0..workers).into_par_iter().for_each(|t| {
            let lo = (t * chunk).min(n);
            let hi = ((t + 1) * chunk).min(n);
            for (i, c) in codes_ref[lo..hi].iter().enumerate() {
                // SAFETY: chunks partition `[0, n)`; worker `t` writes only
                // slots `lo..hi` of both lanes, which are read again only
                // after the pool joins.
                unsafe {
                    *prims_out.get().add(lo + i) = prims[c.index as usize];
                    *codes_out.get().add(lo + i) = c.code;
                }
            }
        });
        (sorted_prims, sorted_codes)
    }
}

/// Minimum treelet size for the parallel emitter: below this the per-arena
/// bookkeeping costs more than the subtree emit itself.
const MIN_TREELET: usize = 64;

/// One subtree emitted independently by a parallel treelet worker, in local
/// node indices (index 0 is the treelet root).
struct TreeletArena {
    nodes: Vec<BvhNode>,
    counters: WorkCounters,
}

/// The top of the tree above the treelets, in the same pre-order the
/// sequential emitter would produce.
enum TopPlan {
    Internal {
        left: Box<TopPlan>,
        right: Box<TopPlan>,
    },
    Treelet {
        idx: usize,
    },
}

/// Descend the sorted range along `morton_split` boundaries until every
/// subtree holds at most `target` primitives; those ranges become treelets.
/// The descent mirrors the sequential recursion exactly, so the treelet
/// ranges are subtree ranges of the sequential tree.
fn plan_treelets(
    codes: &[u32],
    start: usize,
    end: usize,
    target: usize,
    ranges: &mut Vec<(usize, usize)>,
) -> TopPlan {
    if end - start <= target {
        let idx = ranges.len();
        ranges.push((start, end));
        return TopPlan::Treelet { idx };
    }
    let mid = LbvhBuilder::morton_split(codes, start, end);
    let left = plan_treelets(codes, start, mid, target, ranges);
    let right = plan_treelets(codes, mid, end, target, ranges);
    TopPlan::Internal {
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Emit one treelet subtree in pre-order with *bottom-up* bounds: a leaf
/// folds its primitive range exactly like the sequential emitter, and an
/// internal node unions its children's bounds instead of re-folding its
/// whole range.  The two are bit-identical because the fold is a min/max
/// reduction over a fixed index order — reassociating it cannot change the
/// result on the finite values `validate_prims` admits — and it turns the
/// emitter's O(n·depth) bound refolds into O(n + nodes), which is where the
/// parallel build's single-thread win comes from.
fn emit_treelet_node(
    prims: &[Sphere],
    codes: &[u32],
    start: usize,
    end: usize,
    max_leaf_size: usize,
    nodes: &mut Vec<BvhNode>,
    counters: &mut WorkCounters,
) -> (u32, Aabb) {
    let node_index = nodes.len() as u32;
    sat_bump(&mut counters.build_node_ops, 1);
    let count = end - start;
    if count <= max_leaf_size {
        let bounds = range_bounds(&prims[start..end]);
        nodes.push(BvhNode {
            bounds,
            kind: NodeKind::Leaf {
                first_prim: start as u32,
                prim_count: count as u32,
            },
        });
        return (node_index, bounds);
    }
    // Placeholder, patched below once the children (and their bounds) exist.
    nodes.push(BvhNode {
        bounds: Aabb::EMPTY,
        kind: NodeKind::Leaf {
            first_prim: start as u32,
            prim_count: count as u32,
        },
    });
    let mid = LbvhBuilder::morton_split(codes, start, end);
    let (left, lb) = emit_treelet_node(prims, codes, start, mid, max_leaf_size, nodes, counters);
    let (right, rb) = emit_treelet_node(prims, codes, mid, end, max_leaf_size, nodes, counters);
    let bounds = lb.union(&rb);
    nodes[node_index as usize] = BvhNode {
        bounds,
        kind: NodeKind::Internal { left, right },
    };
    (node_index, bounds)
}

/// Stitch the top levels sequentially and splice the treelet arenas into the
/// final node array, fixing up each arena's local child indices by its base
/// offset.  The walk is the same pre-order as the sequential emitter, so the
/// final array is bit-identical to the sequential layout.
fn splice_top(
    plan: &TopPlan,
    arenas: &[TreeletArena],
    nodes: &mut Vec<BvhNode>,
    counters: &mut WorkCounters,
) -> (u32, Aabb) {
    match plan {
        TopPlan::Treelet { idx } => {
            let arena = &arenas[*idx];
            let base = nodes.len() as u32;
            for node in &arena.nodes {
                let mut patched = *node;
                if let NodeKind::Internal { left, right } = patched.kind {
                    patched.kind = NodeKind::Internal {
                        left: left + base,
                        right: right + base,
                    };
                }
                nodes.push(patched);
            }
            sat_bump(&mut counters.build_splice_ops, arena.nodes.len() as u64);
            (base, arena.nodes[0].bounds)
        }
        TopPlan::Internal { left, right } => {
            let node_index = nodes.len() as u32;
            sat_bump(&mut counters.build_node_ops, 1);
            nodes.push(BvhNode {
                bounds: Aabb::EMPTY,
                kind: NodeKind::Leaf {
                    first_prim: 0,
                    prim_count: 0,
                },
            });
            let (l, lb) = splice_top(left, arenas, nodes, counters);
            let (r, rb) = splice_top(right, arenas, nodes, counters);
            let bounds = lb.union(&rb);
            nodes[node_index as usize] = BvhNode {
                bounds,
                kind: NodeKind::Internal { left: l, right: r },
            };
            (node_index, bounds)
        }
    }
}

/// Treelet-parallel LBVH emit over an already-sorted range: plan treelets at
/// high Morton-bit boundaries, emit every treelet's subtree in parallel into
/// its own arena (each under its own `lbvh_build` telemetry span), then
/// stitch and splice sequentially.
fn emit_treelets_parallel(
    prims: &[Sphere],
    codes: &[u32],
    max_leaf_size: usize,
    workers: usize,
    counters: &mut WorkCounters,
    telemetry: &Telemetry,
) -> Vec<BvhNode> {
    let n = prims.len();
    let target = (n / (workers.max(1) * 4))
        .max(max_leaf_size)
        .max(MIN_TREELET);
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let plan = plan_treelets(codes, 0, n, target, &mut ranges);
    let arenas: Vec<TreeletArena> = (0..ranges.len())
        .into_par_iter()
        .map(|i| {
            let (start, end) = ranges[i];
            let mut span = telemetry.span(PhaseKind::LbvhBuild);
            let mut arena = TreeletArena {
                nodes: Vec::with_capacity(2 * (end - start)),
                counters: WorkCounters::ZERO,
            };
            emit_treelet_node(
                prims,
                codes,
                start,
                end,
                max_leaf_size,
                &mut arena.nodes,
                &mut arena.counters,
            );
            span.add_counters(arena.counters);
            arena
        })
        .collect();
    for arena in &arenas {
        *counters += arena.counters;
    }
    let mut nodes = Vec::with_capacity(2 * n.max(1));
    splice_top(&plan, &arenas, &mut nodes, counters);
    nodes
}

/// Build an LBVH over primitives that are *already* in Morton order — the
/// single internal entry point every LBVH consumer funnels through
/// ([`LbvhBuilder::build`] after its encode/sort, and the sharded backend
/// for each BLAS slice).
///
/// Because `morton_split` depends only on the codes within a range (and
/// splits identical-code runs at the range midpoint, which is invariant
/// under re-indexing), every BLAS is bit-identical to the corresponding
/// subtree of the flat LBVH over the same data — the property the sharded
/// backend's counter-identity guarantees rest on.
///
/// `counters` seeds the build counters (the caller charges the global encode
/// and sort there); the emit adds `build_prims` and `build_node_ops` on top.
/// `parallelism` selects between the sequential recursive emit and the
/// treelet-parallel emit; both produce bit-identical nodes, primitive order
/// and counters (the parallel path additionally charges the parallel-only
/// `build_splice_ops`).
pub(crate) fn lbvh_from_sorted(
    sorted_prims: Vec<Sphere>,
    sorted_codes: Vec<u32>,
    max_leaf_size: usize,
    counters: WorkCounters,
    parallelism: BuildParallelism,
    telemetry: &Telemetry,
) -> Result<Bvh> {
    validate_prims(&sorted_prims)?;
    debug_assert_eq!(sorted_prims.len(), sorted_codes.len());
    let workers = parallelism.resolved();
    if workers <= 1 {
        return Ok(finish_build(
            BuilderKind::Lbvh,
            sorted_prims,
            max_leaf_size,
            move |_prims, start, end, _counters| {
                Some(LbvhBuilder::morton_split(&sorted_codes, start, end))
            },
            counters,
        ));
    }
    let mut counters = counters;
    sat_bump(&mut counters.build_prims, sorted_prims.len() as u64);
    let nodes = emit_treelets_parallel(
        &sorted_prims,
        &sorted_codes,
        max_leaf_size.max(1),
        workers,
        &mut counters,
        telemetry,
    );
    Ok(Bvh {
        nodes,
        primitives: sorted_prims,
        builder: BuilderKind::Lbvh,
        build_counters: counters,
    })
}

impl LbvhBuilder {
    /// Build with an explicit telemetry handle so the parallel emitter can
    /// record its per-treelet spans; [`BvhBuilder::build`] delegates here
    /// with telemetry disabled.
    pub fn build_with_telemetry(&self, prims: Vec<Sphere>, telemetry: &Telemetry) -> Result<Bvh> {
        validate_prims(&prims)?;
        let mut counters = WorkCounters::ZERO;
        let workers = self.parallelism.resolved();
        let (sorted_prims, sorted_codes) = morton_order(&prims, workers, &mut counters);
        lbvh_from_sorted(
            sorted_prims,
            sorted_codes,
            self.max_leaf_size,
            counters,
            self.parallelism,
            telemetry,
        )
    }
}

impl BvhBuilder for LbvhBuilder {
    fn build(&self, prims: Vec<Sphere>) -> Result<Bvh> {
        self.build_with_telemetry(prims, &Telemetry::disabled())
    }

    fn kind(&self) -> BuilderKind {
        BuilderKind::Lbvh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::validate;
    use crate::geometry::Point3;

    fn grid_spheres(n_side: usize, radius: f32) -> Vec<Sphere> {
        let mut out = Vec::new();
        let mut idx = 0u32;
        for i in 0..n_side {
            for j in 0..n_side {
                out.push(Sphere::new(
                    Point3::new(i as f32, j as f32, 0.0),
                    radius,
                    idx,
                ));
                idx += 1;
            }
        }
        out
    }

    fn builders() -> Vec<(&'static str, Box<dyn BvhBuilder>)> {
        vec![
            ("median", Box::new(MedianSplitBuilder::default())),
            ("sah", Box::new(SahBuilder::default())),
            ("lbvh", Box::new(LbvhBuilder::default())),
        ]
    }

    #[test]
    fn empty_scene_is_rejected() {
        for (name, b) in builders() {
            assert_eq!(b.build(vec![]).unwrap_err(), Error::EmptyScene, "{name}");
        }
    }

    #[test]
    fn invalid_primitives_are_rejected() {
        let bad_center = vec![Sphere::new(Point3::new(f32::NAN, 0.0, 0.0), 1.0, 0)];
        let bad_radius = vec![Sphere::new(Point3::ORIGIN, -1.0, 0)];
        for (name, b) in builders() {
            assert!(
                matches!(
                    b.build(bad_center.clone()),
                    Err(Error::InvalidPrimitive { index: 0, .. })
                ),
                "{name} centre"
            );
            assert!(
                matches!(
                    b.build(bad_radius.clone()),
                    Err(Error::InvalidPrimitive { index: 0, .. })
                ),
                "{name} radius"
            );
        }
    }

    #[test]
    fn single_primitive_builds_single_leaf() {
        for (name, b) in builders() {
            let bvh = b
                .build(vec![Sphere::new(Point3::new(1.0, 2.0, 3.0), 0.5, 0)])
                .unwrap();
            assert_eq!(bvh.node_count(), 1, "{name}");
            assert!(bvh.nodes[0].is_leaf(), "{name}");
            validate(&bvh).unwrap();
        }
    }

    #[test]
    fn all_builders_produce_valid_trees_on_grid() {
        let spheres = grid_spheres(20, 0.4);
        for (name, b) in builders() {
            let bvh = b.build(spheres.clone()).unwrap();
            validate(&bvh).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(bvh.primitive_count(), 400, "{name}");
            assert_eq!(bvh.builder, b.kind(), "{name}");
            assert!(bvh.build_counters.build_prims == 400, "{name}");
            assert!(bvh.build_counters.build_node_ops > 0, "{name}");
        }
    }

    #[test]
    fn all_builders_handle_coincident_points() {
        // 1000 copies of the same point — the NGSIM-style degenerate case.
        let spheres: Vec<Sphere> = (0..1000)
            .map(|i| Sphere::new(Point3::new(5.0, 5.0, 0.0), 0.1, i as u32))
            .collect();
        for (name, b) in builders() {
            let bvh = b.build(spheres.clone()).unwrap();
            validate(&bvh).unwrap_or_else(|e| panic!("{name}: {e}"));
            // The tree must stay shallow-ish (no linear chains).
            assert!(bvh.depth() < 64, "{name}: depth {}", bvh.depth());
        }
    }

    #[test]
    fn leaf_size_is_respected_where_splittable() {
        let spheres = grid_spheres(8, 0.3);
        let bvh = SahBuilder {
            max_leaf_size: 2,
            bins: 8,
        }
        .build(spheres)
        .unwrap();
        for node in &bvh.nodes {
            if let NodeKind::Leaf { prim_count, .. } = node.kind {
                // Grid points are distinct, so every leaf can reach the target.
                assert!(prim_count <= 2, "leaf of size {prim_count}");
            }
        }
    }

    #[test]
    fn sah_tree_is_no_worse_than_median_on_clustered_data() {
        // Two well-separated clusters: SAH must separate them at the root.
        let mut spheres = Vec::new();
        for i in 0..64 {
            spheres.push(Sphere::new(
                Point3::new(i as f32 * 0.01, 0.0, 0.0),
                0.1,
                i as u32,
            ));
        }
        for i in 0..64 {
            spheres.push(Sphere::new(
                Point3::new(100.0 + i as f32 * 0.01, 0.0, 0.0),
                0.1,
                64 + i as u32,
            ));
        }
        let sah = SahBuilder::default().build(spheres).unwrap();
        if let NodeKind::Internal { left, right } = sah.nodes[0].kind {
            let lb = sah.nodes[left as usize].bounds;
            let rb = sah.nodes[right as usize].bounds;
            assert!(!lb.intersects_aabb(&rb), "SAH should separate the clusters");
        } else {
            panic!("root should be internal");
        }
    }

    #[test]
    fn morton_split_midpoint_for_identical_codes() {
        let codes = vec![7u32; 10];
        assert_eq!(LbvhBuilder::morton_split(&codes, 0, 10), 5);
    }

    #[test]
    fn morton_split_separates_differing_prefix() {
        let codes = vec![0, 0, 0, 8, 8, 8];
        let split = LbvhBuilder::morton_split(&codes, 0, 6);
        assert_eq!(split, 3);
    }

    #[test]
    fn partition_helper() {
        let mut v = vec![5, 1, 4, 2, 3];
        let k = itertools_partition(&mut v, |&x| x <= 2);
        assert_eq!(k, 2);
        let (front, back) = v.split_at(k);
        assert!(front.iter().all(|&x| x <= 2));
        assert!(back.iter().all(|&x| x > 2));
    }
}
