//! BVH builders.

use crate::bvh::compact::{compact_coincident, compact_sorted};
use crate::bvh::{spheres_from_points, Bvh, BvhNode, NodeKind};
use crate::error::{Error, Result};
use crate::geometry::{fill_lane, morton_sort, radix_sort_ops, Aabb, Point3, Sphere};
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
}

impl std::fmt::Display for BuilderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuilderKind::Lbvh => write!(f, "LBVH"),
            BuilderKind::BinnedSah => write!(f, "binned-SAH"),
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
    /// Single-threaded build (the default).
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
    validate_spheres(prims.iter().map(|s| (s.center, s.radius)))
}

/// The per-sphere checks of [`validate_prims`], in order, over `(centre,
/// radius)` pairs.
fn validate_spheres(spheres: impl Iterator<Item = (Point3, f32)>) -> Result<()> {
    for (i, (center, radius)) in spheres.enumerate() {
        if !center.is_finite() {
            return Err(Error::InvalidPrimitive {
                index: i,
                reason: "non-finite sphere centre".into(),
            });
        }
        if !radius.is_finite() || radius < 0.0 {
            return Err(Error::InvalidPrimitive {
                index: i,
                reason: format!("invalid radius {radius}"),
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

/// Top-down recursive emitter of the SAH build: given a primitive array
/// that the builder is allowed to reorder, recursively partition
/// `[start, end)` and append nodes, folding each node's bounds over its
/// whole range.
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
    /// bit-identical for every setting; `Sequential` (the default) runs it
    /// on one thread.
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

/// Charge the Morton pass over `n` primitives sorted in `workers` logical
/// chunks: one `misc_ops` per encode, the radix sort's scatters as
/// `build_sort_ops` and, when the sort runs chunked, the merges of its four
/// digit-major prefix sums (256 digits × chunks each) as
/// `build_chunk_merges`.  A build charges the primitives its tree holds —
/// the representatives, under compaction — whatever the pass sorted.
pub(crate) fn charge_morton_pass(n: usize, workers: usize, counters: &mut WorkCounters) {
    sat_bump(&mut counters.misc_ops, n as u64);
    sat_bump(&mut counters.build_sort_ops, radix_sort_ops(n));
    let chunks = workers.min(n);
    if chunks > 1 {
        sat_bump(&mut counters.build_chunk_merges, 4 * 256 * chunks as u64);
    }
}

/// The Morton-ordered lanes an LBVH emit or a shard cut reads: the
/// primitives `sphere(lane, perm[k])`, then the codes `keys[perm[k]]`
/// written into `lane` — the sort's spent ping-pong lane, which `sphere`
/// may still read — each gathered chunk-parallel over `workers`.
fn gather_sorted(
    perm: &[u32],
    keys: &[u32],
    workers: usize,
    mut lane: Vec<u32>,
    sphere: impl Fn(&[u32], usize) -> Sphere + Sync,
) -> (Vec<Sphere>, Vec<u32>) {
    let mut prims = Vec::new();
    fill_lane(&mut prims, perm.len(), workers, |k| {
        sphere(&lane, perm[k] as usize)
    });
    fill_lane(&mut lane, perm.len(), workers, |k| keys[perm[k] as usize]);
    (prims, lane)
}

/// Morton order of primitives a caller already wrapped in spheres, for
/// [`LbvhBuilder::build`] and [`crate::bvh::plan_shards`]: one
/// [`morton_sort`] over the centroids, charged to `counters`, and the
/// sorted primitive and code lanes.  The lanes are the same for every
/// `workers` value.
pub(crate) fn morton_order(
    prims: &[Sphere],
    workers: usize,
    counters: &mut WorkCounters,
) -> (Vec<Sphere>, Vec<u32>) {
    let (mut keys, mut perm, mut buf) = (Vec::new(), Vec::new(), Vec::new());
    morton_sort(prims, |s| s.center, workers, &mut keys, &mut perm, &mut buf);
    charge_morton_pass(prims.len(), workers, counters);
    gather_sorted(&perm, &keys, workers, buf, |_, i| prims[i])
}

/// The primitives a BVH index builds over, from [`scene_from_points`].
pub(crate) struct PointScene {
    /// One ε-sphere per representative (per point without compaction).
    pub(crate) prims: Vec<Sphere>,
    /// The Morton code of each primitive when the scene is in Morton order;
    /// `None` when it is in ascending point order.
    pub(crate) codes: Option<Vec<u32>>,
    /// `representative_of[i]` is the primitive standing for point `i`.
    pub(crate) representative_of: Vec<u32>,
    /// For a sorted scene, the Morton pass's permutation of **all** input
    /// points in `(code, index)` order, duplicates included: the order a
    /// Morton launch of the points themselves would sort them into.
    /// `None` when the scene skipped the pass or took it unsorted.
    pub(crate) order: Option<Vec<u32>>,
    /// Compaction's charges, plus the Morton pass's for a sorted scene.
    pub(crate) counters: WorkCounters,
}

/// The build front end of the BVH indexes: wrap `points` in ε-spheres of
/// `radius`, merging exactly coincident points when `compaction` is set,
/// in Morton order when `sorted` is set (for the LBVH emit and the shard
/// cut) and in ascending point order otherwise (for SAH).
///
/// Compaction and the Morton order come from one [`morton_sort`] over the
/// points: compaction groups the runs of equal codes in it and keeps the
/// representatives in `(code, index)` order.  That is the order a second
/// sort of the compacted spheres would give: duplicates share coordinates,
/// so the bounds over all points equal the bounds over the representatives
/// (up to the sign of a zero, which never changes a code), and the
/// representatives, emitted in ascending index order, keep their codes.  An
/// unsorted compacting scene takes [`compact_coincident`]'s spheres — the
/// same pass on one worker, in ascending point order — and an unsorted
/// scene without compaction skips the pass.
///
/// A sorted scene also returns the pass's full permutation, taken before
/// compaction drops the duplicates from it.
///
/// Charges `compaction_merges` and one `build_prims` per merged point (the
/// bounds program still runs once per input primitive before the device
/// merges duplicates), and for a sorted scene the Morton pass over its
/// primitives ([`charge_morton_pass`]).  Before the pass, rejects
/// non-finite points and a bad radius as [`validate_prims`] would, naming
/// the point; an empty input gives an empty scene.
pub(crate) fn scene_from_points(
    points: &[Point3],
    radius: f32,
    compaction: bool,
    sorted: bool,
    workers: usize,
) -> Result<PointScene> {
    let n = points.len();
    let mut counters = WorkCounters::ZERO;
    if !compaction && !sorted {
        return Ok(PointScene {
            prims: spheres_from_points(points, radius),
            codes: None,
            representative_of: (0..n as u32).collect(),
            order: None,
            counters,
        });
    }
    validate_spheres(points.iter().map(|&p| (p, radius)))?;
    let mut charge_merges = |merged: u64| {
        sat_bump(&mut counters.compaction_merges, merged);
        sat_bump(&mut counters.build_prims, merged);
    };
    if !sorted {
        let c = compact_coincident(points, radius);
        charge_merges(c.merged);
        return Ok(PointScene {
            prims: c.spheres,
            codes: None,
            representative_of: c.representative_of,
            order: None,
            counters,
        });
    }
    let (mut keys, mut perm, mut buf) = (Vec::new(), Vec::new(), Vec::new());
    morton_sort(points, |&p| p, workers, &mut keys, &mut perm, &mut buf);
    // Compaction keeps only the representatives in `perm`; the full order
    // is kept for the launches first.
    let full_order = compaction.then(|| perm.clone());
    let representative_of = if compaction {
        // The sort's spent ping-pong lane holds the multiplicities until
        // the gather turns it into the code lane.
        let representative_of = compact_sorted(points, &keys, &mut perm, &mut buf);
        charge_merges((n - perm.len()) as u64);
        representative_of
    } else {
        (0..n as u32).collect()
    };
    charge_morton_pass(perm.len(), workers, &mut counters);
    let (prims, codes) = gather_sorted(&perm, &keys, workers, buf, |multiplicity, i| Sphere {
        multiplicity: if compaction { multiplicity[i] } else { 1 },
        ..Sphere::new(points[i], radius, i as u32)
    });
    Ok(PointScene {
        prims,
        codes: Some(codes),
        representative_of,
        order: Some(full_order.unwrap_or(perm)),
        counters,
    })
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
/// folds its primitive range exactly like the top-down emitter SAH uses,
/// and an internal node unions its children's bounds instead of re-folding
/// its whole range.  The two are bit-identical because the fold is a
/// min/max reduction over a fixed index order — reassociating it cannot
/// change the result on the finite values `validate_prims` admits — and it
/// turns the O(n·depth) bound refolds into O(n + nodes) work.
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

/// Build an LBVH over primitives that are *already* in Morton order,
/// `codes[k]` being the code of `sorted_prims[k]` — the one LBVH emitter
/// behind [`LbvhBuilder::build`], the flat index front end and every shard
/// BLAS.
///
/// Because `morton_split` depends only on the codes within a range (and
/// splits identical-code runs at the range midpoint, which is invariant
/// under re-indexing), every BLAS is bit-identical to the corresponding
/// subtree of the flat LBVH over the same data — the property the sharded
/// backend's counter-identity guarantees rest on.
///
/// `counters` seeds the build counters (a caller that sorted charges its
/// Morton pass there); the emit adds `build_prims` and one `build_node_ops`
/// per node.  With one logical worker the whole range is one treelet,
/// emitted with bottom-up bounds.  With more, treelets are cut along the
/// same splits, emitted in parallel (each under its own `lbvh_build` span)
/// and spliced, which also charges the parallel-only `build_splice_ops`;
/// the nodes, the primitive order and every other counter are the same.
pub(crate) fn lbvh_from_sorted(
    sorted_prims: Vec<Sphere>,
    codes: &[u32],
    max_leaf_size: usize,
    counters: WorkCounters,
    parallelism: BuildParallelism,
    telemetry: &Telemetry,
) -> Result<Bvh> {
    validate_prims(&sorted_prims)?;
    debug_assert_eq!(sorted_prims.len(), codes.len());
    let n = sorted_prims.len();
    let max_leaf_size = max_leaf_size.max(1);
    let workers = parallelism.resolved();
    let mut counters = counters;
    sat_bump(&mut counters.build_prims, n as u64);
    let nodes = if workers <= 1 {
        let mut nodes = Vec::with_capacity(2 * n);
        emit_treelet_node(
            &sorted_prims,
            codes,
            0,
            n,
            max_leaf_size,
            &mut nodes,
            &mut counters,
        );
        nodes
    } else {
        emit_treelets_parallel(
            &sorted_prims,
            codes,
            max_leaf_size,
            workers,
            &mut counters,
            telemetry,
        )
    };
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
        let (sorted_prims, codes) =
            morton_order(&prims, self.parallelism.resolved(), &mut counters);
        drop(prims);
        lbvh_from_sorted(
            sorted_prims,
            &codes,
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

    /// The LBVH emitter on one worker against an independent reference:
    /// the SAH build's top-down emitter, which refolds every range's
    /// bounds, splitting with `morton_split`.  Node for node, primitive
    /// order and counters agree, and no splice is charged.
    #[test]
    fn single_treelet_emit_matches_the_refolding_emitter() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) % 64) as f32 * 0.25
        };
        // Duplicate piles, a partly flat z axis and coarse coordinates, so
        // runs of identical codes are common.
        let spheres: Vec<Sphere> = (0..3000)
            .map(|i| {
                let c = if i % 9 == 0 {
                    Point3::new(3.0, 3.0, 0.0)
                } else {
                    let z = if i % 2 == 0 { 0.0 } else { next() };
                    Point3::new(next(), next(), z)
                };
                Sphere::new(c, 0.3, i as u32)
            })
            .collect();
        for max_leaf in [1usize, 2, 4, 7] {
            let mut seed = WorkCounters::ZERO;
            let (sorted, codes) = morton_order(&spheres, 1, &mut seed);
            let reference = finish_build(
                BuilderKind::Lbvh,
                sorted.clone(),
                max_leaf,
                |_, start, end, _| Some(LbvhBuilder::morton_split(&codes, start, end)),
                seed,
            );
            let emitted = lbvh_from_sorted(
                sorted,
                &codes,
                max_leaf,
                seed,
                BuildParallelism::Sequential,
                &Telemetry::disabled(),
            )
            .unwrap();
            validate(&emitted).unwrap();
            assert_eq!(emitted.nodes, reference.nodes, "max_leaf={max_leaf}");
            assert_eq!(emitted.primitives, reference.primitives);
            assert_eq!(emitted.build_counters, reference.build_counters);
            assert_eq!(emitted.build_counters.build_splice_ops, 0);
        }
    }

    /// The Morton pass charges a build `(build_sort_ops,
    /// build_chunk_merges)`: four scatters per sorted primitive (none for
    /// one) and, when the sort runs in `min(workers, n)` > 1 chunks, the
    /// merges of its four digit-major prefix sums, 256 digits × chunks each.
    fn morton_pass_charges(n: usize, workers: usize) -> (u64, u64) {
        let chunks = workers.min(n) as u64;
        let merges = if chunks > 1 { 4 * 256 * chunks } else { 0 };
        (if n > 1 { 4 * n as u64 } else { 0 }, merges)
    }

    const PARALLELISMS: [BuildParallelism; 4] = [
        BuildParallelism::Sequential,
        BuildParallelism::Threads(2),
        BuildParallelism::Threads(3),
        BuildParallelism::Threads(8),
    ];

    #[test]
    fn lbvh_and_shard_plan_charge_their_morton_pass() {
        for n_side in [1usize, 2, 3, 20] {
            let spheres = grid_spheres(n_side, 0.4);
            let n = spheres.len();
            for parallelism in PARALLELISMS {
                let workers = parallelism.resolved();
                let (sort_ops, merges) = morton_pass_charges(n, workers);
                let bvh = LbvhBuilder {
                    max_leaf_size: 4,
                    parallelism,
                }
                .build(spheres.clone())
                .unwrap();
                let c = bvh.build_counters;
                assert_eq!(c.build_sort_ops, sort_ops, "n={n} workers={workers}");
                assert_eq!(c.build_chunk_merges, merges, "n={n} workers={workers}");
                assert_eq!(c.misc_ops, n as u64, "n={n} workers={workers}");
                let plan = crate::bvh::plan_shards_with(spheres.clone(), 16, parallelism).unwrap();
                let c = plan.counters;
                assert_eq!(c.build_sort_ops, sort_ops, "plan n={n} workers={workers}");
                assert_eq!(c.build_chunk_merges, merges, "plan n={n} workers={workers}");
                assert_eq!(c.misc_ops, n as u64, "plan n={n} workers={workers}");
            }
        }
    }

    /// The compacting front end sorts every input point but charges the
    /// Morton pass over the representatives, as a sort of the compacted
    /// spheres would be charged.
    #[test]
    fn compacting_front_end_charges_its_morton_pass_over_the_representatives() {
        let pile = |i: usize| Point3::new((i % 3) as f32, 1.0, 0.0);
        let mixed = |i: usize| {
            if i.is_multiple_of(4) {
                Point3::new(-0.0, 0.0, 0.0)
            } else {
                Point3::new((i % 50) as f32, (i % 7) as f32 * 0.5, 0.0)
            }
        };
        for points in [
            vec![Point3::new(0.5, 0.5, 0.5); 40],
            (0..600).map(pile).collect(),
            (0..600).map(mixed).collect(),
        ] {
            let n = points.len();
            let reps = points
                .iter()
                .map(|p| p.bit_key())
                .collect::<std::collections::HashSet<_>>()
                .len();
            for parallelism in PARALLELISMS {
                let workers = parallelism.resolved();
                let (sort_ops, merges) = morton_pass_charges(reps, workers);
                let at = format!("reps={reps} workers={workers}");
                let scene = scene_from_points(&points, 0.25, true, true, workers).unwrap();
                assert_eq!(scene.prims.len(), reps);
                let c = scene.counters;
                assert_eq!(c.build_sort_ops, sort_ops, "{at}");
                assert_eq!(c.build_chunk_merges, merges, "{at}");
                assert_eq!(c.misc_ops, reps as u64, "{at}");
                assert_eq!(c.compaction_merges, (n - reps) as u64);
                assert_eq!(c.build_prims, (n - reps) as u64);
            }
        }
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
