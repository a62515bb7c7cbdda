//! Wide (BVH4) acceleration structures.
//!
//! Real RT cores do not walk binary trees: their node format packs several
//! child bounding boxes into one cache line and the box unit tests a ray
//! against all of them in lockstep.  This module provides the software
//! analogue — a 4-wide BVH obtained by *collapsing* any binary [`Bvh`]
//! produced by the builders in [`crate::bvh`]:
//!
//! # Collapse rules
//!
//! Starting from a binary node, its two children form the initial child set;
//! while the set holds fewer than four entries, the internal member whose
//! AABB has the largest surface area is replaced by its own two children
//! (expanding the fattest box first minimises the area the packed node
//! exposes to rays).  Leaves are never expanded — they become leaf slots
//! whose ranges index the scene's structure-of-arrays primitive lanes
//! ([`PrimLanes`]), staged in the source tree's primitive order (so a
//! collapse cannot reorder hits).  The lanes are the wide scene's only copy
//! of its primitives: once collapsed, the scene lives independently of the
//! binary tree, which its owner drops.
//! A set that still has fewer than four members is padded with
//! [`WideChild::Empty`] slots whose lanes hold the empty AABB (rejected by
//! every overlap test for free).
//!
//! # Node layout
//!
//! [`WideNode`] stores the four child AABBs in structure-of-arrays form:
//! six lanes of `[f32; 4]` (min x/y/z, max x/y/z).  A point-in-box test
//! against all four children is then four compares per lane over contiguous
//! memory — the exact shape SIMD units and RT-core box testers consume.
//! Child references are packed `u32` payloads tagged by [`WideChild`].
//!
//! # Maintenance in place
//!
//! [`WideBvh::remove_points`] refits the wide scene without a binary tree:
//! it compacts each leaf's survivors in the lanes, then recomputes every
//! slot box in one reverse sweep over the node array — a child's index is
//! always larger than its parent's, so children are refitted first.  A
//! slot that loses its last primitive becomes [`WideChild::Empty`], and
//! nodes cut off that way are pruned, so every [`validate_wide`] invariant
//! survives.
//!
//! # Cost model
//!
//! Traversal over a `WideBvh` counts one
//! [`crate::hardware::WorkCounters::wide_node_visits`] per node visit
//! (instead of the binary `node_visits`); the device model charges a wide
//! visit at a configurable fraction of the four binary visits it replaces
//! ([`crate::hardware::CostProfile::wide_visit_fraction`]), which is what
//! lets benches demonstrate the simulated-device win of wide nodes.

use crate::bvh::refit::RefitStats;
use crate::bvh::{Bvh, NodeKind};
use crate::geometry::{Aabb, Point3, Sphere};
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;
use crate::simd::{SimdLevel, LANE_PADDING};
use crate::telemetry::{PhaseKind, Telemetry};
use rayon::prelude::*;

/// Branching factor of the wide format.
pub const WIDE_BRANCHING: usize = 4;

/// One slot of a wide node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WideChild {
    /// An interior child: index into [`WideBvh::nodes`].
    Node(u32),
    /// A leaf child owning a contiguous primitive range.
    Leaf {
        /// Index of the first primitive.
        first_prim: u32,
        /// Number of primitives.
        prim_count: u32,
    },
    /// An unused slot (the node has fewer than four real children).
    Empty,
}

/// A 4-wide BVH node: four child AABBs in SoA lanes plus packed child
/// references.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WideNode {
    /// Minimum corners of the four child AABBs, one lane per axis.
    pub min_lanes: [[f32; 4]; 3],
    /// Maximum corners of the four child AABBs, one lane per axis.
    pub max_lanes: [[f32; 4]; 3],
    /// The four child references.
    pub children: [WideChild; 4],
}

impl WideNode {
    /// A node with every slot empty.
    pub const EMPTY: WideNode = WideNode {
        min_lanes: [[f32::INFINITY; 4]; 3],
        max_lanes: [[f32::NEG_INFINITY; 4]; 3],
        children: [WideChild::Empty; 4],
    };

    /// Store `bounds` into child slot `slot`.
    fn set_bounds(&mut self, slot: usize, bounds: &Aabb) {
        self.min_lanes[0][slot] = bounds.min.x;
        self.min_lanes[1][slot] = bounds.min.y;
        self.min_lanes[2][slot] = bounds.min.z;
        self.max_lanes[0][slot] = bounds.max.x;
        self.max_lanes[1][slot] = bounds.max.y;
        self.max_lanes[2][slot] = bounds.max.z;
    }

    /// Union of the four child boxes (empty slots add nothing).
    pub(crate) fn bounds(&self) -> Aabb {
        (0..WIDE_BRANCHING).fold(Aabb::EMPTY, |acc, slot| acc.union(&self.child_bounds(slot)))
    }

    /// Reconstruct the AABB of child slot `slot`.
    pub fn child_bounds(&self, slot: usize) -> Aabb {
        Aabb {
            min: Point3::new(
                self.min_lanes[0][slot],
                self.min_lanes[1][slot],
                self.min_lanes[2][slot],
            ),
            max: Point3::new(
                self.max_lanes[0][slot],
                self.max_lanes[1][slot],
                self.max_lanes[2][slot],
            ),
        }
    }

    /// Test a query point against all four child boxes at once, returning a
    /// 4-bit hit mask (bit `i` set ⇔ `p` inside child `i`'s box).  Empty
    /// slots hold inverted boxes and can never set their bit.
    ///
    /// This is the software stand-in for the lockstep box test an RT core's
    /// wide node unit performs; it compiles to branch-free lane compares.
    #[inline]
    pub fn point_hit_mask(&self, p: Point3) -> u8 {
        self.point_hit_mask_xyz(p.x, p.y, p.z)
    }

    /// [`WideNode::point_hit_mask`] over already-unpacked coordinates — the
    /// form the batched engine feeds from its SoA-staged query lanes, so
    /// the compare chain reads nothing but contiguous `f32` arrays.
    #[inline]
    pub fn point_hit_mask_xyz(&self, x: f32, y: f32, z: f32) -> u8 {
        let mut mask = 0u8;
        for slot in 0..WIDE_BRANCHING {
            // Bitwise (non-short-circuit) combine: all six lane compares
            // run branch-free so the 4-slot loop vectorises.
            let inside = (x >= self.min_lanes[0][slot])
                & (x <= self.max_lanes[0][slot])
                & (y >= self.min_lanes[1][slot])
                & (y <= self.max_lanes[1][slot])
                & (z >= self.min_lanes[2][slot])
                & (z <= self.max_lanes[2][slot]);
            mask |= (inside as u8) << slot;
        }
        mask
    }

    /// Explicit SSE2 form of [`WideNode::point_hit_mask_xyz`]: the six SoA
    /// lanes feed six 128-bit compares, bit-identical to the scalar path
    /// (same `>=`/`<=` predicates, false on NaN, empty slots hold inverted
    /// boxes).  SSE2 is part of the `x86_64` baseline, so this needs no
    /// runtime detection.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub fn point_hit_mask_xyz_sse2(&self, x: f32, y: f32, z: f32) -> u8 {
        use std::arch::x86_64::*;
        // SAFETY: SSE2 is unconditionally available on x86_64, and the six
        // lane loads read the node's own `[f32; 4]` arrays.
        unsafe {
            let q = [_mm_set1_ps(x), _mm_set1_ps(y), _mm_set1_ps(z)];
            let mut inside = _mm_castsi128_ps(_mm_set1_epi32(-1));
            for (axis, &qv) in q.iter().enumerate() {
                let lo = _mm_loadu_ps(self.min_lanes[axis].as_ptr());
                let hi = _mm_loadu_ps(self.max_lanes[axis].as_ptr());
                inside = _mm_and_ps(inside, _mm_cmpge_ps(qv, lo));
                inside = _mm_and_ps(inside, _mm_cmple_ps(qv, hi));
            }
            _mm_movemask_ps(inside) as u8
        }
    }

    /// AVX form of the hit mask: the x and y axes (eight contiguous `f32`
    /// lanes in both `min_lanes` and `max_lanes`) are tested in one 256-bit
    /// compare pair, the z axis in a 128-bit pair.  Bit-identical to the
    /// scalar path.
    ///
    /// # Safety
    /// The CPU must support AVX2 (the callers resolve a
    /// [`crate::simd::SimdPolicy`] once per launch before selecting this
    /// kernel).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub unsafe fn point_hit_mask_xyz_avx2(&self, x: f32, y: f32, z: f32) -> u8 {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees AVX2; loads read the node's own lane
        // arrays ([[f32; 4]; 3] is 12 contiguous floats).
        unsafe {
            let qxy = _mm256_set_m128(_mm_set1_ps(y), _mm_set1_ps(x));
            let lo_xy = _mm256_loadu_ps(self.min_lanes.as_ptr().cast::<f32>());
            let hi_xy = _mm256_loadu_ps(self.max_lanes.as_ptr().cast::<f32>());
            let in_xy = _mm256_and_ps(
                _mm256_cmp_ps(qxy, lo_xy, _CMP_GE_OQ),
                _mm256_cmp_ps(qxy, hi_xy, _CMP_LE_OQ),
            );
            let m = _mm256_movemask_ps(in_xy) as u32;
            let qz = _mm_set1_ps(z);
            let in_z = _mm_and_ps(
                _mm_cmpge_ps(qz, _mm_loadu_ps(self.min_lanes[2].as_ptr())),
                _mm_cmple_ps(qz, _mm_loadu_ps(self.max_lanes[2].as_ptr())),
            );
            (m & (m >> 4) & _mm_movemask_ps(in_z) as u32) as u8
        }
    }

    /// Dispatch the hit mask through the kernel for `level` (resolved once
    /// per launch by the caller).
    #[inline]
    pub fn point_hit_mask_xyz_at(&self, level: SimdLevel, x: f32, y: f32, z: f32) -> u8 {
        match level {
            SimdLevel::Scalar => self.point_hit_mask_xyz(x, y, z),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => self.point_hit_mask_xyz_sse2(x, y, z),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2 is only resolved after runtime detection.
            SimdLevel::Avx2 => unsafe { self.point_hit_mask_xyz_avx2(x, y, z) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.point_hit_mask_xyz(x, y, z),
        }
    }
}

/// A collapsed 4-wide BVH: the wide nodes plus the scene's one resident
/// copy of its primitives, the SoA [`PrimLanes`].
///
/// Node 0 is the root.  The lanes hold the primitives in the order the
/// source binary tree left them, so leaf ranges mean exactly what they
/// meant there.  Nothing else is kept: the binary tree is not needed after
/// the collapse, and [`WideBvh::remove_points`] refits the wide nodes in
/// place.  [`WideBvh::device_bytes`] is therefore `size_of::<WideNode>()`
/// per node plus 20 B per lane slot.
#[derive(Debug, Clone)]
pub struct WideBvh {
    /// Flat wide-node storage; index 0 is the root.
    pub nodes: Vec<WideNode>,
    /// Bounds of the whole scene (the source tree's root bounds).
    pub scene_bounds: Aabb,
    /// The primitives in leaf order, as SoA lanes (centres,
    /// multiplicities, point ids) plus the radius they share.
    pub lanes: PrimLanes,
    /// Work the collapse performed (node emissions), for the cost model.
    pub collapse_counters: WorkCounters,
}

impl WideBvh {
    /// Collapse a binary BVH into the 4-wide format.
    ///
    /// An empty source tree yields an empty wide tree.  A source whose root
    /// is a single leaf yields one wide node with one leaf slot.
    pub fn from_binary(bvh: &Bvh) -> WideBvh {
        let mut counters = WorkCounters::ZERO;
        if bvh.nodes.is_empty() {
            return WideBvh {
                nodes: Vec::new(),
                scene_bounds: Aabb::EMPTY,
                lanes: PrimLanes::from_primitives(&[]),
                collapse_counters: counters,
            };
        }
        let mut nodes: Vec<WideNode> = Vec::with_capacity(bvh.nodes.len() / 2 + 1);
        // Worklist of (binary node to collapse, wide node slot to fill).
        nodes.push(WideNode::EMPTY);
        sat_bump(&mut counters.build_node_ops, 1);
        let mut work: Vec<(u32, u32)> = vec![(0, 0)];
        while let Some((bin_idx, wide_idx)) = work.pop() {
            collapse_step(bvh, bin_idx, wide_idx, &mut nodes, &mut work, &mut counters);
        }
        WideBvh {
            nodes,
            scene_bounds: bvh.nodes[0].bounds,
            lanes: PrimLanes::from_primitives(&bvh.primitives),
            collapse_counters: counters,
        }
    }

    /// Parallel form of [`WideBvh::from_binary`] — bit-identical output.
    ///
    /// The sequential collapse drains its worklist LIFO, so once an entry
    /// is popped its entire subtree is emitted into a contiguous node range
    /// before any earlier entry is touched.  The parallel form exploits
    /// exactly that: it runs the sequential loop only until the worklist
    /// holds enough independent subtrees (≥ 2× `workers`), collapses each
    /// frontier subtree into a local arena in parallel (each under its own
    /// [`PhaseKind::Bvh4Collapse`] span), and splices the arenas back in
    /// reverse worklist order — the order the LIFO drain would have used.
    /// Node contents, child indices, and `build_node_ops` all match the
    /// sequential result for every `workers` value; the splice copies are
    /// charged to the parallel-only `build_splice_ops` counter.
    pub fn from_binary_parallel(bvh: &Bvh, workers: usize, telemetry: &Telemetry) -> WideBvh {
        if workers <= 1 || bvh.nodes.is_empty() {
            return WideBvh::from_binary(bvh);
        }
        let mut counters = WorkCounters::ZERO;
        let mut nodes: Vec<WideNode> = Vec::with_capacity(bvh.nodes.len() / 2 + 1);
        nodes.push(WideNode::EMPTY);
        sat_bump(&mut counters.build_node_ops, 1);
        let mut work: Vec<(u32, u32)> = vec![(0, 0)];
        // Sequential prefix: stop as soon as the worklist offers enough
        // independent subtrees to occupy the workers.
        let frontier_target = workers * 2;
        while work.len() < frontier_target {
            let Some((bin_idx, wide_idx)) = work.pop() else {
                break;
            };
            collapse_step(bvh, bin_idx, wide_idx, &mut nodes, &mut work, &mut counters);
        }
        if !work.is_empty() {
            let frontier = std::mem::take(&mut work);
            // Each frontier subtree collapses into a local arena whose node
            // 0 stands for the already-allocated frontier slot and whose
            // child links are arena-local until the splice remaps them.
            let arenas: Vec<(Vec<WideNode>, WorkCounters)> = (0..frontier.len())
                .into_par_iter()
                .map(|i| {
                    let mut span = telemetry.span(PhaseKind::Bvh4Collapse);
                    let arena = collapse_arena(bvh, frontier[i].0);
                    span.add_counters(arena.1);
                    arena
                })
                .collect();
            // Splice in reverse worklist order: the LIFO drain pops the
            // most recently pushed entry first, so its subtree occupies the
            // next contiguous node range.  Arena node 0 overwrites the
            // frontier placeholder; nodes 1.. append at `base`, and local
            // child index `l` maps to `base + l - 1`.
            for (i, (arena_nodes, arena_counters)) in arenas.iter().enumerate().rev() {
                let wide_idx = frontier[i].1 as usize;
                let base = nodes.len() as u32;
                counters += *arena_counters;
                sat_bump(&mut counters.build_splice_ops, arena_nodes.len() as u64);
                for (l, arena_node) in arena_nodes.iter().enumerate() {
                    let mut node = *arena_node;
                    for child in node.children.iter_mut() {
                        if let WideChild::Node(local) = *child {
                            *child = WideChild::Node(base + local - 1);
                        }
                    }
                    if l == 0 {
                        nodes[wide_idx] = node;
                    } else {
                        nodes.push(node);
                    }
                }
            }
        }
        WideBvh {
            nodes,
            scene_bounds: bvh.nodes[0].bounds,
            lanes: PrimLanes::from_primitives(&bvh.primitives),
            collapse_counters: counters,
        }
    }

    /// Number of wide nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primitives.
    pub fn primitive_count(&self) -> usize {
        self.lanes.len()
    }

    /// Estimated device-memory footprint in bytes (wide nodes + primitive
    /// lanes).
    pub fn device_bytes(&self) -> u64 {
        std::mem::size_of::<WideNode>() as u64 * self.nodes.len() as u64 + self.lanes.device_bytes()
    }

    /// Remove every primitive whose point id satisfies `should_remove`, in
    /// place: each leaf keeps its survivors, in ascending `first_prim`
    /// order, and shrinks its count (the lanes compact stably, exactly as
    /// [`crate::bvh::refit::remove_points`] compacts a binary tree's
    /// primitive array), then one reverse sweep over the nodes recomputes
    /// every slot box (see the module docs: emptied slots become
    /// [`WideChild::Empty`] and cut-off nodes are pruned).  Charges one
    /// `refits`, one `misc_ops` per primitive tested and one
    /// `refit_node_ops` per node swept.  A scene left with no primitive has
    /// no nodes either.
    pub fn remove_points<F>(&mut self, should_remove: F, counters: &mut WorkCounters) -> RefitStats
    where
        F: Fn(u32) -> bool,
    {
        let before = self.lanes.len();
        let kept_before = self.lanes.retain(|id| !should_remove(id));
        for node in &mut self.nodes {
            for child in &mut node.children {
                if let WideChild::Leaf {
                    first_prim,
                    prim_count,
                } = child
                {
                    let lo = kept_before[*first_prim as usize];
                    let hi = kept_before[(*first_prim + *prim_count) as usize];
                    *first_prim = lo;
                    *prim_count = hi - lo;
                }
            }
        }
        let nodes_refit = self.refit(counters);
        sat_bump(&mut counters.refits, 1);
        sat_bump(&mut counters.misc_ops, before as u64);
        RefitStats {
            nodes_refit,
            prims_removed: (before - self.lanes.len()) as u64,
        }
    }

    /// One reverse sweep over the node array recomputing every child-slot
    /// box (leaf slots from their lane range, interior slots from the
    /// nested node's slots) and then `scene_bounds`.  One sweep suffices
    /// because every child sits at a larger index than its parent (the
    /// collapse allocates children after their parent, and the parallel
    /// splice preserves that).  A slot left with no primitive becomes
    /// [`WideChild::Empty`]; nodes cut off that way are pruned.  Returns
    /// the nodes swept, charged as `refit_node_ops`.
    fn refit(&mut self, counters: &mut WorkCounters) -> u64 {
        let swept = self.nodes.len() as u64;
        let mut orphaned = false;
        for i in (0..self.nodes.len()).rev() {
            let mut node = self.nodes[i];
            for slot in 0..WIDE_BRANCHING {
                let bounds = match node.children[slot] {
                    WideChild::Empty => continue,
                    WideChild::Leaf {
                        first_prim,
                        prim_count,
                    } => self.lanes.bounds(first_prim as usize, prim_count as usize),
                    WideChild::Node(child) => self.nodes[child as usize].bounds(),
                };
                if bounds.is_empty() {
                    orphaned |= matches!(node.children[slot], WideChild::Node(_));
                    node.children[slot] = WideChild::Empty;
                }
                node.set_bounds(slot, &bounds);
            }
            self.nodes[i] = node;
        }
        sat_bump(&mut counters.refit_node_ops, swept);
        self.scene_bounds = self.nodes.first().map_or(Aabb::EMPTY, WideNode::bounds);
        if self.scene_bounds.is_empty() {
            self.nodes.clear();
        } else if orphaned {
            self.prune_unreachable(counters);
        }
        swept
    }

    /// Drop the nodes a refit cut off and renumber the rest in order, so
    /// every child still follows its parent.  Charges one `misc_ops` per
    /// node scanned.
    fn prune_unreachable(&mut self, counters: &mut WorkCounters) {
        let n = self.nodes.len();
        let mut reachable = vec![false; n];
        let mut renamed = vec![0u32; n];
        reachable[0] = true;
        let mut kept = 0u32;
        for i in 0..n {
            if !reachable[i] {
                continue;
            }
            renamed[i] = kept;
            kept += 1;
            for child in &self.nodes[i].children {
                if let WideChild::Node(c) = *child {
                    reachable[c as usize] = true;
                }
            }
        }
        // `renamed[i] <= i`, so a forward copy never overwrites a node it
        // has yet to read.
        for i in 0..n {
            if !reachable[i] {
                continue;
            }
            let mut node = self.nodes[i];
            for child in node.children.iter_mut() {
                if let WideChild::Node(c) = child {
                    *c = renamed[*c as usize];
                }
            }
            self.nodes[renamed[i] as usize] = node;
        }
        self.nodes.truncate(kept as usize);
        sat_bump(&mut counters.misc_ops, n as u64);
    }
}

// ---------------------------------------------------------------------------
// Traversal-time layout: SoA primitive lanes
// ---------------------------------------------------------------------------

/// The primitives of a wide scene in structure-of-arrays form — its only
/// resident copy of them: the coordinate and multiplicity lanes the SIMD
/// leaf-run kernels consume (see [`crate::simd`]), a `u32` point-id lane,
/// and the radius every primitive shares (the build ε).  A reader that
/// wants a [`Sphere`] gets one rebuilt by value ([`PrimLanes::spheres`]);
/// its centre is the same three `f32`s, so every distance test is
/// bit-identical to one against the source sphere.
///
/// Lanes are padded with `+∞` coordinates / zero multiplicities /
/// `u32::MAX` ids so vector loads may read whole vectors past a run's end
/// without admitting phantom candidates.  Each lane slot, padding
/// included, costs 20 B.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrimLanes {
    x: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
    mult: Vec<u32>,
    /// `Sphere::point_index` of each primitive.
    ids: Vec<u32>,
    /// The radius every primitive shares.
    radius: f32,
    /// True when every primitive has multiplicity 1 (no compaction): hit
    /// counts are then plain popcounts and the multiplicity lane is never
    /// read.
    uniform: bool,
}

impl PrimLanes {
    /// Stage `primitives` (a wide scene's leaf-ordered array) into padded
    /// SoA lanes.  Every primitive must share one radius (each scene in
    /// this crate is built from ε-spheres); the first one's is kept.
    pub fn from_primitives(primitives: &[Sphere]) -> Self {
        let n = primitives.len();
        let radius = primitives.first().map_or(0.0, |p| p.radius);
        debug_assert!(
            primitives.iter().all(|p| p.radius == radius),
            "a wide scene's primitives share one radius"
        );
        let mut lanes = PrimLanes {
            x: Vec::with_capacity(n + LANE_PADDING),
            y: Vec::with_capacity(n + LANE_PADDING),
            z: Vec::with_capacity(n + LANE_PADDING),
            mult: Vec::with_capacity(n + LANE_PADDING),
            ids: Vec::with_capacity(n + LANE_PADDING),
            radius,
            uniform: true,
        };
        for p in primitives {
            lanes.x.push(p.center.x);
            lanes.y.push(p.center.y);
            lanes.z.push(p.center.z);
            lanes.mult.push(p.multiplicity);
            lanes.ids.push(p.point_index);
            lanes.uniform &= p.multiplicity == 1;
        }
        lanes.pad();
        lanes
    }

    /// Append the `LANE_PADDING` sentinel slots.
    fn pad(&mut self) {
        for _ in 0..LANE_PADDING {
            self.x.push(f32::INFINITY);
            self.y.push(f32::INFINITY);
            self.z.push(f32::INFINITY);
            self.mult.push(0);
            self.ids.push(u32::MAX);
        }
    }

    /// Number of primitives staged (padding excluded).
    pub fn len(&self) -> usize {
        self.x.len() - LANE_PADDING.min(self.x.len())
    }

    /// True when no primitives are staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Centre of primitive `i`.
    #[inline]
    pub(crate) fn center(&self, i: usize) -> Point3 {
        Point3::new(self.x[i], self.y[i], self.z[i])
    }

    /// Point id (`Sphere::point_index`) of primitive `i`.
    #[inline]
    pub(crate) fn point_index(&self, i: usize) -> u32 {
        self.ids[i]
    }

    /// Multiplicity of primitive `i`.
    #[inline]
    pub(crate) fn multiplicity(&self, i: usize) -> u32 {
        self.mult[i]
    }

    /// The primitives `[first, first + count)` rebuilt as [`Sphere`]s, in
    /// lane order.
    #[inline]
    pub fn spheres(&self, first: usize, count: usize) -> impl Iterator<Item = Sphere> + '_ {
        let end = first + count;
        let radius = self.radius;
        self.x[first..end]
            .iter()
            .zip(&self.y[first..end])
            .zip(&self.z[first..end])
            .zip(&self.mult[first..end])
            .zip(&self.ids[first..end])
            .map(
                move |((((&x, &y), &z), &multiplicity), &point_index)| Sphere {
                    center: Point3::new(x, y, z),
                    radius,
                    point_index,
                    multiplicity,
                },
            )
    }

    /// Union of the sphere bounds of `[first, first + count)` (empty for
    /// an empty range).
    pub(crate) fn bounds(&self, first: usize, count: usize) -> Aabb {
        self.spheres(first, count)
            .fold(Aabb::EMPTY, |acc, s| acc.union(&s.bounds()))
    }

    /// Keep the primitives whose id `keep` accepts, compacting every lane
    /// stably.  Returns `kept_before`, where `kept_before[i]` is the number
    /// of survivors among the first `i` old primitives (`len + 1` entries),
    /// so an old range `[a, b)` maps to `[kept_before[a], kept_before[b])`.
    fn retain(&mut self, keep: impl Fn(u32) -> bool) -> Vec<u32> {
        let n = self.len();
        let mut kept_before = Vec::with_capacity(n + 1);
        let mut write = 0usize;
        let mut uniform = true;
        for read in 0..n {
            kept_before.push(write as u32);
            if keep(self.ids[read]) {
                self.x[write] = self.x[read];
                self.y[write] = self.y[read];
                self.z[write] = self.z[read];
                self.mult[write] = self.mult[read];
                self.ids[write] = self.ids[read];
                uniform &= self.mult[write] == 1;
                write += 1;
            }
        }
        kept_before.push(write as u32);
        for lane in [&mut self.x, &mut self.y, &mut self.z] {
            lane.truncate(write);
        }
        self.mult.truncate(write);
        self.ids.truncate(write);
        self.pad();
        self.uniform = uniform;
        kept_before
    }

    /// Multiplicity-weighted count of the candidates in
    /// `[first, first + count)` within the closed ball of squared radius
    /// `eps_sq` around `query`, evaluated by the kernel for `level`.
    /// Bit-identical across levels (same predicates, same association
    /// order as [`crate::geometry::distance_squared`]).
    #[inline]
    pub fn count_in_ball(
        &self,
        level: SimdLevel,
        first: usize,
        count: usize,
        query: Point3,
        eps_sq: f32,
    ) -> u64 {
        if self.uniform {
            crate::simd::count_run_unit(
                level, &self.x, &self.y, &self.z, first, count, query.x, query.y, query.z, eps_sq,
            )
        } else {
            crate::simd::count_run(
                level, &self.x, &self.y, &self.z, &self.mult, first, count, query.x, query.y,
                query.z, eps_sq,
            )
        }
    }

    /// Device-memory footprint of the lanes in bytes: five 4-byte lanes
    /// per slot, padding included.
    pub fn device_bytes(&self) -> u64 {
        (self.x.len() + self.y.len() + self.z.len() + self.mult.len() + self.ids.len()) as u64 * 4
    }
}

/// Collapse one worklist entry: fill `nodes[wide_idx]` from the member set
/// of binary node `bin_idx`, allocating a placeholder slot (charged one
/// `build_node_ops`) for every internal member and pushing it for later
/// processing.  Shared verbatim by the sequential drain and the per-arena
/// parallel collapse, so the two cannot diverge.
fn collapse_step(
    bvh: &Bvh,
    bin_idx: u32,
    wide_idx: u32,
    nodes: &mut Vec<WideNode>,
    work: &mut Vec<(u32, u32)>,
    counters: &mut WorkCounters,
) {
    let members = collapse_members(bvh, bin_idx);
    let mut node = WideNode::EMPTY;
    let mut slot = 0usize;
    for &member in &members {
        let m = &bvh.nodes[member as usize];
        match m.kind {
            NodeKind::Leaf {
                first_prim,
                prim_count,
            } => {
                // Leaves emptied by a refit removal stay in the binary tree
                // but must not occupy a wide slot: an empty-box slot tagged
                // as a leaf breaks the layout invariant and wastes a
                // hit-mask lane.
                if prim_count == 0 {
                    continue;
                }
                node.set_bounds(slot, &m.bounds);
                node.children[slot] = WideChild::Leaf {
                    first_prim,
                    prim_count,
                };
            }
            NodeKind::Internal { .. } => {
                // A subtree whose every primitive was removed refits to the
                // inverted box; prune it rather than nesting an all-empty
                // wide node under a non-empty tag.
                if m.bounds.is_empty() {
                    continue;
                }
                node.set_bounds(slot, &m.bounds);
                let child_wide = nodes.len() as u32;
                nodes.push(WideNode::EMPTY);
                sat_bump(&mut counters.build_node_ops, 1);
                node.children[slot] = WideChild::Node(child_wide);
                work.push((member, child_wide));
            }
        }
        slot += 1;
    }
    nodes[wide_idx as usize] = node;
}

/// Collapse the subtree rooted at binary node `root` into a local arena.
///
/// Arena node 0 is the (caller-allocated, so deliberately *not* charged
/// here) wide slot for `root` itself; child links are arena-local indices
/// that [`WideBvh::from_binary_parallel`] remaps at splice time.  Because
/// the drain is the same LIFO loop over [`collapse_step`], arena index `l`
/// corresponds exactly to the node the sequential collapse would have
/// emitted at `base + l - 1`.
fn collapse_arena(bvh: &Bvh, root: u32) -> (Vec<WideNode>, WorkCounters) {
    let mut counters = WorkCounters::ZERO;
    let mut nodes: Vec<WideNode> = vec![WideNode::EMPTY];
    let mut work: Vec<(u32, u32)> = vec![(root, 0)];
    while let Some((bin_idx, wide_idx)) = work.pop() {
        collapse_step(bvh, bin_idx, wide_idx, &mut nodes, &mut work, &mut counters);
    }
    (nodes, counters)
}

/// The collapse rule: expand internal members fattest-first until the set
/// holds up to four children of `bin_idx`.
///
/// The returned members are binary-node indices; at most [`WIDE_BRANCHING`]
/// of them, each either a leaf or an internal node that becomes a nested
/// wide node.  A leaf root is returned as the single member.
fn collapse_members(bvh: &Bvh, bin_idx: u32) -> Vec<u32> {
    let node = &bvh.nodes[bin_idx as usize];
    let mut members: Vec<u32> = match node.kind {
        NodeKind::Leaf { .. } => return vec![bin_idx],
        NodeKind::Internal { left, right } => vec![left, right],
    };
    loop {
        if members.len() >= WIDE_BRANCHING {
            break;
        }
        // Expand the internal member with the largest surface area.
        let expandable = members
            .iter()
            .enumerate()
            .filter(|(_, &m)| !bvh.nodes[m as usize].is_leaf())
            .max_by(|(_, &a), (_, &b)| {
                let sa = bvh.nodes[a as usize].bounds.surface_area();
                let sb = bvh.nodes[b as usize].bounds.surface_area();
                sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i);
        let Some(pos) = expandable else {
            break; // all members are leaves
        };
        let victim = members.swap_remove(pos);
        if let NodeKind::Internal { left, right } = bvh.nodes[victim as usize].kind {
            members.push(left);
            members.push(right);
        }
    }
    members
}

/// A violated wide-BVH invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WideInvariantError {
    /// The tree has no nodes but claims primitives (or vice versa).
    EmptyTreeWithPrimitives,
    /// A child node index was out of range.
    NodeIndexOutOfRange {
        /// Offending child index.
        index: u32,
    },
    /// A wide node was reachable through two different parents.
    NodeVisitedTwice {
        /// Offending node index.
        index: u32,
    },
    /// Some wide node was never reached from the root.
    UnreachableNodes {
        /// Number of unreachable nodes.
        count: usize,
    },
    /// A leaf slot's primitive range exceeded the primitive array.
    PrimRangeOutOfRange {
        /// First primitive of the offending slot.
        first: u32,
        /// Count of the offending slot.
        count: u32,
    },
    /// A primitive was not covered by exactly one leaf slot.
    PrimitiveCoverage {
        /// Primitive index.
        index: u32,
        /// Number of leaf slots that claimed it.
        times: usize,
    },
    /// A slot's stored lane bounds did not contain what the slot references
    /// (a nested node's own slot bounds, or a leaf slot's primitives).
    SlotBoundsTooSmall {
        /// Wide node index.
        node: u32,
        /// Slot index within the node.
        slot: usize,
    },
    /// A non-empty slot stored an empty/inverted AABB, or an empty slot
    /// stored a real one (empty slots must be rejected by the lane test).
    SlotBoundsTagMismatch {
        /// Wide node index.
        node: u32,
        /// Slot index within the node.
        slot: usize,
    },
}

impl std::fmt::Display for WideInvariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WideInvariantError::EmptyTreeWithPrimitives => {
                write!(f, "wide node/primitive arrays disagree about emptiness")
            }
            WideInvariantError::NodeIndexOutOfRange { index } => {
                write!(f, "wide child index {index} out of range")
            }
            WideInvariantError::NodeVisitedTwice { index } => {
                write!(f, "wide node {index} reachable through two parents")
            }
            WideInvariantError::UnreachableNodes { count } => {
                write!(f, "{count} wide nodes unreachable from the root")
            }
            WideInvariantError::PrimRangeOutOfRange { first, count } => {
                write!(
                    f,
                    "leaf slot primitive range [{first}, {first}+{count}) out of range"
                )
            }
            WideInvariantError::PrimitiveCoverage { index, times } => {
                write!(
                    f,
                    "primitive {index} covered by {times} leaf slots (expected 1)"
                )
            }
            WideInvariantError::SlotBoundsTooSmall { node, slot } => {
                write!(
                    f,
                    "slot {slot} of wide node {node} does not contain its subtree"
                )
            }
            WideInvariantError::SlotBoundsTagMismatch { node, slot } => {
                write!(
                    f,
                    "slot {slot} of wide node {node} has bounds inconsistent with its tag"
                )
            }
        }
    }
}

impl std::error::Error for WideInvariantError {}

/// Check every structural invariant of a collapsed wide BVH:
///
/// 1. every wide node is reachable from the root exactly once;
/// 2. non-empty slots store real AABBs, empty slots store the inverted box;
/// 3. leaf-slot primitive ranges are in-bounds and every primitive is
///    covered by exactly one leaf slot;
/// 4. a slot's lane bounds contain its subtree — a nested node's own slot
///    boxes for interior slots, the owned primitives' bounds for leaf slots.
pub fn validate_wide(wide: &WideBvh) -> Result<(), WideInvariantError> {
    if wide.nodes.is_empty() {
        if wide.lanes.is_empty() {
            return Ok(());
        }
        return Err(WideInvariantError::EmptyTreeWithPrimitives);
    }

    let n_nodes = wide.nodes.len();
    let n_prims = wide.lanes.len();
    let mut visited = vec![false; n_nodes];
    let mut prim_cover = vec![0usize; n_prims];
    let mut stack: Vec<u32> = vec![0];
    visited[0] = true;

    while let Some(idx) = stack.pop() {
        let node = &wide.nodes[idx as usize];
        for slot in 0..WIDE_BRANCHING {
            let bounds = node.child_bounds(slot);
            match node.children[slot] {
                WideChild::Empty => {
                    if !bounds.is_empty() {
                        return Err(WideInvariantError::SlotBoundsTagMismatch { node: idx, slot });
                    }
                }
                WideChild::Node(child) => {
                    if bounds.is_empty() {
                        return Err(WideInvariantError::SlotBoundsTagMismatch { node: idx, slot });
                    }
                    if child as usize >= n_nodes {
                        return Err(WideInvariantError::NodeIndexOutOfRange { index: child });
                    }
                    if visited[child as usize] {
                        return Err(WideInvariantError::NodeVisitedTwice { index: child });
                    }
                    visited[child as usize] = true;
                    // The nested node's own slot boxes must fit in this slot.
                    let nested = &wide.nodes[child as usize];
                    for nested_slot in 0..WIDE_BRANCHING {
                        let nb = nested.child_bounds(nested_slot);
                        if !bounds.contains_aabb(&nb) {
                            return Err(WideInvariantError::SlotBoundsTooSmall { node: idx, slot });
                        }
                    }
                    stack.push(child);
                }
                WideChild::Leaf {
                    first_prim,
                    prim_count,
                } => {
                    if bounds.is_empty() && prim_count > 0 {
                        return Err(WideInvariantError::SlotBoundsTagMismatch { node: idx, slot });
                    }
                    let first = first_prim as usize;
                    let count = prim_count as usize;
                    if first + count > n_prims {
                        return Err(WideInvariantError::PrimRangeOutOfRange {
                            first: first_prim,
                            count: prim_count,
                        });
                    }
                    for (offset, prim) in wide.lanes.spheres(first, count).enumerate() {
                        prim_cover[first + offset] += 1;
                        if !bounds.contains_aabb(&prim.bounds()) {
                            return Err(WideInvariantError::SlotBoundsTooSmall { node: idx, slot });
                        }
                    }
                }
            }
        }
    }

    let unreachable = visited.iter().filter(|v| !**v).count();
    if unreachable > 0 {
        return Err(WideInvariantError::UnreachableNodes { count: unreachable });
    }
    for (i, &times) in prim_cover.iter().enumerate() {
        if times != 1 {
            return Err(WideInvariantError::PrimitiveCoverage {
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
    use crate::bvh::{spheres_from_points, BvhBuilder, LbvhBuilder, SahBuilder};
    use crate::geometry::Point3;

    fn grid(n_side: usize, spacing: f32) -> Vec<Point3> {
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                pts.push(Point3::new(i as f32 * spacing, j as f32 * spacing, 0.0));
            }
        }
        pts
    }

    #[test]
    fn collapse_of_every_builder_is_valid() {
        let pts = grid(17, 0.6);
        let builders: Vec<Box<dyn BvhBuilder>> = vec![
            Box::new(LbvhBuilder::default()),
            Box::new(SahBuilder::default()),
        ];
        for b in builders {
            let bvh = b.build(spheres_from_points(&pts, 0.4)).unwrap();
            let wide = WideBvh::from_binary(&bvh);
            validate_wide(&wide).unwrap_or_else(|e| panic!("{:?}: {e}", b.kind()));
            assert_eq!(wide.primitive_count(), pts.len());
            // Collapsing 2 levels into 1 must not grow the node count.
            assert!(wide.node_count() <= bvh.node_count());
            assert!(wide.collapse_counters.build_node_ops > 0);
            assert_eq!(wide.scene_bounds, bvh.scene_bounds());
        }
    }

    #[test]
    fn parallel_collapse_is_bit_identical_for_all_worker_counts() {
        let telemetry = Telemetry::disabled();
        let pts = grid(23, 0.6);
        let builders: Vec<Box<dyn BvhBuilder>> = vec![
            Box::new(LbvhBuilder::default()),
            Box::new(SahBuilder::default()),
        ];
        for b in builders {
            let bvh = b.build(spheres_from_points(&pts, 0.4)).unwrap();
            let seq = WideBvh::from_binary(&bvh);
            for workers in [1usize, 2, 3, 5, 8, 64] {
                let par = WideBvh::from_binary_parallel(&bvh, workers, &telemetry);
                assert_eq!(par.nodes, seq.nodes, "{:?} workers={workers}", b.kind());
                assert_eq!(par.lanes, seq.lanes);
                assert_eq!(par.scene_bounds, seq.scene_bounds);
                assert_eq!(
                    par.collapse_counters.build_node_ops,
                    seq.collapse_counters.build_node_ops
                );
                // The splice charge is parallel-only and bounded by the
                // node count (only frontier subtrees are copied).
                if workers == 1 {
                    assert_eq!(par.collapse_counters.build_splice_ops, 0);
                } else {
                    assert!(par.collapse_counters.build_splice_ops <= par.node_count() as u64);
                }
                validate_wide(&par).unwrap();
            }
        }
    }

    #[test]
    fn parallel_collapse_handles_tiny_trees() {
        let telemetry = Telemetry::disabled();
        let bvh = LbvhBuilder::default()
            .build(vec![Sphere::new(Point3::ORIGIN, 1.0, 0)])
            .unwrap();
        let seq = WideBvh::from_binary(&bvh);
        let par = WideBvh::from_binary_parallel(&bvh, 8, &telemetry);
        assert_eq!(par.nodes, seq.nodes);

        let empty = Bvh {
            nodes: vec![],
            primitives: vec![],
            builder: crate::bvh::BuilderKind::Lbvh,
            build_counters: WorkCounters::ZERO,
        };
        let par = WideBvh::from_binary_parallel(&empty, 8, &telemetry);
        assert_eq!(par.node_count(), 0);
    }

    #[test]
    fn collapse_roughly_halves_node_count_on_big_trees() {
        let pts = grid(40, 0.5);
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&pts, 0.3))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        validate_wide(&wide).unwrap();
        // A full binary tree of internal nodes collapses ~3:1; real trees
        // land somewhere between 2:1 and 3:1.
        assert!(
            wide.node_count() * 2 < bvh.node_count(),
            "wide {} vs binary {}",
            wide.node_count(),
            bvh.node_count()
        );
    }

    #[test]
    fn single_leaf_and_empty_trees() {
        let bvh = LbvhBuilder::default()
            .build(vec![Sphere::new(Point3::ORIGIN, 1.0, 0)])
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        validate_wide(&wide).unwrap();
        assert_eq!(wide.node_count(), 1);
        assert!(matches!(
            wide.nodes[0].children[0],
            WideChild::Leaf { prim_count: 1, .. }
        ));
        assert_eq!(wide.nodes[0].children[1], WideChild::Empty);

        let empty = Bvh {
            nodes: vec![],
            primitives: vec![],
            builder: crate::bvh::BuilderKind::Lbvh,
            build_counters: WorkCounters::ZERO,
        };
        let wide = WideBvh::from_binary(&empty);
        validate_wide(&wide).unwrap();
        assert_eq!(wide.node_count(), 0);
        assert!(wide.scene_bounds.is_empty());
    }

    #[test]
    fn point_hit_mask_matches_scalar_tests() {
        let pts = grid(9, 1.0);
        let bvh = SahBuilder::default()
            .build(spheres_from_points(&pts, 0.5))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        for node in &wide.nodes {
            for q in [
                Point3::new(0.0, 0.0, 0.0),
                Point3::new(4.2, 3.9, 0.0),
                Point3::new(8.0, 8.0, 0.0),
                Point3::new(-3.0, 100.0, 0.0),
            ] {
                let mask = node.point_hit_mask(q);
                for slot in 0..WIDE_BRANCHING {
                    let expected = node.child_bounds(slot).contains_point(q);
                    assert_eq!(mask & (1 << slot) != 0, expected, "slot {slot} at {q:?}");
                }
            }
        }
    }

    #[test]
    fn validator_catches_corruption() {
        let pts = grid(8, 0.7);
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&pts, 0.4))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);

        // Shrink a slot's box so its subtree sticks out.
        let mut bad = wide.clone();
        bad.nodes[0].set_bounds(0, &Aabb::from_sphere(Point3::ORIGIN, 1e-3));
        assert!(matches!(
            validate_wide(&bad).unwrap_err(),
            WideInvariantError::SlotBoundsTooSmall { .. }
        ));

        // Point a slot at an out-of-range node.
        let mut bad = wide.clone();
        for slot in 0..WIDE_BRANCHING {
            if matches!(bad.nodes[0].children[slot], WideChild::Node(_)) {
                bad.nodes[0].children[slot] = WideChild::Node(10_000);
                break;
            }
        }
        assert!(matches!(
            validate_wide(&bad).unwrap_err(),
            WideInvariantError::NodeIndexOutOfRange { index: 10_000 }
        ));

        // Give an empty slot real bounds.
        let mut bad = wide.clone();
        let last = bad.nodes.len() - 1;
        bad.nodes[last].set_bounds(3, &Aabb::from_sphere(Point3::ORIGIN, 1.0));
        let corrupted = bad.nodes[last].children[3] == WideChild::Empty;
        if corrupted {
            assert!(matches!(
                validate_wide(&bad).unwrap_err(),
                WideInvariantError::SlotBoundsTagMismatch { .. }
            ));
        }

        // Claim primitives without any nodes.
        let bad = WideBvh {
            nodes: vec![],
            scene_bounds: Aabb::EMPTY,
            lanes: PrimLanes::from_primitives(&[Sphere::new(Point3::ORIGIN, 1.0, 0)]),
            collapse_counters: WorkCounters::ZERO,
        };
        assert_eq!(
            validate_wide(&bad).unwrap_err(),
            WideInvariantError::EmptyTreeWithPrimitives
        );
    }

    #[test]
    fn duplicated_points_collapse_cleanly() {
        let pts: Vec<Point3> = (0..500).map(|_| Point3::new(3.0, 3.0, 0.0)).collect();
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&pts, 0.2))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        validate_wide(&wide).unwrap();
        assert_eq!(wide.primitive_count(), 500);
    }

    /// Deterministic pseudo-random scatter for the quantisation tests.
    fn random_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) & 0xFFFFF) as f32 / 1000.0 - 500.0
        };
        (0..n)
            .map(|_| Point3::new(next(), next(), next() * 0.01))
            .collect()
    }

    #[test]
    fn simd_hit_masks_match_scalar() {
        use crate::simd::{detect_simd, SimdLevel};
        let pts = random_points(500, 33);
        let bvh = SahBuilder::default()
            .build(spheres_from_points(&pts, 1.0))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let queries = {
            let mut q = random_points(64, 34);
            q.push(wide.scene_bounds.min);
            q.push(wide.scene_bounds.max);
            q.push(Point3::new(f32::NAN, 0.0, 0.0));
            q
        };
        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            if level > detect_simd() {
                continue;
            }
            for node in &wide.nodes {
                for q in &queries {
                    assert_eq!(
                        node.point_hit_mask_xyz_at(level, q.x, q.y, q.z),
                        node.point_hit_mask_xyz(q.x, q.y, q.z),
                        "{level:?} mask at {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn prim_lanes_mirror_primitives() {
        let pts = random_points(123, 5);
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&pts, 0.5))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let lanes = &wide.lanes;
        assert_eq!(lanes.len(), bvh.primitives.len());
        assert!(!lanes.is_empty());
        // The lanes rebuild the source spheres exactly, in leaf order.
        let rebuilt: Vec<Sphere> = lanes.spheres(0, lanes.len()).collect();
        assert_eq!(rebuilt, bvh.primitives);
        // Whole-array count through the lanes equals the scalar sphere test.
        let q = pts[7];
        let eps_sq = 2.25f32;
        let want: u64 = bvh
            .primitives
            .iter()
            .filter(|p| p.center.distance_squared(q) <= eps_sq)
            .map(|p| p.multiplicity as u64)
            .sum();
        use crate::simd::{detect_simd, SimdLevel};
        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            if level > detect_simd() {
                continue;
            }
            assert_eq!(
                lanes.count_in_ball(level, 0, lanes.len(), q, eps_sq),
                want,
                "{level:?}"
            );
        }
        let empty = PrimLanes::from_primitives(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn device_bytes_are_nodes_plus_twenty_bytes_per_lane_slot() {
        let pts = random_points(777, 9);
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&pts, 0.7))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let slots = (pts.len() + LANE_PADDING) as u64;
        assert_eq!(
            wide.device_bytes(),
            std::mem::size_of::<WideNode>() as u64 * wide.node_count() as u64 + 20 * slots
        );
    }

    /// Sorted ids of the primitives within `eps` of `q`, through the
    /// single-ray wide traversal.
    fn wide_hits(wide: &WideBvh, q: Point3, eps: f32) -> Vec<u32> {
        let mut hits = Vec::new();
        let mut scratch = crate::traversal::TraversalScratch::default();
        let mut c = WorkCounters::ZERO;
        crate::traversal::traverse_wide(
            wide,
            &crate::geometry::Ray::epsilon_ray(q),
            &mut scratch,
            &mut c,
            crate::traversal::NoSink,
            |s, _| {
                if s.center.distance_squared(q) <= eps * eps {
                    hits.push(s.point_index);
                }
                crate::traversal::Traversal::Continue
            },
        );
        hits.sort_unstable();
        hits
    }

    #[test]
    fn in_place_removal_and_motion_match_a_fresh_collapse() {
        let eps = 1.5f32;
        let pts = random_points(600, 41);
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&pts, eps))
            .unwrap();
        let mut wide = WideBvh::from_binary(&bvh);
        drop(bvh);
        let mut alive = vec![true; pts.len()];
        // Retire every point in one corner (whole subtrees go, so nodes are
        // pruned) plus a scatter of others.
        let retire = |i: u32, p: Point3| p.x < -200.0 || i % 7 == 3;
        let mut c = WorkCounters::ZERO;
        let nodes_before = wide.node_count();
        let stats = wide.remove_points(|id| retire(id, pts[id as usize]), &mut c);
        for (i, p) in pts.iter().enumerate() {
            alive[i] = !retire(i as u32, *p);
        }
        let live = alive.iter().filter(|a| **a).count();
        assert_eq!(stats.prims_removed as usize, pts.len() - live);
        assert_eq!(wide.primitive_count(), live);
        assert!(
            wide.node_count() < nodes_before,
            "emptied subtrees are pruned"
        );
        assert_eq!(c.refits, 1);
        assert_eq!(c.refit_node_ops, nodes_before as u64);
        validate_wide(&wide).unwrap();
        assert_eq!(wide.device_bytes(), {
            let slots = (live + LANE_PADDING) as u64;
            std::mem::size_of::<WideNode>() as u64 * wide.node_count() as u64 + 20 * slots
        });
        for q in (0..pts.len()).step_by(11) {
            let want: Vec<u32> = (0..pts.len())
                .filter(|&j| alive[j] && pts[j].distance_squared(pts[q]) <= eps * eps)
                .map(|j| j as u32)
                .collect();
            assert_eq!(wide_hits(&wide, pts[q], eps), want, "query {q}");
        }
        // Retiring the rest leaves an empty scene with no nodes.
        wide.remove_points(|_| true, &mut c);
        assert_eq!(wide.node_count(), 0);
        assert_eq!(wide.primitive_count(), 0);
        assert!(wide.scene_bounds.is_empty());
        validate_wide(&wide).unwrap();
    }

    #[test]
    fn device_bytes_are_positive_and_error_display_informative() {
        let pts = grid(5, 1.0);
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&pts, 0.4))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        assert!(wide.device_bytes() > 0);
        let e = WideInvariantError::SlotBoundsTooSmall { node: 3, slot: 2 };
        assert!(e.to_string().contains("slot 2"));
        assert!(e.to_string().contains("node 3"));
    }
}
