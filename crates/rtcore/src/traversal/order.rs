//! Coherence-aware query ordering for batched launches.
//!
//! Wide-batched traversal amortises node fetches across a ray packet: a
//! node reached by at least one packet member is fetched once and every
//! live member lane-tests against it.  That amortisation is only as good
//! as the packet's **spatial coherence** — a packet of scattered queries
//! reaches the union of all their subtrees, a packet of nearby queries
//! reaches nearly the same nodes.  Real RT hardware lives off exactly this
//! property, and datasets rarely arrive in a spatially coherent order.
//!
//! [`QueryOrder::Morton`] sorts query origins along the Z-order curve
//! (the same encode-and-sort pass a build runs over its points) before
//! packets are cut, and carries the permutation so every
//! output mode — sink callbacks, `batch_neighbor_counts`,
//! `batch_neighbors_csr` — is restored to caller order bit-identically.
//! Only the permutation is kept: each packet gathers its origins through
//! it, so no sorted copy of the queries exists.
//! Per-query traversal work is invariant under reordering (a query visits
//! the same nodes and candidates whichever packet it rides in), so
//! `rays`, `dist_comps` and `prim_tests` are unchanged; only the shared
//! `wide_node_visits` drop.
//!
//! A self-join count launch — `exclude_self` over all of an LBVH-built
//! index's points, DBSCAN's stage 1 — sorts nothing: its queries are the
//! indexed points in index order, and the index build already ran the same
//! encode-and-sort pass over them, so the launch walks the permutation the
//! build kept (see [`crate::index::WideBatchedIndex::build_order`]).
//! Subset launches (stage 2's cores and borders) and external query sets
//! sort their own queries.

use crate::geometry::{morton_sort, radix_sort_ops, Point3};
use crate::hardware::{sat_bump, WorkCounters};
use crate::telemetry::{PhaseKind, Telemetry};
use crate::traversal::{PoolGuard, ScratchPool};

/// In what order a batched launch feeds queries into packets.
///
/// Reordering never changes *what* a launch answers: neighbour sets,
/// counts and CSR rows come back in caller order bit for bit, and the
/// per-candidate counters (`dist_comps`, `prim_tests`) are identical —
/// only the shared node-fetch work (`wide_node_visits`) shrinks.
/// Backends that answer queries one at a time (binary BVH, grid, brute
/// force) have no packets to make coherent and ignore the knob.
///
/// The cluster engine's RT-DBSCAN default runs `Morton` (with the LBVH
/// builder): it cuts stage-1 time on every measured workload and, for the
/// two-level scene, keeps a packet inside few shards.  The index builder
/// and the paper-reproduction `RtDbscan::default()` keep `AsGiven`, so the
/// reproduced tables and the oracle comparisons do not move.
///
/// # Examples
///
/// ```
/// use rtcore::geometry::Point3;
/// use rtcore::hardware::WorkCounters;
/// use rtcore::index::{IndexKind, NeighborIndexBuilder, QueryOrder};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// // An incoherent interleaving of two far-apart clusters.
/// let points: Vec<Point3> = (0..256)
///     .map(|i| Point3::new_2d((i % 2) as f32 * 100.0 + (i / 2) as f32 * 0.1, 0.0))
///     .collect();
///
/// let run = |order: QueryOrder| {
///     let index = NeighborIndexBuilder {
///         query_order: order,
///         batch_size: 64,
///         ..NeighborIndexBuilder::new(IndexKind::WideBatched)
///     }
///     .build(&points, 0.5)
///     .unwrap();
///     let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
///     let mut c = WorkCounters::ZERO;
///     index.batch_neighbor_counts(&points, 0.5, true, None, &mut c, &counts);
///     let counts: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
///     (counts, c)
/// };
/// let (as_given, c_given) = run(QueryOrder::AsGiven);
/// let (morton, c_morton) = run(QueryOrder::Morton);
///
/// // Identical answers and per-candidate work, fewer shared node fetches.
/// assert_eq!(as_given, morton);
/// assert_eq!(c_given.dist_comps, c_morton.dist_comps);
/// assert!(c_morton.wide_node_visits < c_given.wide_node_visits);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueryOrder {
    /// Feed packets in the caller's order (the enum and
    /// [`crate::index::NeighborIndexBuilder`] default; the paper-reproduction
    /// configuration keeps it).
    #[default]
    AsGiven,
    /// Morton-sort query origins before cutting packets, restoring caller
    /// order on every output.
    Morton,
}

impl QueryOrder {
    /// Report name used by benches and configuration dumps.
    pub fn name(&self) -> &'static str {
        match self {
            QueryOrder::AsGiven => "as-given",
            QueryOrder::Morton => "morton",
        }
    }
}

/// Grow-only working buffers for one reordered launch: one `u32` Morton
/// key per query, the `u32` launch permutation and one `u32` radix lane —
/// 12 bytes per query, allocation-free once warm.  Pooled per worker by
/// the batched backends.
///
/// No permuted copy of the queries is kept: a packet gathers its origins
/// through the launch permutation into the ray staging buffer it fills
/// anyway, so the scratch stays small even while it lives across a whole
/// launch.
#[derive(Debug, Default)]
pub struct ReorderScratch {
    /// Morton code of each query, in caller order.
    keys: Vec<u32>,
    /// `perm[i]` is the caller index of the i-th query in sorted order.
    pub(crate) perm: Vec<u32>,
    /// Ping-pong lane of the permutation radix sort.
    buf: Vec<u32>,
}

impl ReorderScratch {
    /// Sort `queries` along the Morton curve into this scratch's `perm`:
    /// ascending 30-bit code, ties by caller index.  Returns the number of
    /// sort scatter operations performed plus one per query for the
    /// encode (charged as `misc_ops` by the callers — reordering is real
    /// launch-setup work, but it is not a candidate test).
    pub fn order_morton(&mut self, queries: &[Point3]) -> u64 {
        morton_sort(
            queries,
            |&q| q,
            1,
            &mut self.keys,
            &mut self.perm,
            &mut self.buf,
        );
        radix_sort_ops(queries.len()) + queries.len() as u64
    }

    /// The launch permutation of the last [`ReorderScratch::order_morton`]:
    /// entry `i` is the caller index of the `i`-th query in sorted order.
    pub fn order(&self) -> &[u32] {
        &self.perm
    }
}

/// The permutation one batched launch cuts its packets from: launch
/// position `i` is caller query `perm[i]`.
pub(crate) enum LaunchOrder<'a> {
    /// Caller order (no permutation).
    AsGiven,
    /// The index build's Morton permutation of its own points, walked by a
    /// self-join launch instead of sorting again.
    Build(&'a [u32]),
    /// A Morton sort of this launch's queries, held in a pooled scratch
    /// for the duration of the launch.
    Sorted(PoolGuard<'a, ReorderScratch>),
}

impl LaunchOrder<'_> {
    /// The launch permutation (`None` = caller order).
    pub(crate) fn perm(&self) -> Option<&[u32]> {
        match self {
            LaunchOrder::AsGiven => None,
            LaunchOrder::Build(order) => Some(order),
            LaunchOrder::Sorted(guard) => Some(&guard.perm),
        }
    }
}

/// Choose a batched launch's order under `query_order`.  A self-join
/// count launch — `exclude_self` over as many queries as the index's kept
/// Morton permutation `build_order` covers, which the count contract makes
/// the indexed points in index order — walks that permutation.  Otherwise
/// a Morton launch of two or more queries checks a scratch out of `pool`
/// and sorts into it under a `morton_reorder` span, charging the sort to
/// `setup.misc_ops`.  `AsGiven` and trivial launches run in caller order.
pub(crate) fn launch_order<'a>(
    query_order: QueryOrder,
    build_order: Option<&'a [u32]>,
    exclude_self: bool,
    queries: &[Point3],
    pool: &'a ScratchPool<ReorderScratch>,
    telemetry: &Telemetry,
    setup: &mut WorkCounters,
) -> LaunchOrder<'a> {
    if query_order != QueryOrder::Morton || queries.len() < 2 {
        return LaunchOrder::AsGiven;
    }
    if let Some(order) = build_order.filter(|o| exclude_self && o.len() == queries.len()) {
        return LaunchOrder::Build(order);
    }
    let mut span = telemetry.span(PhaseKind::MortonReorder);
    let mut guard = pool.acquire();
    let sort_ops = guard.order_morton(queries);
    sat_bump(&mut setup.misc_ops, sort_ops);
    span.add_counters(WorkCounters {
        misc_ops: sort_ops,
        ..WorkCounters::ZERO
    });
    LaunchOrder::Sorted(guard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton_order_is_a_permutation_and_groups_neighbours() {
        let queries: Vec<Point3> = (0..100)
            .map(|i| Point3::new_2d((i % 2) as f32 * 50.0 + (i / 2) as f32 * 0.01, 0.0))
            .collect();
        let mut scratch = ReorderScratch::default();
        let ops = scratch.order_morton(&queries);
        assert!(ops > 0);
        let mut seen = vec![false; queries.len()];
        for &orig in &scratch.perm {
            assert!(!seen[orig as usize], "duplicate index {orig}");
            seen[orig as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // The two interleaved clusters must come out contiguous: the first
        // half of the sorted order is entirely one cluster.
        let first_half_cluster: Vec<bool> =
            scratch.perm[..50].iter().map(|&i| i % 2 == 0).collect();
        assert!(
            first_half_cluster.iter().all(|&b| b) || first_half_cluster.iter().all(|&b| !b),
            "Morton order should separate the clusters"
        );
    }

    #[test]
    fn reorder_scratch_is_reusable_across_shapes() {
        let mut scratch = ReorderScratch::default();
        for n in [0usize, 1, 17, 5, 64] {
            let queries: Vec<Point3> = (0..n)
                .map(|i| Point3::new(i as f32 * 0.7, (i % 3) as f32, 0.0))
                .collect();
            scratch.order_morton(&queries);
            assert_eq!(scratch.perm.len(), n);
            assert_eq!(scratch.keys.len(), n);
        }
        assert_eq!(QueryOrder::default(), QueryOrder::AsGiven);
        assert_eq!(QueryOrder::Morton.name(), "morton");
        assert_eq!(QueryOrder::AsGiven.name(), "as-given");
    }

    /// The permutation is exactly the `(code, index)` order — ascending
    /// code, ties by caller index, as a std stable sort of the caller
    /// indices by code gives it — on inputs with many shared codes, through
    /// one warm scratch whose buffers shrink and grow between launches.
    #[test]
    fn permutation_equals_the_code_index_pair_sort() {
        use crate::geometry::{morton_encode_3d, Aabb};
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as u32
        };
        let mut scratch = ReorderScratch::default();
        for n in [2usize, 3, 300, 1, 4096, 57, 0, 1000] {
            // Coarse coordinates so many queries share a 30-bit code, plus
            // exact duplicates and a 3-D spread.
            let queries: Vec<Point3> = (0..n)
                .map(|i| {
                    if i % 7 == 0 {
                        Point3::new(1.0, 2.0, 3.0)
                    } else {
                        Point3::new(
                            (next() % 50) as f32 * 0.5,
                            (next() % 9) as f32,
                            (next() % 3) as f32 * 100.0,
                        )
                    }
                })
                .collect();
            let bounds = Aabb::from_point_slice(&queries);
            let codes: Vec<u32> = queries
                .iter()
                .map(|&q| morton_encode_3d(q, bounds.min, bounds.extent()))
                .collect();
            let mut expected: Vec<u32> = (0..n as u32).collect();
            expected.sort_by_key(|&i| codes[i as usize]);
            let ops = scratch.order_morton(&queries);
            assert_eq!(scratch.perm, expected, "n={n}");
            // The charged work: 4 scatter passes (none for a single query)
            // plus one encode per query.
            let scatter = if n > 1 { 4 * n } else { 0 };
            assert_eq!(ops, (scatter + n) as u64, "n={n}");
        }
    }
}
