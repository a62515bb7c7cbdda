//! Bounded-exhaustive interleaving models for the workspace's lock-free
//! core, driven by the in-tree `loom` shim (`crates/shims/loom`).
//!
//! Run with:
//!
//! ```text
//! cargo test -p rtdbscan-analyze --features loom-models
//! ```
//!
//! Each `loom::model` closure is replayed under every distinct thread
//! schedule the bounded scheduler can reach (preemption-bounded DFS, all
//! atomic/mutex operations are yield points, sequentially consistent
//! semantics).  The assertions therefore hold on *every* interleaving, not
//! just the ones a stress test happens to hit.  The suite is compiled only
//! under the `loom-models` feature, which switches `rtcore` and `rtdbscan`
//! onto the model-aware atomics.
#![cfg(feature = "loom-models")]

use loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use loom::sync::Arc;
use loom::thread;
use rtcore::hardware::{SharedCounters, WorkCounters};
use rtdbscan::disjoint_set::ConcurrentDisjointSet;

/// Two threads union disjoint pairs that share an element; every schedule
/// must converge to one set {0,1,2} whose representative is the smallest
/// index (the forest links larger roots under smaller ones).
#[test]
fn concurrent_dsu_overlapping_unions_converge() {
    let schedules = loom::model(|| {
        let dsu = Arc::new(ConcurrentDisjointSet::new(3));
        let a = {
            let dsu = Arc::clone(&dsu);
            thread::spawn(move || {
                dsu.union(0, 1, &mut WorkCounters::default());
            })
        };
        let b = {
            let dsu = Arc::clone(&dsu);
            thread::spawn(move || {
                dsu.union(1, 2, &mut WorkCounters::default());
            })
        };
        a.join().unwrap();
        b.join().unwrap();
        let mut t = WorkCounters::ZERO;
        assert!(
            dsu.same_set(0, 2, &mut t),
            "unions did not merge transitively"
        );
        assert_eq!(
            dsu.find(0, &mut t),
            0,
            "links must point at the smallest index"
        );
        assert_eq!(dsu.find(1, &mut t), 0);
        assert_eq!(dsu.find(2, &mut t), 0);
    });
    assert!(schedules > 1, "scheduler explored only one interleaving");
}

/// Two threads racing to union the *same* pair: the linking CAS guarantees
/// exactly one of them performs the merge in every interleaving (this is
/// the linearization point of `union`), and only the winner's tally
/// records it.
#[test]
fn concurrent_dsu_racing_same_pair_merges_once() {
    loom::model(|| {
        let dsu = Arc::new(ConcurrentDisjointSet::new(2));
        let spawn_union = |dsu: &Arc<ConcurrentDisjointSet>| {
            let dsu = Arc::clone(dsu);
            thread::spawn(move || {
                let mut tally = WorkCounters::ZERO;
                let merged = dsu.union(0, 1, &mut tally);
                (merged, tally.union_ops)
            })
        };
        let a = spawn_union(&dsu);
        let b = spawn_union(&dsu);
        let (merged_a, tally_a) = a.join().unwrap();
        let (merged_b, tally_b) = b.join().unwrap();
        assert!(
            merged_a ^ merged_b,
            "exactly one thread must win the linking CAS (a={merged_a}, b={merged_b})"
        );
        assert_eq!(tally_a, merged_a as u64, "a's tally must match its merge");
        assert_eq!(tally_b, merged_b as u64, "b's tally must match its merge");
    });
}

/// Three threads race overlapping unions, each charging its own tally, one
/// of them redundant once the other two land: {0,1}, {1,2} and {0,2} over
/// four elements.  In every schedule the tallied `union_ops` must sum to
/// the elements minus the final sets (4 − 2), and the tallied `find_ops`
/// to two per `union` call (6): a lost linking race re-resolves its roots
/// uncharged.  That is what makes stage 2's per-worker `union_ops` and
/// `find_ops` exact whatever the thread count.
#[test]
fn concurrent_dsu_per_worker_union_tallies_sum_exactly() {
    const N: usize = 4;
    let schedules = loom::model(|| {
        let dsu = Arc::new(ConcurrentDisjointSet::new(N));
        let spawn_union = |a: usize, b: usize| {
            let dsu = Arc::clone(&dsu);
            thread::spawn(move || {
                let mut tally = WorkCounters::ZERO;
                dsu.union(a, b, &mut tally);
                (tally.union_ops, tally.find_ops)
            })
        };
        let workers = [spawn_union(0, 1), spawn_union(1, 2), spawn_union(0, 2)];
        let (merged, finds) = workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .fold((0, 0), |(m, f), (wm, wf)| (m + wm, f + wf));
        let mut t = WorkCounters::ZERO;
        let sets = (0..N).filter(|&i| dsu.find(i, &mut t) == i).count();
        assert_eq!(sets, 2, "{{0, 1, 2}} and {{3}}");
        assert_eq!(
            merged,
            (N - sets) as u64,
            "per-worker union tallies must sum to elements minus final sets"
        );
        assert_eq!(
            finds, 6,
            "per-worker find tallies must be two per union call"
        );
    });
    assert!(schedules > 1, "scheduler explored only one interleaving");
}

/// A `find` racing a `union` observes either the pre-link or post-link
/// forest — never a torn state — and the post-join answer is always the
/// merged root.  Path halving's CAS may rewrite parents concurrently, which
/// is exactly what this model exercises.
#[test]
fn concurrent_dsu_find_during_union_is_linearizable() {
    loom::model(|| {
        let dsu = Arc::new(ConcurrentDisjointSet::new(3));
        let mut t = WorkCounters::ZERO;
        // Pre-link 1 under 2 so the racing union must re-root a chain.
        dsu.union(1, 2, &mut t);
        let u = {
            let dsu = Arc::clone(&dsu);
            thread::spawn(move || {
                dsu.union(0, 2, &mut WorkCounters::default());
            })
        };
        let f = {
            let dsu = Arc::clone(&dsu);
            thread::spawn(move || dsu.find(2, &mut WorkCounters::default()))
        };
        let observed = f.join().unwrap();
        u.join().unwrap();
        assert!(
            observed == 0 || observed == 1,
            "find must see a valid pre- or post-union root, got {observed}"
        );
        assert_eq!(
            dsu.find(2, &mut t),
            0,
            "post-join root must be the merged minimum"
        );
        assert!(dsu.same_set(0, 1, &mut t));
    });
}

/// Model of stage 2's border claim (`rtdbscan::stages::ClusterForest`):
/// each core lowers a border point's claim slot — a probe load, then a
/// `fetch_min` only when its index is smaller — while a core–core union
/// runs alongside, and after the join the border is unioned with its
/// claim.  Cores 1 and 2 form one cluster, core 0 another, and the claims
/// arrive out of index order (2, 0, 1).  In every schedule the slot must
/// end at the lowest core index and the border must share core 0's root:
/// which cluster a border joins is a function of the input, not of the
/// schedule.
#[test]
fn border_claim_settles_on_the_lowest_core_in_every_schedule() {
    const BORDER: usize = 3;
    let schedules = loom::model(|| {
        let dsu = Arc::new(ConcurrentDisjointSet::new(4));
        let slot = Arc::new(AtomicU32::new(u32::MAX));
        let spawn_core = |p: u32, core_neighbor: Option<usize>| {
            let (dsu, slot) = (Arc::clone(&dsu), Arc::clone(&slot));
            thread::spawn(move || {
                if let Some(q) = core_neighbor {
                    dsu.union(p as usize, q, &mut WorkCounters::default());
                }
                if p < slot.load(Ordering::Relaxed) {
                    slot.fetch_min(p, Ordering::Relaxed);
                }
            })
        };
        let cores = [
            spawn_core(2, Some(1)),
            spawn_core(0, None),
            spawn_core(1, None),
        ];
        for core in cores {
            core.join().unwrap();
        }
        // The joins publish every lowered value to this reader.
        let claim = slot.load(Ordering::Relaxed);
        assert_eq!(claim, 0, "the claim must settle on the lowest core");
        let mut t = WorkCounters::ZERO;
        dsu.union(claim as usize, BORDER, &mut t);
        assert_eq!(
            dsu.find(BORDER, &mut t),
            dsu.find(0, &mut t),
            "border joins core 0"
        );
        assert!(
            !dsu.same_set(BORDER, 2, &mut t),
            "border must not join {{1, 2}}"
        );
        assert_eq!(
            dsu.find(2, &mut t),
            1,
            "the {{1, 2}} cluster keeps its own root"
        );
    });
    assert!(schedules > 1, "scheduler explored only one interleaving");
}

/// Two threads folding tallies into one `SharedCounters`: the saturating
/// CAS merge must clamp at `u64::MAX` (never wrap) in every interleaving,
/// including the one where both threads read the near-max value first.
#[test]
fn shared_counters_cas_merge_saturates() {
    loom::model(|| {
        let shared = Arc::new(SharedCounters::new());
        let spawn_add = |shared: &Arc<SharedCounters>, rays: u64| {
            let shared = Arc::clone(shared);
            thread::spawn(move || {
                let mut local = WorkCounters::ZERO;
                local.rays = rays;
                shared.add(&local);
            })
        };
        let a = spawn_add(&shared, u64::MAX - 1);
        let b = spawn_add(&shared, 5);
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(
            shared.snapshot().rays,
            u64::MAX,
            "saturating merge must clamp, not wrap"
        );
    });
}

/// With values far from the ceiling the same CAS merge must be *exact* —
/// no lost updates under any schedule (the classic load/store race the
/// saturating loop exists to avoid).
#[test]
fn shared_counters_cas_merge_is_exact() {
    loom::model(|| {
        let shared = Arc::new(SharedCounters::new());
        let spawn_add = |shared: &Arc<SharedCounters>, n: u64| {
            let shared = Arc::clone(shared);
            thread::spawn(move || {
                let mut local = WorkCounters::ZERO;
                local.dist_comps = n;
                shared.add(&local);
            })
        };
        let a = spawn_add(&shared, 3);
        let b = spawn_add(&shared, 4);
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(shared.snapshot().dist_comps, 7, "lost update detected");
    });
}

/// Model of the sharded count-flush pattern audited in
/// `rtcore::index::sharded::trace_count_packet_sharded`: each packet owns
/// private tally cells, flushes `cell − 1` (self-exclusion) into a shared
/// per-query slot with a Relaxed `fetch_add`, and caller ordinals are
/// disjoint across packets (single writer per slot).  The join then
/// publishes the totals.  The model proves the flushed counts are exact in
/// every interleaving of two packets — i.e. the Relaxed orderings and the
/// `saturating_sub(1)` algebra never lose or double-count a hit.
#[test]
fn sharded_flush_self_exclusion_is_exact() {
    loom::model(|| {
        // Shared per-query count slots; packet 0 owns slot 0, packet 1
        // owns slot 1 (disjoint caller ordinals).
        let counts = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let spawn_packet = |counts: &Arc<[AtomicU64; 2]>, slot: usize, neighbors: u64| {
            let counts = Arc::clone(counts);
            thread::spawn(move || {
                // Packet-local cell: the query's own hit plus its true
                // neighbours, accumulated by that packet's sub-launches.
                let cell = AtomicU64::new(0);
                for _ in 0..=neighbors {
                    cell.fetch_add(1, Ordering::Relaxed);
                }
                // Flush with self-exclusion, exactly like the audited loop.
                let count = cell.load(Ordering::Relaxed).saturating_sub(1);
                if count > 0 {
                    counts[slot].fetch_add(count, Ordering::Relaxed);
                }
            })
        };
        let a = spawn_packet(&counts, 0, 2);
        let b = spawn_packet(&counts, 1, 3);
        a.join().unwrap();
        b.join().unwrap();
        // The joins above are the happens-before edges that publish the
        // Relaxed writes to this reader.
        assert_eq!(counts[0].load(Ordering::Relaxed), 2);
        assert_eq!(counts[1].load(Ordering::Relaxed), 3);
    });
}
