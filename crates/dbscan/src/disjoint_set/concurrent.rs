//! Lock-free concurrent disjoint set.
//!
//! This is the standard wait-free-ish union-find used by GPU DBSCAN codes
//! (including ArborX's FDBSCAN): parents live in an array of atomics, `find`
//! uses path halving, and `union` links the *larger* root under the smaller
//! one with a CAS loop so that concurrent unions converge without locks.
//! Linking by index (rather than by rank) keeps the structure deterministic
//! under races: the final forest depends only on the set of union pairs, not
//! on their interleaving, which is what makes the parallel clustering
//! reproducible.

// Under the `loom` feature the forest's atomics become model-aware so the
// interleaving checker can exhaustively schedule concurrent unions; release
// builds compile to the std atomics with zero overhead.
#[cfg(feature = "loom")]
use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(not(feature = "loom"))]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A disjoint-set forest that can be updated concurrently from many threads
/// through shared references.
#[derive(Debug)]
pub struct ConcurrentDisjointSet {
    parent: Vec<AtomicUsize>,
    finds: OwnLines<AtomicU64>,
    merges: AtomicU64,
}

/// Keeps a value on cache lines of its own.  Every `find` on every worker
/// bumps the `finds` tally, and every `find` reads the `parent` header:
/// sharing a line made each bump evict that header from the other workers,
/// by an amount that depended on where the set landed in memory, so stage
/// 2's time changed from one process to the next.  128 bytes also covers
/// the adjacent-line prefetcher's pairs.
#[derive(Debug)]
#[repr(align(128))]
struct OwnLines<T>(T);

impl ConcurrentDisjointSet {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        ConcurrentDisjointSet {
            parent: (0..n).map(AtomicUsize::new).collect(),
            finds: OwnLines(AtomicU64::new(0)),
            merges: AtomicU64::new(0),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Find the representative of `x` with path halving.
    // ordering: Acquire on parent loads pairs with the AcqRel CAS in
    // `union`/the halving CAS, so a thread that observes a link also
    // observes everything published before it; the halving CAS itself is
    // AcqRel (Relaxed on failure — a lost race is retried, nothing is
    // published).  The `finds` tally is Relaxed: statistics only.
    pub fn find(&self, mut x: usize) -> usize {
        self.finds.0.fetch_add(1, Ordering::Relaxed);
        loop {
            let p = self.parent[x].load(Ordering::Acquire);
            if p == x {
                return x;
            }
            let gp = self.parent[p].load(Ordering::Acquire);
            if gp != p {
                // Path halving: point x at its grandparent.  A lost race only
                // costs an extra hop, never correctness.
                let _ = self.parent[x].compare_exchange_weak(
                    p,
                    gp,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
            x = p;
        }
    }

    /// Merge the sets containing `a` and `b`.  Returns `true` if this call
    /// performed the merge (false if they were already in the same set).
    // ordering: the linking CAS is AcqRel — Release publishes the new edge
    // to subsequent Acquire loads in `find`, Acquire orders this thread
    // against the edge it replaces; failure uses Acquire because the
    // observed value feeds the retry's root resolution.  The `merges`
    // tally is Relaxed: statistics only.
    pub fn union(&self, a: usize, b: usize) -> bool {
        let mut ra = self.find(a);
        let mut rb = self.find(b);
        loop {
            if ra == rb {
                return false;
            }
            // Always hang the larger-indexed root below the smaller one; this
            // gives a total order on roots so concurrent unions cannot form
            // cycles and the result is independent of scheduling.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            match self.parent[hi].compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.merges.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(_) => {
                    // Someone moved `hi` first; re-resolve the roots and retry.
                    ra = self.find(ra);
                    rb = self.find(rb);
                }
            }
        }
    }

    /// True if `a` and `b` are currently in the same set.
    ///
    /// Only meaningful once all concurrent unions have completed (the usual
    /// pattern: parallel union phase, join, then read).
    // ordering: Acquire root re-checks pair with union's Release CAS so a
    // root that still self-parents here really was a root at the check.
    pub fn same_set(&self, a: usize, b: usize) -> bool {
        // Re-check after resolving both to tolerate a concurrent union that
        // finished between the two finds.
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return true;
            }
            if self.parent[ra].load(Ordering::Acquire) == ra
                && self.parent[rb].load(Ordering::Acquire) == rb
            {
                return false;
            }
        }
    }

    /// Final representative of every element; call after the parallel phase.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len()).map(|i| self.find(i)).collect()
    }

    /// (find operations, successful merges) performed so far.
    // ordering: Relaxed — monitoring tallies, read after the parallel
    // phase joins.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.finds.0.load(Ordering::Relaxed),
            self.merges.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn basic_union_find() {
        let dsu = ConcurrentDisjointSet::new(4);
        assert_eq!(dsu.len(), 4);
        assert!(dsu.union(0, 1));
        assert!(!dsu.union(1, 0));
        assert!(dsu.same_set(0, 1));
        assert!(!dsu.same_set(0, 2));
        assert!(dsu.union(2, 3));
        assert!(dsu.union(0, 3));
        assert!(dsu.same_set(1, 2));
        let (finds, merges) = dsu.op_counts();
        assert_eq!(merges, 3);
        assert!(finds > 0);
    }

    #[test]
    fn empty_is_fine() {
        let dsu = ConcurrentDisjointSet::new(0);
        assert!(dsu.is_empty());
        assert!(dsu.roots().is_empty());
    }

    #[test]
    fn parallel_chain_union_produces_one_set() {
        let n = 10_000;
        let dsu = ConcurrentDisjointSet::new(n);
        (0..n - 1).into_par_iter().for_each(|i| {
            dsu.union(i, i + 1);
        });
        let root0 = dsu.find(0);
        for i in (0..n).step_by(97) {
            assert_eq!(dsu.find(i), root0);
        }
    }

    #[test]
    fn parallel_random_unions_match_sequential() {
        use crate::disjoint_set::SequentialDisjointSet;
        let n = 2000;
        // Deterministic pseudo-random union pairs.
        let pairs: Vec<(usize, usize)> = (0..n as u64)
            .map(|i| {
                let a = (i.wrapping_mul(6364136223846793005).wrapping_add(1) >> 33) as usize % n;
                let b = (i.wrapping_mul(2862933555777941757).wrapping_add(3) >> 33) as usize % n;
                (a, b)
            })
            .collect();
        let conc = ConcurrentDisjointSet::new(n);
        pairs.par_iter().for_each(|&(a, b)| {
            conc.union(a, b);
        });
        let mut seq = SequentialDisjointSet::new(n);
        for &(a, b) in &pairs {
            seq.union(a, b);
        }
        // Compare partitions via canonical root-of-first-member maps.
        for i in 0..n {
            for j in [0, 1, 7, 500, n - 1] {
                assert_eq!(conc.same_set(i, j), seq.same_set(i, j), "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn roots_are_self_parents() {
        let dsu = ConcurrentDisjointSet::new(100);
        for i in 0..50 {
            dsu.union(i, i + 50);
        }
        for (i, r) in dsu.roots().into_iter().enumerate() {
            assert_eq!(dsu.find(r), r, "root of {i} is not a root");
        }
    }

    #[test]
    fn deterministic_forest_under_concurrency() {
        // The same union set applied twice in parallel must give the same
        // same_set relation (linking by smallest index makes it so).
        let n = 1000;
        let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i * 37 + 11) % n)).collect();
        let run = || {
            let dsu = ConcurrentDisjointSet::new(n);
            pairs.par_iter().for_each(|&(a, b)| {
                dsu.union(a, b);
            });
            dsu.roots()
        };
        // Roots themselves are deterministic because links always point to
        // the smallest index in the set after full path resolution.
        let a: Vec<usize> = run();
        let b: Vec<usize> = run();
        // Compare the partitions they induce.
        let canon = |roots: &[usize]| {
            let mut map = std::collections::HashMap::new();
            let mut next = 0usize;
            roots
                .iter()
                .map(|r| {
                    *map.entry(*r).or_insert_with(|| {
                        let v = next;
                        next += 1;
                        v
                    })
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(canon(&a), canon(&b));
    }
}
