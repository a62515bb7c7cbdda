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
//!
//! The forest keeps no statistics of its own.  Every `find` and `union`
//! charges the caller's [`WorkCounters`] tally instead: inside a launch that
//! is the packet-local counter set the neighbour sink receives, merged when
//! the workers join, so no worker ever writes a cache line another worker
//! reads on its hot path.

// Under the `loom` feature the forest's atomics become model-aware so the
// interleaving checker can exhaustively schedule concurrent unions; release
// builds compile to the std atomics with zero overhead.
#[cfg(feature = "loom")]
use loom::sync::atomic::{AtomicUsize, Ordering};
use rtcore::hardware::{sat_bump, WorkCounters};
#[cfg(not(feature = "loom"))]
use std::sync::atomic::{AtomicUsize, Ordering};

/// A disjoint-set forest that can be updated concurrently from many threads
/// through shared references.
#[derive(Debug)]
pub struct ConcurrentDisjointSet {
    parent: Vec<AtomicUsize>,
}

impl ConcurrentDisjointSet {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        ConcurrentDisjointSet {
            parent: (0..n).map(AtomicUsize::new).collect(),
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

    /// Find the representative of `x` with path halving, charging one
    /// `find_ops` to `tally`.
    pub fn find(&self, x: usize, tally: &mut WorkCounters) -> usize {
        sat_bump(&mut tally.find_ops, 1);
        self.root(x)
    }

    /// The path-halving walk behind [`ConcurrentDisjointSet::find`],
    /// uncharged.
    // ordering: Acquire on parent loads pairs with the AcqRel CAS in
    // `union`/the halving CAS, so a thread that observes a link also
    // observes everything published before it; the halving CAS itself is
    // AcqRel (Relaxed on failure — a lost race is retried, nothing is
    // published).
    fn root(&self, mut x: usize) -> usize {
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
    /// performed the merge (false if they were already in the same set);
    /// a performed merge charges one `union_ops` to `tally`, so the tallies
    /// of every caller sum to the elements minus the final sets.  A call
    /// charges two `find_ops`, the finds the algorithm issues: re-resolving
    /// the roots after a lost linking race is not charged, just as the
    /// path-halving CAS is not, so the tallies never depend on scheduling.
    // ordering: the linking CAS is AcqRel — Release publishes the new edge
    // to subsequent Acquire loads in `root`, Acquire orders this thread
    // against the edge it replaces; failure uses Acquire because the
    // observed value feeds the retry's root resolution.
    pub fn union(&self, a: usize, b: usize, tally: &mut WorkCounters) -> bool {
        let mut ra = self.find(a, tally);
        let mut rb = self.find(b, tally);
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
                    sat_bump(&mut tally.union_ops, 1);
                    return true;
                }
                Err(_) => {
                    // Someone moved `hi` first; re-resolve the roots and retry.
                    ra = self.root(ra);
                    rb = self.root(rb);
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
    pub fn same_set(&self, a: usize, b: usize, tally: &mut WorkCounters) -> bool {
        // Re-check after resolving both to tolerate a concurrent union that
        // finished between the two finds.
        loop {
            let ra = self.find(a, tally);
            let rb = self.find(b, tally);
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
    pub fn roots(&self, tally: &mut WorkCounters) -> Vec<usize> {
        (0..self.len()).map(|i| self.find(i, tally)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn basic_union_find() {
        let dsu = ConcurrentDisjointSet::new(4);
        let mut t = WorkCounters::ZERO;
        assert_eq!(dsu.len(), 4);
        assert!(dsu.union(0, 1, &mut t));
        assert!(!dsu.union(1, 0, &mut t));
        assert!(dsu.same_set(0, 1, &mut t));
        assert!(!dsu.same_set(0, 2, &mut t));
        assert!(dsu.union(2, 3, &mut t));
        assert!(dsu.union(0, 3, &mut t));
        assert!(dsu.same_set(1, 2, &mut t));
        assert_eq!(t.union_ops, 3);
        assert!(t.find_ops > 0);
    }

    #[test]
    fn empty_is_fine() {
        let dsu = ConcurrentDisjointSet::new(0);
        assert!(dsu.is_empty());
        assert!(dsu.roots(&mut WorkCounters::default()).is_empty());
    }

    #[test]
    fn parallel_chain_union_produces_one_set() {
        let n = 10_000;
        let dsu = ConcurrentDisjointSet::new(n);
        // One tally per item, folded after the join: the performed merges
        // sum to the elements minus the final sets (n - 1 for a chain).
        let merged: u64 = (0..n - 1)
            .into_par_iter()
            .map(|i| {
                let mut t = WorkCounters::ZERO;
                dsu.union(i, i + 1, &mut t);
                t.union_ops
            })
            .sum();
        assert_eq!(merged, n as u64 - 1);
        let mut t = WorkCounters::ZERO;
        let root0 = dsu.find(0, &mut t);
        for i in (0..n).step_by(97) {
            assert_eq!(dsu.find(i, &mut t), root0);
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
            conc.union(a, b, &mut WorkCounters::default());
        });
        let mut seq = SequentialDisjointSet::new(n);
        for &(a, b) in &pairs {
            seq.union(a, b);
        }
        // Compare partitions via canonical root-of-first-member maps.
        let mut t = WorkCounters::ZERO;
        for i in 0..n {
            for j in [0, 1, 7, 500, n - 1] {
                assert_eq!(
                    conc.same_set(i, j, &mut t),
                    seq.same_set(i, j),
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn roots_are_self_parents() {
        let dsu = ConcurrentDisjointSet::new(100);
        let mut t = WorkCounters::ZERO;
        for i in 0..50 {
            dsu.union(i, i + 50, &mut t);
        }
        for (i, r) in dsu.roots(&mut t).into_iter().enumerate() {
            assert_eq!(dsu.find(r, &mut t), r, "root of {i} is not a root");
        }
    }

    #[test]
    fn deterministic_forest_under_concurrency() {
        // The same union set applied twice in parallel must give the same
        // roots: links always point at the smallest index of the set, so
        // every root is its set's minimum, whatever the interleaving.
        let n = 1000;
        let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i * 37 + 11) % n)).collect();
        let run = || {
            let dsu = ConcurrentDisjointSet::new(n);
            pairs.par_iter().for_each(|&(a, b)| {
                dsu.union(a, b, &mut WorkCounters::default());
            });
            dsu.roots(&mut WorkCounters::default())
        };
        let a: Vec<usize> = run();
        assert_eq!(a, run());
        for (i, &r) in a.iter().enumerate() {
            assert!(r <= i, "root {r} of {i} is not its set's minimum");
        }
    }
}
