//! Disjoint-set (Union-Find) structures.
//!
//! RT-DBSCAN and FDBSCAN both form clusters by merging points into a
//! disjoint-set forest (Hopcroft & Ullman, cited as \[19\] in the paper).  Two
//! implementations are provided:
//!
//! * [`SequentialDisjointSet`] — classic union-by-rank with full path
//!   compression, used by the sequential reference algorithms and as the
//!   oracle in tests;
//! * [`ConcurrentDisjointSet`] — a lock-free version over atomics that many
//!   rayon workers can update concurrently, standing in for the GPU-side
//!   parallel Union-Find of FDBSCAN/RT-DBSCAN (including the "critical
//!   section" union of Algorithm 3, line 14, which stage 2 expresses as an
//!   atomic lowest-index border claim unioned after the launch).
//!
//! Every structure counts the union/find work it performs so the device
//! cost model can charge it.  The sequential structure is `&mut`-only and
//! keeps its own tallies; the concurrent forest keeps none and charges each
//! `find`/`union` to a [`WorkCounters`] tally the caller passes in (one per
//! worker), so its statistics never become a shared cache line.
//!
//! [`WorkCounters`]: rtcore::hardware::WorkCounters

mod concurrent;
mod sequential;

pub use concurrent::ConcurrentDisjointSet;
pub use sequential::SequentialDisjointSet;

#[cfg(test)]
mod tests {
    use super::*;
    use rtcore::hardware::WorkCounters;

    /// The two implementations must agree on the final partition for any
    /// sequence of unions.
    #[test]
    fn sequential_and_concurrent_agree() {
        let n = 500;
        let unions: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| {
                // A mix of chains and stars.
                let mut v = vec![];
                if i % 3 == 0 && i + 1 < n {
                    v.push((i, i + 1));
                }
                if i % 7 == 0 {
                    v.push((i, (i * 13 + 5) % n));
                }
                v
            })
            .collect();

        let mut seq = SequentialDisjointSet::new(n);
        let conc = ConcurrentDisjointSet::new(n);
        let mut t = WorkCounters::ZERO;
        for &(a, b) in &unions {
            seq.union(a, b);
            conc.union(a, b, &mut t);
        }
        for i in 0..n {
            for j in 0..n.min(50) {
                assert_eq!(
                    seq.same_set(i, j),
                    conc.same_set(i, j, &mut t),
                    "disagreement on ({i}, {j})"
                );
            }
        }
    }
}
