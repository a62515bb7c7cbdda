//! Brute-force neighbour index: the exact O(n)-per-query oracle.
//!
//! This is the backend every spatial structure is verified against, and the
//! substrate the G-DBSCAN baseline's all-pairs graph construction uses.  One
//! `dist_comps` is charged per candidate actually compared (the excluded
//! query point is skipped *before* the comparison, matching the original
//! G-DBSCAN accounting of exactly `n·(n−1)` distance computations).

use super::{
    IndexCapabilities, IndexKind, Neighbor, NeighborFlow, NeighborIndex, NeighborIndexBuilder,
    NeighborSink, NeighborVisitor,
};
use crate::error::Result;
use crate::geometry::Point3;
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;
use parking_lot::Mutex;

/// Exact linear-scan backend.
#[derive(Debug)]
pub struct BruteForceIndex {
    points: Vec<Point3>,
    alive: Vec<bool>,
    live: usize,
    eps: f32,
    min_parallel_launch: usize,
    build_counters: WorkCounters,
    query_counters: Mutex<WorkCounters>,
}

impl BruteForceIndex {
    /// Build from a [`NeighborIndexBuilder`] configuration (the builder's
    /// `kind` field is ignored — this constructor is always brute force).
    pub fn build(config: &NeighborIndexBuilder, points: &[Point3], eps: f32) -> Result<Self> {
        Ok(BruteForceIndex {
            points: points.to_vec(),
            alive: vec![true; points.len()],
            live: points.len(),
            eps,
            min_parallel_launch: config.min_parallel_launch,
            build_counters: WorkCounters {
                build_prims: points.len() as u64,
                ..WorkCounters::ZERO
            },
            query_counters: Mutex::new(WorkCounters::ZERO),
        })
    }

    fn scan(
        &self,
        query: Point3,
        eps: f32,
        exclude: Option<u32>,
        counters: &mut WorkCounters,
        mut emit: impl FnMut(Neighbor, &mut WorkCounters) -> NeighborFlow,
    ) {
        let eps_sq = eps * eps;
        for (j, &p) in self.points.iter().enumerate() {
            if Some(j as u32) == exclude || !self.alive[j] {
                continue;
            }
            sat_bump(&mut counters.dist_comps, 1);
            if p.distance_squared(query) <= eps_sq {
                let n = Neighbor {
                    index: j as u32,
                    multiplicity: 1,
                };
                if emit(n, counters) == NeighborFlow::Stop {
                    return;
                }
            }
        }
    }
}

impl NeighborIndex for BruteForceIndex {
    fn len(&self) -> usize {
        self.live
    }

    fn eps(&self) -> f32 {
        self.eps
    }

    fn capabilities(&self) -> IndexCapabilities {
        IndexCapabilities {
            kind: IndexKind::BruteForce,
            batched: false,
            compacting: false,
            refittable: true,
            rt_core: false,
        }
    }

    fn build_counters(&self) -> WorkCounters {
        self.build_counters
    }

    fn counters(&self) -> WorkCounters {
        self.build_counters + *self.query_counters.lock()
    }

    fn device_bytes(&self) -> u64 {
        std::mem::size_of_val(self.points.as_slice()) as u64
    }

    fn for_each_neighbor(
        &self,
        query: Point3,
        eps: f32,
        exclude: Option<u32>,
        counters: &mut WorkCounters,
        visit: &mut NeighborVisitor<'_>,
    ) {
        let mut local = WorkCounters::ZERO;
        self.scan(query, eps, exclude, &mut local, |n, c| visit(n, c));
        *self.query_counters.lock() += local;
        *counters += local;
    }

    fn batch_neighbors(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
        sink: &NeighborSink<'_>,
    ) {
        let total = super::dispatch_batch(
            queries.len(),
            queries.len() >= self.min_parallel_launch,
            |ordinal| {
                let mut local = WorkCounters::ZERO;
                self.scan(queries[ordinal], eps, None, &mut local, |n, c| {
                    sink(ordinal, n, c)
                });
                local
            },
        );
        *self.query_counters.lock() += total;
        *counters += total;
    }

    fn remove(&mut self, retired: &[u32]) -> Result<WorkCounters> {
        let mut counters = WorkCounters::ZERO;
        for &r in retired {
            if let Some(alive) = self.alive.get_mut(r as usize) {
                if *alive {
                    *alive = false;
                    self.live -= 1;
                    sat_bump(&mut counters.misc_ops, 1);
                }
            }
        }
        self.build_counters += counters;
        Ok(counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_exactly_n_minus_one_comparisons_per_query() {
        let pts: Vec<Point3> = (0..10).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
        let index =
            BruteForceIndex::build(&NeighborIndexBuilder::new(IndexKind::BruteForce), &pts, 1.5)
                .unwrap();
        let mut c = WorkCounters::ZERO;
        let got = index.neighbors_of(pts[5], 1.5, Some(5), &mut c);
        assert_eq!(got, vec![4, 6]);
        assert_eq!(c.dist_comps, 9);
        assert_eq!(c.rays, 0, "a linear scan launches no rays");
    }

    #[test]
    fn tombstoned_points_disappear_from_answers() {
        let pts: Vec<Point3> = (0..5)
            .map(|i| Point3::new(i as f32 * 0.5, 0.0, 0.0))
            .collect();
        let mut index =
            BruteForceIndex::build(&NeighborIndexBuilder::new(IndexKind::BruteForce), &pts, 0.6)
                .unwrap();
        index.remove(&[1]).unwrap();
        let mut c = WorkCounters::ZERO;
        assert!(index.neighbors_of(pts[0], 0.6, Some(0), &mut c).is_empty());
        assert_eq!(index.len(), 4);
    }
}
