//! Uniform-grid neighbour index (cell side ε), extracted and generalised
//! from the CUDA-DClust+ baseline's private grid.
//!
//! Queries scan the 3×3×3 cell neighbourhood of the query point and apply
//! the exact closed-ball distance filter.  Mirroring the original
//! implementation (and its published work accounting), one `dist_comps` is
//! charged per candidate in the scanned cells *including* an excluded
//! self-candidate — the comparison against the cell contents happens before
//! the identity check on real hardware.

use super::{
    IndexCapabilities, IndexKind, Neighbor, NeighborFlow, NeighborIndex, NeighborIndexBuilder,
    NeighborSink, NeighborVisitor,
};
use crate::error::Result;
use crate::geometry::Point3;
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Integer grid coordinate of a point for a given cell size.
#[inline]
fn cell_of(p: Point3, cell: f32) -> (i32, i32, i32) {
    (
        (p.x / cell).floor() as i32,
        (p.y / cell).floor() as i32,
        (p.z / cell).floor() as i32,
    )
}

/// Regular grid with cell side ε — the shader-core index CUDA-DClust+ uses.
#[derive(Debug)]
pub struct UniformGridIndex {
    points: Vec<Point3>,
    alive: Vec<bool>,
    live: usize,
    eps: f32,
    cells: HashMap<(i32, i32, i32), Vec<u32>>,
    min_parallel_launch: usize,
    build_counters: WorkCounters,
    query_counters: Mutex<WorkCounters>,
}

impl UniformGridIndex {
    /// Build from a [`NeighborIndexBuilder`] configuration (the builder's
    /// `kind` field is ignored — this constructor always builds a grid).
    pub fn build(config: &NeighborIndexBuilder, points: &[Point3], eps: f32) -> Result<Self> {
        let mut cells: HashMap<(i32, i32, i32), Vec<u32>> = HashMap::new();
        for (i, &p) in points.iter().enumerate() {
            cells.entry(cell_of(p, eps)).or_default().push(i as u32);
        }
        let n = points.len() as u64;
        let build_counters = WorkCounters {
            build_prims: n,
            build_sort_ops: n,                  // scatter into cells
            build_node_ops: cells.len() as u64, // cell directory entries
            misc_ops: 2 * n,                    // key computation + prefix sums
            ..WorkCounters::ZERO
        };
        Ok(UniformGridIndex {
            points: points.to_vec(),
            alive: vec![true; points.len()],
            live: points.len(),
            eps,
            cells,
            min_parallel_launch: config.min_parallel_launch,
            build_counters,
            query_counters: Mutex::new(WorkCounters::ZERO),
        })
    }

    /// Number of occupied grid cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn scan(
        &self,
        query: Point3,
        eps: f32,
        exclude: Option<u32>,
        counters: &mut WorkCounters,
        mut emit: impl FnMut(Neighbor, &mut WorkCounters) -> NeighborFlow,
    ) {
        debug_assert!(eps <= self.eps, "query radius exceeds the grid cell side");
        let c = cell_of(query, self.eps);
        let eps_sq = eps * eps;
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    let Some(cell_points) = self.cells.get(&(c.0 + dx, c.1 + dy, c.2 + dz)) else {
                        continue;
                    };
                    for &q in cell_points {
                        sat_bump(&mut counters.dist_comps, 1);
                        if Some(q) != exclude
                            && self.alive[q as usize]
                            && self.points[q as usize].distance_squared(query) <= eps_sq
                        {
                            let n = Neighbor {
                                index: q,
                                multiplicity: 1,
                            };
                            if emit(n, counters) == NeighborFlow::Stop {
                                return;
                            }
                        }
                    }
                }
            }
        }
    }
}

impl NeighborIndex for UniformGridIndex {
    fn len(&self) -> usize {
        self.live
    }

    fn eps(&self) -> f32 {
        self.eps
    }

    fn capabilities(&self) -> IndexCapabilities {
        IndexCapabilities {
            kind: IndexKind::UniformGrid,
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
        // Point-id array plus the cell directory, the footprint the
        // CUDA-DClust+ memory model charges for its index.
        (self.points.len() as u64) * 4 + self.cells.len() as u64 * 16
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

    fn batch_neighbor_counts(
        &self,
        queries: &[Point3],
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counters: &mut WorkCounters,
        counts: &[std::sync::atomic::AtomicU64],
    ) {
        use std::sync::atomic::Ordering;
        // Specialised count mode: the 3×3×3 cell scan accumulates one
        // local count per query and flushes it to the shared cell once —
        // no dyn-sink call and no atomic add per neighbour like the
        // default implementation pays.  Candidate charging (self candidate
        // included) and the stop rule (the raw hit sum reaching
        // `count_cap`, one less under self-exclusion) are the default
        // path's, so counted work and final counts are bit-identical.
        assert_eq!(
            queries.len(),
            counts.len(),
            "one count cell per launched query"
        );
        debug_assert!(eps <= self.eps, "query radius exceeds the grid cell side");
        let eps_sq = eps * eps;
        let cap = super::count_cap(exclude_self, early_exit);
        let total = super::dispatch_batch(
            queries.len(),
            queries.len() >= self.min_parallel_launch,
            |ordinal| {
                let mut local = WorkCounters::ZERO;
                let query = queries[ordinal];
                let c = cell_of(query, self.eps);
                let mut count = 0u64;
                'scan: for dx in -1..=1 {
                    for dy in -1..=1 {
                        for dz in -1..=1 {
                            let Some(cell_points) = self.cells.get(&(c.0 + dx, c.1 + dy, c.2 + dz))
                            else {
                                continue;
                            };
                            for &q in cell_points {
                                sat_bump(&mut local.dist_comps, 1);
                                if self.alive[q as usize]
                                    && self.points[q as usize].distance_squared(query) <= eps_sq
                                {
                                    count += 1;
                                    if count >= cap {
                                        break 'scan;
                                    }
                                }
                            }
                        }
                    }
                }
                let count = count.saturating_sub(exclude_self as u64);
                if count > 0 {
                    // ordering: Relaxed — per-ordinal tally cell written
                    // inside the launch, read by the caller only after the
                    // parallel iterator joins.
                    counts[ordinal].fetch_add(count, Ordering::Relaxed);
                }
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
                    let cell = cell_of(self.points[r as usize], self.eps);
                    if let Some(ids) = self.cells.get_mut(&cell) {
                        ids.retain(|&i| i != r);
                        sat_bump(&mut counters.misc_ops, 1);
                        if ids.is_empty() {
                            self.cells.remove(&cell);
                        }
                    }
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

    fn cross() -> Vec<Point3> {
        vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(0.9, 0.0, 0.0),
            Point3::new(-0.9, 0.0, 0.0),
            Point3::new(0.0, 0.9, 0.0),
            Point3::new(5.0, 5.0, 0.0),
        ]
    }

    #[test]
    fn grid_scan_matches_brute_force() {
        let pts = cross();
        let index = UniformGridIndex::build(
            &NeighborIndexBuilder::new(IndexKind::UniformGrid),
            &pts,
            1.0,
        )
        .unwrap();
        let mut c = WorkCounters::ZERO;
        let mut got = index.neighbors_of(pts[0], 1.0, Some(0), &mut c);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        assert!(c.dist_comps >= 4, "self candidate is charged too");
        assert!(index.cell_count() > 0);
        assert_eq!(index.build_counters().build_prims, 5);
    }

    #[test]
    fn specialized_count_mode_matches_the_sink_path_exactly() {
        use super::super::NeighborFlow;
        use std::sync::atomic::{AtomicU64, Ordering};
        // Blobs + duplicates + an exact-ε pair, queried with and without
        // self-exclusion and with early exit: the specialised override must
        // reproduce the generic sink-driven logic (which this reference
        // sink replicates) bit for bit — counts and counters.
        let eps = 1.0f32;
        let mut pts: Vec<Point3> = (0..120)
            .map(|i| {
                Point3::new(
                    (i % 11) as f32 * 0.7,
                    (i / 11) as f32 * 0.7,
                    (i % 3) as f32 * 0.1,
                )
            })
            .collect();
        pts.push(pts[0]);
        pts.push(pts[0]);
        pts.push(Point3::new(50.0, 0.0, 0.0));
        pts.push(Point3::new(50.0 + eps, 0.0, 0.0));
        let index = UniformGridIndex::build(
            &NeighborIndexBuilder {
                min_parallel_launch: usize::MAX,
                ..NeighborIndexBuilder::new(IndexKind::UniformGrid)
            },
            &pts,
            eps,
        )
        .unwrap();
        for exclude_self in [false, true] {
            for early_exit in [None, Some(1u64), Some(3), Some(1000)] {
                // Reference: the count stop rule driven through
                // batch_neighbors — the raw hit sum, own point included,
                // stops at the hit reaching the cap (one more than the
                // threshold under self-exclusion) and drops the own point.
                let cap = early_exit.map_or(u64::MAX, |m| (m + exclude_self as u64).max(1));
                let want: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
                let mut want_c = WorkCounters::ZERO;
                index.batch_neighbors(&pts, eps, &mut want_c, &|q, n, _| {
                    let add = n.multiplicity as u64;
                    if want[q].fetch_add(add, Ordering::Relaxed) + add >= cap {
                        NeighborFlow::Stop
                    } else {
                        NeighborFlow::Continue
                    }
                });
                let got: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
                let mut got_c = WorkCounters::ZERO;
                index.batch_neighbor_counts(&pts, eps, exclude_self, early_exit, &mut got_c, &got);
                let want: Vec<u64> = want
                    .iter()
                    .map(|c| {
                        c.load(Ordering::Relaxed)
                            .saturating_sub(exclude_self as u64)
                    })
                    .collect();
                let got: Vec<u64> = got.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                assert_eq!(want, got, "exclude_self={exclude_self} exit={early_exit:?}");
                assert_eq!(
                    want_c.dist_comps, got_c.dist_comps,
                    "exclude_self={exclude_self} exit={early_exit:?}"
                );
            }
        }
    }

    #[test]
    fn removal_and_update_maintain_the_grid() {
        let pts = cross();
        let mut index = UniformGridIndex::build(
            &NeighborIndexBuilder::new(IndexKind::UniformGrid),
            &pts,
            1.0,
        )
        .unwrap();
        index.remove(&[1]).unwrap();
        let mut c = WorkCounters::ZERO;
        let mut got = index.neighbors_of(pts[0], 1.0, Some(0), &mut c);
        got.sort_unstable();
        assert_eq!(got, vec![2, 3]);
        assert_eq!(index.len(), 4);
    }
}
