//! Primitive compaction: merge exactly coincident sphere centres.
//!
//! OptiX's acceleration-structure builder is free to reorganise, split and
//! compact primitives ("The Optix builder performs memory compaction, invokes
//! bounding box routines and other ray-tracing-specific operations",
//! Section V-D).  On the heavily duplicated NGSIM dataset the paper observes
//! that the hardware "made relatively few calls to the intersection program"
//! and attributes its enormous speedups to the builder having pruned the
//! search space.
//!
//! This module implements the analogous software pass used by the RT device
//! path of the simulator: all primitives whose centres are *bit-exactly*
//! coincident are merged into a single representative sphere carrying a
//! multiplicity count.  Queries then perform one intersection test per unique
//! location instead of one per duplicate, while neighbour *counts* remain
//! exact because the multiplicity is added back by the caller.
//!
//! Like the device builder, the pass does no sorting of its own: it reads
//! the build's one Morton order of the input points ([`compact_sorted`]).
//! Coincident points share a Morton code, so every group of them lies inside
//! one run of equal codes, and the representatives keep the `(code, index)`
//! order the LBVH emitter and the shard planner consume next.
//!
//! The pass is part of the RT path only; the FDBSCAN/ArborX-style baseline
//! keeps one primitive per point, as the original library does.

use crate::geometry::{morton_sort, Point3, Sphere};
use std::collections::HashMap;

/// Result of compacting a point set into sphere primitives.
#[derive(Debug, Clone)]
pub struct CompactionResult {
    /// One sphere per *unique* location.  `point_index` refers to the
    /// representative (first-seen) data point and `multiplicity` counts how
    /// many data points share the location.
    pub spheres: Vec<Sphere>,
    /// For every original data point, the index of its representative point
    /// (`rep[i] == i` for representatives themselves).
    pub representative_of: Vec<u32>,
    /// Number of primitives merged away (`points.len() - spheres.len()`).
    pub merged: u64,
}

impl CompactionResult {
    /// True if no two input points were coincident.
    pub fn is_identity(&self) -> bool {
        self.merged == 0
    }

    /// Groups of duplicate points, keyed by representative index.  Only
    /// groups with at least two members are returned.
    pub fn duplicate_groups(&self) -> Vec<(u32, Vec<u32>)> {
        let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
        for (i, &rep) in self.representative_of.iter().enumerate() {
            groups.entry(rep).or_default().push(i as u32);
        }
        let mut out: Vec<(u32, Vec<u32>)> = groups
            .into_iter()
            .filter(|(_, members)| members.len() > 1)
            .collect();
        out.sort_by_key(|(rep, _)| *rep);
        out
    }
}

/// Merge exactly coincident points into representative spheres of radius
/// `radius`.
///
/// Coincidence is judged on the bit pattern of the coordinates (with
/// `-0.0 == 0.0`), so no tolerance parameter is involved and the pass cannot
/// change clustering semantics: coincident points have identical
/// ε-neighbourhoods by definition.  Each group's representative is its
/// lowest index (the first-seen point of a scan in input order) and the
/// spheres come out in ascending representative order.
///
/// This is the pass a BVH index build runs inside its one Morton pass, run
/// standalone: one sequential Morton encode-and-sort of the points, then
/// the grouping of their runs of equal codes.
pub fn compact_coincident(points: &[Point3], radius: f32) -> CompactionResult {
    let (mut keys, mut perm, mut multiplicity) = (Vec::new(), Vec::new(), Vec::new());
    morton_sort(points, |&p| p, 1, &mut keys, &mut perm, &mut multiplicity);
    let representative_of = compact_sorted(points, &keys, &mut perm, &mut multiplicity);
    let spheres: Vec<Sphere> = (0..points.len())
        .filter(|&i| representative_of[i] == i as u32)
        .map(|i| Sphere {
            multiplicity: multiplicity[i],
            ..Sphere::new(points[i], radius, i as u32)
        })
        .collect();
    let merged = (points.len() - spheres.len()) as u64;
    CompactionResult {
        spheres,
        representative_of,
        merged,
    }
}

/// The compaction pass over a Morton order of `points`: `keys[i]` is the
/// code of point `i` and `perm` lists the points in `(code, index)` order.
///
/// Every run of equal codes is split into groups of equal
/// [`Point3::bit_key`], and every member is pointed at its group's lowest
/// index.  Points with equal keys have equal codes — their coordinates
/// differ at most in the sign of a zero, which quantises to the same cell —
/// so no group straddles two runs.  On return `perm` keeps only the
/// representatives, still in `(code, index)` order, and `multiplicity`
/// holds the group size at each representative, 0 elsewhere; it is
/// overwritten, so the sort's spent ping-pong lane can hold it.  Returns
/// `representative_of`.
pub(crate) fn compact_sorted(
    points: &[Point3],
    keys: &[u32],
    perm: &mut Vec<u32>,
    multiplicity: &mut Vec<u32>,
) -> Vec<u32> {
    let n = points.len();
    let mut representative_of: Vec<u32> = (0..n as u32).collect();
    let mut run: Vec<u32> = Vec::new();
    let mut run_start = 0;
    while run_start < n {
        let code = keys[perm[run_start] as usize];
        let mut run_end = run_start + 1;
        while run_end < n && keys[perm[run_end] as usize] == code {
            run_end += 1;
        }
        if run_end - run_start > 1 {
            // `group_run` reorders the run it is given; `perm` keeps the
            // order the tree is emitted from, so it works on a copy.
            run.clear();
            run.extend_from_slice(&perm[run_start..run_end]);
            group_run(points, &mut run, &mut representative_of);
        }
        run_start = run_end;
    }
    multiplicity.clear();
    multiplicity.resize(n, 0);
    for &rep in &representative_of {
        multiplicity[rep as usize] += 1;
    }
    perm.retain(|&i| representative_of[i as usize] == i);
    representative_of
}

/// Split one run of equal Morton codes into groups of equal
/// [`Point3::bit_key`], pointing every member at its group's lowest index.
/// Sorting by key (ties by index) keeps a pile of thousands of coincident
/// points at O(k log k).
fn group_run(points: &[Point3], run: &mut [u32], representative_of: &mut [u32]) {
    if run.len() <= 1 {
        return;
    }
    run.sort_unstable_by_key(|&i| (points[i as usize].bit_key(), i));
    let mut group_start = 0;
    for k in 1..=run.len() {
        let boundary = k == run.len()
            || points[run[k] as usize].bit_key() != points[run[group_start] as usize].bit_key();
        if boundary {
            let rep = run[group_start];
            for &i in &run[group_start + 1..k] {
                representative_of[i as usize] = rep;
            }
            group_start = k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_points_are_untouched() {
        let pts = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(2.0, 0.0, 0.0),
        ];
        let c = compact_coincident(&pts, 0.5);
        assert!(c.is_identity());
        assert_eq!(c.spheres.len(), 3);
        assert_eq!(c.representative_of, vec![0, 1, 2]);
        assert!(c.duplicate_groups().is_empty());
        assert!(c.spheres.iter().all(|s| s.multiplicity == 1));
    }

    #[test]
    fn coincident_points_are_merged_with_multiplicity() {
        let pts = vec![
            Point3::new(1.0, 1.0, 0.0),
            Point3::new(2.0, 2.0, 0.0),
            Point3::new(1.0, 1.0, 0.0),
            Point3::new(1.0, 1.0, 0.0),
        ];
        let c = compact_coincident(&pts, 0.3);
        assert_eq!(c.spheres.len(), 2);
        assert_eq!(c.merged, 2);
        assert_eq!(c.representative_of, vec![0, 1, 0, 0]);
        let rep_sphere = c.spheres.iter().find(|s| s.point_index == 0).unwrap();
        assert_eq!(rep_sphere.multiplicity, 3);
        let groups = c.duplicate_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[0].1, vec![0, 2, 3]);
    }

    #[test]
    fn negative_zero_merges_with_positive_zero() {
        let pts = vec![Point3::new(0.0, 1.0, 0.0), Point3::new(-0.0, 1.0, 0.0)];
        let c = compact_coincident(&pts, 0.1);
        assert_eq!(c.spheres.len(), 1);
        assert_eq!(c.merged, 1);
    }

    #[test]
    fn nearly_coincident_points_are_not_merged() {
        let pts = vec![
            Point3::new(1.0, 1.0, 0.0),
            Point3::new(1.0 + 1e-6, 1.0, 0.0),
        ];
        let c = compact_coincident(&pts, 0.1);
        assert_eq!(c.spheres.len(), 2);
        assert!(c.is_identity());
    }

    #[test]
    fn multiplicities_sum_to_point_count() {
        let pts: Vec<Point3> = (0..1000)
            .map(|i| Point3::new((i % 10) as f32, ((i / 10) % 10) as f32, 0.0))
            .collect();
        let c = compact_coincident(&pts, 0.5);
        assert_eq!(c.spheres.len(), 100);
        let total: u32 = c.spheres.iter().map(|s| s.multiplicity).sum();
        assert_eq!(total as usize, pts.len());
        // Every representative maps to itself.
        for s in &c.spheres {
            assert_eq!(c.representative_of[s.point_index as usize], s.point_index);
        }
    }

    #[test]
    fn empty_input() {
        let c = compact_coincident(&[], 1.0);
        assert!(c.spheres.is_empty());
        assert!(c.representative_of.is_empty());
        assert_eq!(c.merged, 0);
    }
}
