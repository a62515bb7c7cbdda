//! The per-node visit-frequency profiler.
//!
//! Cache-aware node-layout work (ROADMAP item 4) needs to know *which*
//! nodes the traversal actually fetches, not just how many fetches happen
//! in aggregate.  A [`NodeHeatmap`] is an array of relaxed atomic visit
//! counters, one per BVH node, that the traversal engines bump on every
//! node visit when profiling is enabled
//! ([`crate::telemetry::TelemetryConfig::Profile`]).  Node depths are
//! computed once at build, so the accumulated visits can be collapsed into
//! per-depth or per-treelet histograms — the distribution that tells you
//! which levels of the tree dominate memory traffic.
//!
//! The accumulator is indexed by the node ids the engine already has in a
//! register.

use crate::bvh::wide::WideChild;
use crate::bvh::{Bvh, NodeKind, WideBvh};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-node visit counts plus the static node→depth mapping.
///
/// Totals are exact: every visit the traversal charges to
/// `wide_node_visits` (wide engines) or `node_visits` (binary engine)
/// lands on exactly one node, so [`NodeHeatmap::total_visits`] equals the
/// corresponding counter for launches made while the heatmap was attached.
#[derive(Debug)]
pub struct NodeHeatmap {
    visits: Vec<AtomicU64>,
    depths: Vec<u32>,
    max_depth: u32,
}

impl NodeHeatmap {
    /// A heatmap over an explicit node→depth mapping (root depth 0).
    pub fn with_depths(depths: Vec<u32>) -> NodeHeatmap {
        let max_depth = depths.iter().copied().max().unwrap_or(0);
        NodeHeatmap {
            visits: depths.iter().map(|_| AtomicU64::new(0)).collect(),
            depths,
            max_depth,
        }
    }

    /// A heatmap sized for a wide (BVH4) scene.
    pub fn for_wide(wide: &WideBvh) -> NodeHeatmap {
        let mut depths = vec![0u32; wide.nodes.len()];
        let mut stack: Vec<(u32, u32)> = Vec::new();
        if !wide.nodes.is_empty() {
            stack.push((0, 0));
        }
        while let Some((node, depth)) = stack.pop() {
            depths[node as usize] = depth;
            for slot in &wide.nodes[node as usize].children {
                if let WideChild::Node(child) = slot {
                    stack.push((*child, depth + 1));
                }
            }
        }
        NodeHeatmap::with_depths(depths)
    }

    /// A heatmap sized for a binary BVH.
    pub fn for_binary(bvh: &Bvh) -> NodeHeatmap {
        let mut depths = vec![0u32; bvh.nodes.len()];
        let mut stack: Vec<(u32, u32)> = Vec::new();
        if !bvh.nodes.is_empty() {
            stack.push((0, 0));
        }
        while let Some((node, depth)) = stack.pop() {
            depths[node as usize] = depth;
            if let NodeKind::Internal { left, right } = bvh.nodes[node as usize].kind {
                stack.push((left, depth + 1));
                stack.push((right, depth + 1));
            }
        }
        NodeHeatmap::with_depths(depths)
    }

    /// Count one visit of `node`.  Relaxed atomic add — safe from any
    /// number of traversal workers, never part of the counted cost model.
    // ordering: Relaxed fetch_add — independent tally cells with no guarded
    // payload; readers synchronise via the launch join (see the audit note
    // on the reader methods below), not via these cells.
    #[inline]
    pub fn record(&self, node: u32) {
        self.visits[node as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of nodes the heatmap covers.
    pub fn node_count(&self) -> usize {
        self.visits.len()
    }

    /// Recorded visits of one node.
    // ordering: Relaxed load — read after the traversal launch joins; the
    // join (rayon scope exit / dispatch_batch return) is the happens-before
    // edge that makes every worker's Relaxed adds visible here.
    pub fn visits(&self, node: usize) -> u64 {
        self.visits[node].load(Ordering::Relaxed)
    }

    /// Depth of one node (root = 0).
    pub fn depth_of(&self, node: usize) -> u32 {
        self.depths[node]
    }

    /// Deepest node level.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Sum of all per-node visits — equals the engine's
    /// `wide_node_visits` (or binary `node_visits`) for the launches made
    /// while this heatmap was attached.
    // ordering: Relaxed loads — post-join read, see `visits`.
    pub fn total_visits(&self) -> u64 {
        self.visits.iter().map(|v| v.load(Ordering::Relaxed)).sum()
    }

    /// Visits aggregated per depth: `result[d]` is the total visits of all
    /// nodes at depth `d`.
    // ordering: Relaxed loads — post-join read, see `visits`.
    pub fn per_depth(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.max_depth as usize + 1];
        for (node, v) in self.visits.iter().enumerate() {
            out[self.depths[node] as usize] += v.load(Ordering::Relaxed);
        }
        out
    }

    /// Number of nodes per depth (the denominator for visit-per-node
    /// averages).
    pub fn nodes_per_depth(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.max_depth as usize + 1];
        for &d in &self.depths {
            out[d as usize] += 1;
        }
        out
    }

    /// Visits aggregated per treelet of `nodes_per_treelet` consecutive
    /// node ids — the unit a cache-aware layout would relocate together
    /// (e.g. 64 compact 80-byte nodes ≈ one 4 KiB page).
    // ordering: Relaxed loads — post-join read, see `visits`.
    pub fn per_treelet(&self, nodes_per_treelet: usize) -> Vec<u64> {
        let size = nodes_per_treelet.max(1);
        let mut out = vec![0u64; self.visits.len().div_ceil(size)];
        for (node, v) in self.visits.iter().enumerate() {
            out[node / size] += v.load(Ordering::Relaxed);
        }
        out
    }

    /// Zero every visit counter (the depth mapping is static and kept).
    // ordering: Relaxed stores — reset runs between launches with no
    // concurrent writers; the next launch's spawn publishes the zeroes.
    pub fn reset(&self) {
        for v in &self.visits {
            v.store(0, Ordering::Relaxed);
        }
    }

    /// JSON snapshot:
    /// `{"nodes":…,"total_visits":…,"per_depth":[…],"nodes_per_depth":[…]}`.
    pub fn to_json(&self) -> String {
        let per_depth: Vec<String> = self.per_depth().iter().map(u64::to_string).collect();
        let per_count: Vec<String> = self.nodes_per_depth().iter().map(u64::to_string).collect();
        format!(
            "{{\"nodes\":{},\"total_visits\":{},\"per_depth\":[{}],\"nodes_per_depth\":[{}]}}",
            self.node_count(),
            self.total_visits(),
            per_depth.join(","),
            per_count.join(","),
        )
    }

    /// Human-readable per-depth table with visit shares.
    pub fn summary(&self) -> String {
        let per_depth = self.per_depth();
        let per_count = self.nodes_per_depth();
        let total = self.total_visits().max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "{:>5} {:>8} {:>12} {:>8} {:>12}\n",
            "depth", "nodes", "visits", "share", "visits/node"
        ));
        for (d, (&visits, &nodes)) in per_depth.iter().zip(per_count.iter()).enumerate() {
            out.push_str(&format!(
                "{:>5} {:>8} {:>12} {:>7.1}% {:>12.1}\n",
                d,
                nodes,
                visits,
                100.0 * visits as f64 / total,
                visits as f64 / nodes.max(1) as f64,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::{spheres_from_points, BvhBuilder, LbvhBuilder};
    use crate::geometry::Point3;

    fn grid(n: usize) -> Vec<Point3> {
        (0..n)
            .map(|i| Point3::new_2d((i % 16) as f32 * 0.5, (i / 16) as f32 * 0.5))
            .collect()
    }

    #[test]
    fn depths_start_at_root_and_grow_by_one() {
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&grid(256), 0.6))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let heat = NodeHeatmap::for_wide(&wide);
        assert_eq!(heat.node_count(), wide.nodes.len());
        assert_eq!(heat.depth_of(0), 0);
        // Every non-root node sits exactly one level below some parent.
        for (i, node) in wide.nodes.iter().enumerate() {
            for slot in &node.children {
                if let WideChild::Node(child) = slot {
                    assert_eq!(
                        heat.depth_of(*child as usize),
                        heat.depth_of(i) + 1,
                        "child {child} of node {i}"
                    );
                }
            }
        }
        assert!(heat.max_depth() >= 1);
    }

    #[test]
    fn record_and_aggregations_agree() {
        let heat = NodeHeatmap::with_depths(vec![0, 1, 1, 2]);
        heat.record(0);
        heat.record(1);
        heat.record(1);
        heat.record(3);
        assert_eq!(heat.total_visits(), 4);
        assert_eq!(heat.per_depth(), vec![1, 2, 1]);
        assert_eq!(heat.nodes_per_depth(), vec![1, 2, 1]);
        assert_eq!(heat.per_treelet(2), vec![3, 1]);
        assert_eq!(heat.visits(1), 2);
        heat.reset();
        assert_eq!(heat.total_visits(), 0);
        assert_eq!(heat.per_depth(), vec![0, 0, 0]);
    }

    #[test]
    fn json_and_summary_render() {
        let heat = NodeHeatmap::with_depths(vec![0, 1]);
        heat.record(0);
        assert_eq!(
            heat.to_json(),
            "{\"nodes\":2,\"total_visits\":1,\"per_depth\":[1,0],\"nodes_per_depth\":[1,1]}"
        );
        let summary = heat.summary();
        assert!(summary.contains("visits/node"));
        assert!(summary.lines().count() >= 3);
    }

    #[test]
    fn binary_depths_cover_every_node() {
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&grid(64), 0.6))
            .unwrap();
        let heat = NodeHeatmap::for_binary(&bvh);
        assert_eq!(heat.node_count(), bvh.nodes.len());
        for i in 0..bvh.nodes.len() {
            if let NodeKind::Internal { left, right } = bvh.nodes[i].kind {
                assert_eq!(heat.depth_of(left as usize), heat.depth_of(i) + 1);
                assert_eq!(heat.depth_of(right as usize), heat.depth_of(i) + 1);
            }
        }
    }
}
