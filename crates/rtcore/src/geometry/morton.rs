//! Morton (Z-order) codes and the one radix sort every Morton consumer
//! shares.
//!
//! GPU BVH builders (including the ones behind OptiX's fast build mode)
//! linearise primitives along a space-filling curve and then emit the
//! hierarchy from the sorted order.  This module provides the 30-bit 3-D
//! Morton encoding (10 bits per axis) and [`morton_sort`]: encode a point
//! set over its own bounds into a `u32` key lane, then sort a `u32`
//! permutation by key, ties by index, with a stable LSD radix sort — so the
//! builders do not depend on the standard library sort and the cost model
//! can account for the sort explicitly.
//!
//! A build runs this pass once over its input points; compaction, the LBVH
//! emitter and the shard planner all read that one order (see
//! [`crate::bvh`]).  A Morton-ordered launch
//! ([`crate::traversal::ReorderScratch`]) runs it over its queries.  With
//! more than one logical worker the sort is chunk-parallel (per-chunk
//! histograms, a digit-major exclusive prefix sum across the chunks, and a
//! stable parallel scatter into disjoint output regions); its output is the
//! same permutation for every worker count.

use crate::geometry::{Aabb, Point3};
use rayon::prelude::*;

/// Spread the lower 10 bits of `v` so that there are two zero bits between
/// each original bit ("bit interleaving" helper).
#[inline]
fn expand_bits_10(v: u32) -> u32 {
    let mut x = v & 0x3ff;
    x = (x | (x << 16)) & 0x030000FF;
    x = (x | (x << 8)) & 0x0300F00F;
    x = (x | (x << 4)) & 0x030C30C3;
    x = (x | (x << 2)) & 0x09249249;
    x
}

/// Encode normalised coordinates (each in `[0, 1]`) into a 30-bit Morton
/// code.  Values outside `[0, 1]` are clamped.
#[inline]
pub fn morton_encode_normalized(x: f32, y: f32, z: f32) -> u32 {
    #[inline]
    fn quantize(v: f32) -> u32 {
        let v = (v.clamp(0.0, 1.0) * 1023.0).round();
        v as u32
    }
    let xx = expand_bits_10(quantize(x));
    let yy = expand_bits_10(quantize(y));
    let zz = expand_bits_10(quantize(z));
    (xx << 2) | (yy << 1) | zz
}

/// Encode a point given the scene bounds used for normalisation.
///
/// Degenerate extents (a flat axis, common for 2-D data with `z = 0`) map to
/// coordinate 0 on that axis.
#[inline]
pub fn morton_encode_3d(
    p: crate::geometry::Point3,
    scene_min: crate::geometry::Point3,
    scene_extent: (f32, f32, f32),
) -> u32 {
    #[inline]
    fn norm(v: f32, min: f32, extent: f32) -> f32 {
        if extent > 0.0 {
            (v - min) / extent
        } else {
            0.0
        }
    }
    morton_encode_normalized(
        norm(p.x, scene_min.x, scene_extent.0),
        norm(p.y, scene_min.y, scene_extent.1),
        norm(p.z, scene_min.z, scene_extent.2),
    )
}

/// The Morton pass: encode `center(item)` of every item over the bounds of
/// all of them into `keys` (input order), then sort `perm` into ascending
/// `(code, index)` order with [`radix_sort_perm_by_key`].  `buf` is the
/// sort's ping-pong lane.  All three lanes are grow-only, so a warm caller
/// runs the pass without touching the allocator.
///
/// `workers` is a logical chunk count: above one, the bounds reduction, the
/// encode and the sort run chunk-parallel.  The permutation is the same for
/// every value — the bounds fold only reassociates `min`/`max`, which can
/// at most flip the sign of a zero bound, and a zero's sign never changes a
/// code.
pub(crate) fn morton_sort<T: Sync>(
    items: &[T],
    center: impl Fn(&T) -> Point3 + Sync,
    workers: usize,
    keys: &mut Vec<u32>,
    perm: &mut Vec<u32>,
    buf: &mut Vec<u32>,
) {
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    let grow = |acc: Aabb, item: &T| acc.grown_to_include(center(item));
    let bounds = if workers == 1 {
        items.iter().fold(Aabb::EMPTY, grow)
    } else {
        let chunk = n.div_ceil(workers);
        let partials: Vec<Aabb> = (0..workers)
            .into_par_iter()
            .map(|t| {
                let (lo, hi) = ((t * chunk).min(n), ((t + 1) * chunk).min(n));
                items[lo..hi].iter().fold(Aabb::EMPTY, grow)
            })
            .collect();
        partials.iter().fold(Aabb::EMPTY, |acc, b| acc.union(b))
    };
    let extent = bounds.extent();
    fill_lane(keys, n, workers, |i| {
        morton_encode_3d(center(&items[i]), bounds.min, extent)
    });
    radix_sort_perm_by_key(keys, perm, buf, workers);
}

/// Scatter operations the cost model charges for radix-sorting `n` keys:
/// one per key in each of the four 8-bit passes, none for `n <= 1`.
pub(crate) fn radix_sort_ops(n: usize) -> u64 {
    if n > 1 {
        4 * n as u64
    } else {
        0
    }
}

/// Stable LSD radix sort of a permutation by per-element keys (8-bit
/// digits, 4 passes): on return `perm` lists `0..keys.len()` ordered by
/// `keys[i]`, ties by ascending `i`.
///
/// Only `u32` lanes move: `perm` and the caller-held ping-pong lane `buf`
/// are grow-only.  A pass whose digit is the same for every key is a stable
/// no-op and is skipped.  With one worker the four digit histograms come
/// from one sequential pass over `keys` (they do not depend on element
/// order).  With `workers > 1` each pass cuts the current permutation into
/// that many chunks, counts per chunk in parallel, runs a digit-major
/// exclusive prefix sum across the chunks — region `(digit, chunk)` starts
/// after every smaller digit and every earlier chunk of the same digit —
/// and scatters every chunk in parallel into its own regions.  That region
/// order is exactly the sequential stable order, so the permutation is the
/// same for every worker count; `workers` is a logical chunk count, and the
/// pool may run the chunks on fewer threads.
fn radix_sort_perm_by_key(keys: &[u32], perm: &mut Vec<u32>, buf: &mut Vec<u32>, workers: usize) {
    let n = keys.len();
    perm.clear();
    perm.extend(0..n as u32);
    if n <= 1 {
        return;
    }
    buf.clear();
    buf.resize(n, 0);
    let workers = workers.clamp(1, n);
    if workers == 1 {
        let mut counts = [[0usize; 256]; 4];
        for &k in keys {
            for (pass, histogram) in counts.iter_mut().enumerate() {
                histogram[((k >> (pass * 8)) & 0xff) as usize] += 1;
            }
        }
        for (pass, histogram) in counts.iter().enumerate() {
            if histogram.contains(&n) {
                continue;
            }
            let shift = pass * 8;
            let mut offsets = [0usize; 256];
            let mut running = 0usize;
            for (digit, &count) in histogram.iter().enumerate() {
                offsets[digit] = running;
                running += count;
            }
            for &i in perm.iter() {
                let digit = ((keys[i as usize] >> shift) & 0xff) as usize;
                buf[offsets[digit]] = i;
                offsets[digit] += 1;
            }
            std::mem::swap(perm, buf);
        }
        return;
    }
    let chunk = n.div_ceil(workers);
    for shift in [0u32, 8, 16, 24] {
        let digit_of = |i: u32| ((keys[i as usize] >> shift) & 0xff) as usize;
        let src: &[u32] = perm;
        let histograms: Vec<[usize; 256]> = (0..workers)
            .into_par_iter()
            .map(|t| {
                let mut counts = [0usize; 256];
                for &i in &src[(t * chunk).min(n)..((t + 1) * chunk).min(n)] {
                    counts[digit_of(i)] += 1;
                }
                counts
            })
            .collect();
        let mut offsets = vec![[0usize; 256]; workers];
        let mut running = 0usize;
        let mut constant = false;
        for digit in 0..256 {
            let before = running;
            for (t, histogram) in histograms.iter().enumerate() {
                offsets[t][digit] = running;
                running += histogram[digit];
            }
            constant |= running - before == n;
        }
        debug_assert_eq!(running, n);
        if constant {
            continue;
        }
        let out = SendPtr(buf.as_mut_ptr());
        (0..workers).into_par_iter().for_each(|t| {
            let mut offs = offsets[t];
            // The prefix sum partitions `[0, n)` into disjoint (digit,
            // chunk) regions sized by the per-chunk histograms; worker `t`
            // writes only inside its own regions, one slot per element.
            for &i in &src[(t * chunk).min(n)..((t + 1) * chunk).min(n)] {
                let digit = digit_of(i);
                // SAFETY: disjoint (digit, chunk) regions (see above) — no
                // two workers touch the same slot, every slot is written
                // exactly once, and `buf` is read only after the join.
                unsafe { out.get().add(offs[digit]).write(i) };
                offs[digit] += 1;
            }
        });
        std::mem::swap(perm, buf);
    }
}

/// Overwrite `lane` with `f(0), …, f(len - 1)`.  With `workers > 1` the
/// index range is cut into that many chunks that fill disjoint slots in
/// parallel; the lane is the same for every worker count.  Grow-only, so a
/// warm lane fills without touching the allocator.
pub(crate) fn fill_lane<T: Copy + Send>(
    lane: &mut Vec<T>,
    len: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) {
    lane.clear();
    if workers <= 1 || len < 2 {
        lane.extend((0..len).map(f));
        return;
    }
    lane.reserve(len);
    let chunk = len.div_ceil(workers.min(len));
    let out = SendPtr(lane.as_mut_ptr());
    (0..len.div_ceil(chunk)).into_par_iter().for_each(|t| {
        for i in t * chunk..((t + 1) * chunk).min(len) {
            // SAFETY: the chunks partition `[0, len)`, so every slot of the
            // reserved capacity is written exactly once, by one worker, and
            // the lane is read only after the join.
            unsafe { out.get().add(i).write(f(i)) };
        }
    });
    // SAFETY: the pool joined and every slot in `[0, len)` was initialised
    // above (a panicking worker propagates before this line).
    unsafe { lane.set_len(len) };
}

/// Raw-pointer wrapper that lets chunk workers write into *disjoint* regions
/// of one shared output buffer.  Every use site argues disjointness in a
/// `SAFETY` comment; the wrapper itself only launders the pointer across the
/// `Send`/`Sync` boundary of the scoped-thread pool.
struct SendPtr<T>(*mut T);

// SAFETY: `SendPtr` is a plain pointer with no aliasing guarantees of its
// own; each use site partitions the pointee buffer into disjoint index
// ranges per worker, so concurrent writes never overlap and the buffer is
// only read again after the pool joins (the join is the happens-before
// edge).
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: see the `Send` justification above — the wrapper is shared across
// workers by reference, and all access goes through disjoint regions.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The pointer.  A method rather than a field read, so closures capture
    /// the whole (`Sync`) wrapper instead of the bare pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point3;

    /// The reference order: `0..keys.len()` stably sorted by key.
    fn std_order(keys: &[u32]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_by_key(|&i| keys[i as usize]);
        order
    }

    fn sort(keys: &[u32], workers: usize) -> Vec<u32> {
        let (mut perm, mut buf) = (Vec::new(), Vec::new());
        radix_sort_perm_by_key(keys, &mut perm, &mut buf, workers);
        perm
    }

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) & 0x3fffffff
        }
    }

    #[test]
    fn expand_bits_spacing() {
        // 0b111 -> 0b1001001
        assert_eq!(expand_bits_10(0b111), 0b1001001);
        assert_eq!(expand_bits_10(1), 1);
        assert_eq!(expand_bits_10(0), 0);
    }

    #[test]
    fn morton_origin_is_zero_and_corner_is_max() {
        assert_eq!(morton_encode_normalized(0.0, 0.0, 0.0), 0);
        let max = morton_encode_normalized(1.0, 1.0, 1.0);
        assert_eq!(max, (1 << 30) - 1);
    }

    #[test]
    fn morton_clamps_out_of_range() {
        assert_eq!(
            morton_encode_normalized(-1.0, 2.0, 0.5),
            morton_encode_normalized(0.0, 1.0, 0.5)
        );
    }

    #[test]
    fn morton_orders_along_axes() {
        // Larger x (with other coordinates 0) must give a strictly larger code.
        let lo = morton_encode_normalized(0.1, 0.0, 0.0);
        let hi = morton_encode_normalized(0.9, 0.0, 0.0);
        assert!(hi > lo);
    }

    #[test]
    fn morton_encode_3d_handles_flat_axis() {
        let min = Point3::new(0.0, 0.0, 0.0);
        let extent = (10.0, 10.0, 0.0); // flat z, as for 2-D data
        let a = morton_encode_3d(Point3::new(1.0, 1.0, 0.0), min, extent);
        let b = morton_encode_3d(Point3::new(9.0, 9.0, 0.0), min, extent);
        assert!(b > a);
    }

    #[test]
    fn radix_sort_sorts_and_is_stable() {
        let keys = [30, 10, 30, 5, 10];
        // Ascending keys; equal keys keep their input order.
        assert_eq!(sort(&keys, 1), vec![3, 1, 4, 0, 2]);
        assert_eq!(sort(&keys, 1), std_order(&keys));
    }

    #[test]
    fn radix_sort_handles_trivial_inputs() {
        assert!(sort(&[], 1).is_empty());
        assert_eq!(sort(&[9], 1), vec![0]);
        assert_eq!(radix_sort_ops(0), 0);
        assert_eq!(radix_sort_ops(1), 0);
        assert_eq!(radix_sort_ops(5), 20);
    }

    // The parallel sort deliberately uses no atomics: every pass hands work
    // between phases through the pool's fork/join edges (histograms are
    // collected before the prefix sum runs; the scatter only starts after
    // the prefix sum assigned disjoint regions), so there is no interleaving
    // to model-check with loom.  Instead, the handoff is exercised as a
    // deterministic schedule sweep: the permutation must equal a std stable
    // sort for *every* logical chunk count, including chunk counts far above
    // the physical core count, through one warm pair of lanes.
    #[test]
    fn parallel_radix_sort_matches_sequential_for_all_worker_counts() {
        let mut next = lcg(0xdeadbeef);
        // Heavy duplication so stability is actually load-bearing, plus a
        // full-width spread so every pass scatters.
        let dup: Vec<u32> = (0..2000).map(|_| next() % 97).collect();
        let wide: Vec<u32> = (0..3001).map(|_| next()).collect();
        let (mut perm, mut buf) = (Vec::new(), Vec::new());
        for keys in [&dup, &wide] {
            let expected = std_order(keys);
            for workers in 1..=64 {
                radix_sort_perm_by_key(keys, &mut perm, &mut buf, workers);
                assert_eq!(perm, expected, "workers={workers}");
            }
        }
    }

    #[test]
    fn parallel_radix_sort_handles_identical_codes_and_tiny_inputs() {
        let identical = vec![42u32; 100];
        for workers in [2usize, 7, 200] {
            // Stability: identical codes keep their original order.
            assert_eq!(sort(&identical, workers), std_order(&identical));
            assert!(sort(&[], workers).is_empty());
            assert_eq!(sort(&[9], workers), vec![0]);
            assert_eq!(sort(&[9, 3], workers), vec![1, 0]);
        }
    }

    #[test]
    fn radix_sort_matches_std_sort_on_random_codes() {
        let mut next = lcg(0x12345678);
        let keys: Vec<u32> = (0..1000).map(|_| next()).collect();
        let perm = sort(&keys, 1);
        assert_eq!(perm, std_order(&keys));
        let sorted: Vec<u32> = perm.iter().map(|&i| keys[i as usize]).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn fill_lane_is_the_same_for_every_worker_count() {
        let mut lane = Vec::new();
        for len in [0usize, 1, 2, 17, 1000] {
            let expected: Vec<u64> = (0..len as u64).map(|i| i * i + 3).collect();
            for workers in [1usize, 2, 3, 8, 64, 2000] {
                fill_lane(&mut lane, len, workers, |i| (i * i + 3) as u64);
                assert_eq!(lane, expected, "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn morton_sort_is_the_same_for_every_worker_count() {
        let mut next = lcg(7);
        // Signed zeros on the bounds, a flat z axis and exact duplicates.
        let points: Vec<Point3> = (0..500)
            .map(|i| match i % 5 {
                0 => Point3::new(0.0, -0.0, 0.0),
                1 => Point3::new(-0.0, 0.0, 0.0),
                _ => Point3::new((next() % 64) as f32, (next() % 64) as f32 * 0.5, 0.0),
            })
            .collect();
        let (mut keys, mut perm, mut buf) = (Vec::new(), Vec::new(), Vec::new());
        morton_sort(&points, |&p| p, 1, &mut keys, &mut perm, &mut buf);
        let (seq_keys, seq_perm) = (keys.clone(), perm.clone());
        assert_eq!(seq_perm, std_order(&seq_keys));
        assert_eq!(keys[0], keys[1], "signed zeros share a code");
        for workers in [2usize, 3, 8, 64] {
            morton_sort(&points, |&p| p, workers, &mut keys, &mut perm, &mut buf);
            assert_eq!(keys, seq_keys, "workers={workers}");
            assert_eq!(perm, seq_perm, "workers={workers}");
        }
    }
}
