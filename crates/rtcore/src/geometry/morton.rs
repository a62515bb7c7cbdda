//! Morton (Z-order) codes and the radix sort used by the LBVH builder.
//!
//! GPU BVH builders (including the ones behind OptiX's fast build mode)
//! linearise primitives along a space-filling curve and then emit the
//! hierarchy from the sorted order.  This module provides the 30-bit 3-D
//! Morton encoding (10 bits per axis) that the LBVH builder in
//! [`crate::bvh::lbvh`] consumes, plus a stable LSD radix sort over the codes
//! so the builder does not depend on the standard library sort (and so the
//! cost model can account for the sort explicitly).
//!
//! The sort comes in two flavours: the original sequential
//! [`radix_sort_by_code`] and a chunk-parallel [`radix_sort_by_code_parallel`]
//! (per-chunk histograms, an exclusive prefix-sum across chunks, and a stable
//! parallel scatter into disjoint output regions).  Both produce bit-identical
//! output and charge exactly the same number of scatter operations; the
//! parallel variant additionally reports its cross-chunk histogram merges so
//! the cost model can see where the bookkeeping differs.  A third,
//! [`radix_sort_perm_by_key`], sorts a bare `u32` permutation by a key lane
//! in the same order, for the Morton launch reorder and primitive
//! compaction, which need no sorted copy of their inputs.

use rayon::prelude::*;

/// A 30-bit 3-D Morton code paired with the index of the primitive it was
/// computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MortonCode {
    /// The interleaved code.
    pub code: u32,
    /// Index of the primitive this code belongs to.
    pub index: u32,
}

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

/// Stable least-significant-digit radix sort of Morton codes (8-bit digits,
/// 4 passes).  Returns the number of scatter operations performed so the
/// device cost model can charge for the sort.
pub fn radix_sort_by_code(codes: &mut Vec<MortonCode>) -> u64 {
    let n = codes.len();
    if n <= 1 {
        return 0;
    }
    let mut scratch: Vec<MortonCode> = vec![MortonCode { code: 0, index: 0 }; n];
    let mut ops: u64 = 0;
    for pass in 0..4u32 {
        let shift = pass * 8;
        let mut counts = [0usize; 256];
        for c in codes.iter() {
            counts[((c.code >> shift) & 0xff) as usize] += 1;
        }
        let mut offsets = [0usize; 256];
        let mut running = 0usize;
        for (digit, count) in counts.iter().enumerate() {
            offsets[digit] = running;
            running += count;
        }
        for c in codes.iter() {
            let digit = ((c.code >> shift) & 0xff) as usize;
            scratch[offsets[digit]] = *c;
            offsets[digit] += 1;
            ops += 1;
        }
        std::mem::swap(codes, &mut scratch);
    }
    ops
}

/// Stable LSD radix sort of a permutation by per-element keys (8-bit
/// digits, 4 passes): on return `perm` lists `0..keys.len()` ordered by
/// `keys[i]`, ties by ascending `i` — exactly the order
/// [`radix_sort_by_code`] gives `(code, index)` pairs built in index order.
///
/// Only `u32` lanes move: `perm` and the caller-held ping-pong lane `buf`
/// are grow-only, so a warm caller sorts without touching the allocator.
/// The digit histograms do not depend on element order, so all four come
/// from one sequential pass over `keys`, and a pass whose digit is the same
/// for every key (a stable no-op) is skipped.  Returns the scatter
/// operations charged, the same `4 × n` as [`radix_sort_by_code`].
pub(crate) fn radix_sort_perm_by_key(keys: &[u32], perm: &mut Vec<u32>, buf: &mut Vec<u32>) -> u64 {
    let n = keys.len();
    perm.clear();
    perm.extend(0..n as u32);
    if n <= 1 {
        return 0;
    }
    let mut counts = [[0usize; 256]; 4];
    for &k in keys {
        for (pass, histogram) in counts.iter_mut().enumerate() {
            histogram[((k >> (pass * 8)) & 0xff) as usize] += 1;
        }
    }
    buf.clear();
    buf.resize(n, 0);
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
    4 * n as u64
}

/// Raw-pointer wrapper that lets chunk workers write into *disjoint* regions
/// of one shared output buffer.  Every use site must argue disjointness in a
/// `SAFETY` comment; the wrapper itself only launders the pointer across the
/// `Send`/`Sync` boundary of the scoped-thread pool.
pub(crate) struct SendPtr<T>(*mut T);

// SAFETY: `SendPtr` is a plain pointer with no aliasing guarantees of its
// own; each use site partitions the pointee buffer into disjoint index
// ranges per worker (asserted where the pointer is created), so concurrent
// writes never overlap and the buffer is only read again after the pool
// joins (the join is the happens-before edge).
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: see the `Send` justification above — the wrapper is shared across
// workers by reference, and all access goes through disjoint regions.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// Work performed by [`radix_sort_by_code_parallel`], reported separately so
/// the caller can charge `build_sort_ops` exactly like the sequential sort
/// and account the parallel-only prefix-sum bookkeeping on its own counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixSortStats {
    /// Stable scatter operations — identical to what the sequential sort
    /// would have returned (4 passes × n elements).
    pub scatter_ops: u64,
    /// Cross-chunk merges performed by the exclusive prefix-sum over the
    /// per-chunk digit histograms (zero when the sort ran sequentially).
    pub chunk_merges: u64,
}

/// Chunk-parallel stable LSD radix sort: same four 8-bit passes as
/// [`radix_sort_by_code`], but each pass computes per-chunk digit histograms
/// in parallel, runs one sequential digit-major exclusive prefix-sum across
/// the chunks, and then scatters every chunk in parallel into the disjoint
/// output regions the prefix-sum assigned.
///
/// The output is **bit-identical** to the sequential sort for any `workers`
/// value: region order is (digit ascending, chunk ascending) and every chunk
/// scatters its elements in index order, which is exactly the sequential
/// stable order.  `workers` is a *logical* chunk count — the thread pool may
/// run chunks on fewer physical threads without affecting the result.
pub fn radix_sort_by_code_parallel(codes: &mut Vec<MortonCode>, workers: usize) -> RadixSortStats {
    let n = codes.len();
    if workers <= 1 || n <= 1 {
        return RadixSortStats {
            scatter_ops: radix_sort_by_code(codes),
            chunk_merges: 0,
        };
    }
    let workers = workers.min(n);
    let chunk = n.div_ceil(workers);
    let mut scratch: Vec<MortonCode> = vec![MortonCode { code: 0, index: 0 }; n];
    let mut chunk_merges = 0u64;
    for pass in 0..4u32 {
        let shift = pass * 8;
        let src: &[MortonCode] = codes;
        let histograms: Vec<[usize; 256]> = (0..workers)
            .into_par_iter()
            .map(|t| {
                let lo = (t * chunk).min(n);
                let hi = ((t + 1) * chunk).min(n);
                let mut counts = [0usize; 256];
                for c in &src[lo..hi] {
                    counts[((c.code >> shift) & 0xff) as usize] += 1;
                }
                counts
            })
            .collect();
        // Digit-major exclusive prefix-sum: region (digit, chunk) starts
        // after every smaller digit and every earlier chunk of the same
        // digit — the order that makes the parallel scatter stable.
        let mut offsets: Vec<[usize; 256]> = vec![[0usize; 256]; workers];
        let mut running = 0usize;
        for digit in 0..256 {
            for (t, histogram) in histograms.iter().enumerate() {
                offsets[t][digit] = running;
                running += histogram[digit];
                chunk_merges += 1;
            }
        }
        debug_assert_eq!(running, n);
        let out = SendPtr::new(scratch.as_mut_ptr());
        (0..workers).into_par_iter().for_each(|t| {
            let lo = (t * chunk).min(n);
            let hi = ((t + 1) * chunk).min(n);
            let mut offs = offsets[t];
            // The prefix-sum partitions `[0, n)` into disjoint (digit, chunk)
            // regions sized by the per-chunk histograms; worker `t` only
            // writes inside its own regions (starting at `offsets[t][digit]`,
            // bumping by one per element, bounded by its histogram count).
            for c in &src[lo..hi] {
                let digit = ((c.code >> shift) & 0xff) as usize;
                // SAFETY: disjoint (digit, chunk) regions (see above) — no
                // two workers touch the same slot, every slot is written
                // exactly once, and scratch is read only after the join.
                unsafe {
                    *out.get().add(offs[digit]) = *c;
                }
                offs[digit] += 1;
            }
        });
        std::mem::swap(codes, &mut scratch);
    }
    RadixSortStats {
        scatter_ops: 4 * n as u64,
        chunk_merges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point3;

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
        let mut codes = vec![
            MortonCode { code: 30, index: 0 },
            MortonCode { code: 10, index: 1 },
            MortonCode { code: 30, index: 2 },
            MortonCode { code: 5, index: 3 },
            MortonCode { code: 10, index: 4 },
        ];
        let ops = radix_sort_by_code(&mut codes);
        assert!(ops > 0);
        let sorted: Vec<u32> = codes.iter().map(|c| c.code).collect();
        assert_eq!(sorted, vec![5, 10, 10, 30, 30]);
        // Stability: equal codes keep their original relative order.
        assert_eq!(codes[1].index, 1);
        assert_eq!(codes[2].index, 4);
        assert_eq!(codes[3].index, 0);
        assert_eq!(codes[4].index, 2);
    }

    #[test]
    fn radix_sort_handles_trivial_inputs() {
        let mut empty: Vec<MortonCode> = vec![];
        assert_eq!(radix_sort_by_code(&mut empty), 0);
        let mut one = vec![MortonCode { code: 9, index: 0 }];
        assert_eq!(radix_sort_by_code(&mut one), 0);
        assert_eq!(one[0].code, 9);
    }

    // The parallel sort deliberately uses no atomics: every pass hands work
    // between phases through the pool's fork/join edges (histograms are
    // collected before the prefix-sum runs; the scatter only starts after the
    // prefix-sum assigned disjoint regions), so there is no interleaving to
    // model-check with loom.  Instead, the handoff is exercised as a
    // deterministic schedule sweep: the result must be bit-identical to the
    // sequential sort for *every* logical chunk count, including chunk counts
    // far above the physical core count.
    #[test]
    fn parallel_radix_sort_matches_sequential_for_all_worker_counts() {
        let mut state = 0xdeadbeefu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) & 0x3fffffff
        };
        // Heavy duplication so stability is actually load-bearing.
        let base: Vec<MortonCode> = (0..2000)
            .map(|i| MortonCode {
                code: next() % 97,
                index: i,
            })
            .collect();
        let mut expected = base.clone();
        let seq_ops = radix_sort_by_code(&mut expected);
        for workers in [1usize, 2, 3, 5, 8, 16, 64] {
            let mut codes = base.clone();
            let stats = radix_sort_by_code_parallel(&mut codes, workers);
            assert_eq!(codes, expected, "workers={workers}");
            assert_eq!(stats.scatter_ops, seq_ops, "workers={workers}");
            if workers > 1 {
                assert!(stats.chunk_merges > 0, "workers={workers}");
            } else {
                assert_eq!(stats.chunk_merges, 0);
            }
        }
    }

    #[test]
    fn parallel_radix_sort_handles_identical_codes_and_tiny_inputs() {
        let identical: Vec<MortonCode> = (0..100)
            .map(|i| MortonCode { code: 42, index: i })
            .collect();
        for workers in [2usize, 7, 200] {
            let mut codes = identical.clone();
            radix_sort_by_code_parallel(&mut codes, workers);
            // Stability: identical codes keep their original order.
            assert!(codes.iter().enumerate().all(|(i, c)| c.index == i as u32));
        }
        let mut empty: Vec<MortonCode> = vec![];
        assert_eq!(radix_sort_by_code_parallel(&mut empty, 8).scatter_ops, 0);
        let mut one = vec![MortonCode { code: 9, index: 0 }];
        let stats = radix_sort_by_code_parallel(&mut one, 8);
        assert_eq!(stats.scatter_ops, 0);
        assert_eq!(one[0].code, 9);
    }

    #[test]
    fn radix_sort_matches_std_sort_on_random_codes() {
        // Simple LCG so the test does not need the rand crate here.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) & 0x3fffffff
        };
        let mut codes: Vec<MortonCode> = (0..1000)
            .map(|i| MortonCode {
                code: next(),
                index: i,
            })
            .collect();
        let mut expected: Vec<u32> = codes.iter().map(|c| c.code).collect();
        expected.sort_unstable();
        radix_sort_by_code(&mut codes);
        let got: Vec<u32> = codes.iter().map(|c| c.code).collect();
        assert_eq!(got, expected);
    }
}
