//! Runtime SIMD dispatch for the traversal hot path.
//!
//! The wide (BVH4) engines have two inner loops worth vectorising: the
//! 4-slot point-in-box test of [`crate::bvh::WideNode::point_hit_mask_xyz`]
//! and the leaf-run squared-distance count of the stage-1 neighbour-count
//! launch.  This module owns the **dispatch policy** for both:
//!
//! * [`SimdLevel`] — what the launch actually runs: portable scalar code,
//!   SSE2 lane compares (baseline on `x86_64`), or AVX2 (runtime-detected
//!   via `is_x86_feature_detected!`).
//! * [`SimdPolicy`] — what the caller asked for.  `Auto` resolves to the
//!   best detected level; forcing a level above what the CPU supports
//!   falls back to the best available one, and every policy resolves to
//!   [`SimdLevel::Scalar`] on non-x86 targets.
//!
//! Resolution happens **once per launch** (the backends cache the resolved
//! level at index build), never per node: the traversal engines are
//! monomorphised per level, so the inner loops contain no dispatch at all.
//!
//! Every SIMD kernel in the workspace is bit-exact against its scalar
//! fallback: comparisons use the same predicates (`>=`/`<=`, false on NaN)
//! and squared distances are accumulated in the same association order
//! (`(dx² + dy²) + dz²`, no FMA), so enabling SIMD can never change a hit
//! mask, a neighbour set or a counter — only wall-clock.  This module also
//! hosts the leaf-run count kernels that consume the structure-of-arrays
//! primitive lanes of [`crate::bvh::PrimLanes`].

/// What SIMD capability a launch actually runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable scalar code — the reference every SIMD kernel must match
    /// bit for bit.
    Scalar,
    /// 128-bit SSE2 lane compares (always available on `x86_64`).
    Sse2,
    /// 256-bit AVX2 kernels (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Report name used by benches and logs.
    pub fn name(&self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Which SIMD level a launch should use — the configuration knob carried
/// by `NeighborIndexBuilder`.
///
/// # Examples
///
/// ```
/// use rtcore::simd::{SimdLevel, SimdPolicy};
///
/// // Auto resolves once (per launch, not per node) to the best level the
/// // CPU supports; forcing a level the CPU lacks falls back gracefully.
/// let level = SimdPolicy::Auto.resolve();
/// assert_eq!(SimdPolicy::Scalar.resolve(), SimdLevel::Scalar);
/// assert!(SimdPolicy::Avx2.resolve() <= level || level == SimdLevel::Scalar);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdPolicy {
    /// Use the best level the CPU supports (the default).
    #[default]
    Auto,
    /// Force the portable scalar path (the bit-exactness oracle).
    Scalar,
    /// Request SSE2; falls back to scalar off `x86_64`.
    Sse2,
    /// Request AVX2; falls back to the best available lower level when the
    /// CPU (or target) lacks it.
    Avx2,
}

impl SimdPolicy {
    /// Resolve the policy against the running CPU.  Called once per launch
    /// (or once per index build) — never inside a traversal loop.
    pub fn resolve(self) -> SimdLevel {
        match self {
            SimdPolicy::Scalar => SimdLevel::Scalar,
            SimdPolicy::Auto | SimdPolicy::Avx2 => detect_simd(),
            SimdPolicy::Sse2 => match detect_simd() {
                SimdLevel::Scalar => SimdLevel::Scalar,
                _ => SimdLevel::Sse2,
            },
        }
    }

    /// Report name used by benches and configuration dumps.
    pub fn name(&self) -> &'static str {
        match self {
            SimdPolicy::Auto => "auto",
            SimdPolicy::Scalar => "scalar",
            SimdPolicy::Sse2 => "sse2",
            SimdPolicy::Avx2 => "avx2",
        }
    }
}

// `SimdLevel` ordering used by the doctest above: Scalar < Sse2 < Avx2.
impl PartialOrd for SimdLevel {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimdLevel {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(l: &SimdLevel) -> u8 {
            match l {
                SimdLevel::Scalar => 0,
                SimdLevel::Sse2 => 1,
                SimdLevel::Avx2 => 2,
            }
        }
        rank(self).cmp(&rank(other))
    }
}

/// The best SIMD level the running CPU supports, detected once and cached.
#[cfg(target_arch = "x86_64")]
pub fn detect_simd() -> SimdLevel {
    use std::sync::OnceLock;
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline.
            SimdLevel::Sse2
        }
    })
}

/// The best SIMD level the running CPU supports (always scalar off
/// `x86_64`).
#[cfg(not(target_arch = "x86_64"))]
pub fn detect_simd() -> SimdLevel {
    SimdLevel::Scalar
}

// ---------------------------------------------------------------------------
// Leaf-run squared-distance count kernels
// ---------------------------------------------------------------------------
//
// The stage-1 count launch spends most of its time in one loop: for a run
// of candidate primitives, count (multiplicity-weighted) how many lie
// within ε of the query.  The kernels below run it over the contiguous SoA
// primitive lanes of `PrimLanes` instead of gathering 24-byte `Sphere`
// structs.  All of them compute `d² = (dx·dx + dy·dy) + dz·dz` in exactly
// the association order of `geometry::distance_squared`, so the `d² <= ε²`
// verdict per candidate is identical to the scalar sphere test.

/// Scalar reference: multiplicity-weighted hit count of the candidates in
/// `px/py/pz[first..first + count]` against the closed ball `(qx,qy,qz,
/// eps_sq)`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_run_scalar(
    px: &[f32],
    py: &[f32],
    pz: &[f32],
    mult: &[u32],
    first: usize,
    count: usize,
    qx: f32,
    qy: f32,
    qz: f32,
    eps_sq: f32,
) -> u64 {
    // Reslice to the run first: the loop then indexes equal-length local
    // slices and every bounds check is elided (the hot path calls this
    // tens of millions of times per launch).
    let end = first + count;
    let (px, py, pz, mult) = (
        &px[first..end],
        &py[first..end],
        &pz[first..end],
        &mult[first..end],
    );
    let mut add = 0u64;
    for i in 0..count {
        let dx = px[i] - qx;
        let dy = py[i] - qy;
        let dz = pz[i] - qz;
        let hit = (dx * dx + dy * dy) + dz * dz <= eps_sq;
        add += hit as u64 * mult[i] as u64;
    }
    add
}

/// [`count_run_scalar`] for the uniform-multiplicity case (no compaction):
/// every hit counts exactly one, so the multiplicity lane is never read.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_run_scalar_unit(
    px: &[f32],
    py: &[f32],
    pz: &[f32],
    first: usize,
    count: usize,
    qx: f32,
    qy: f32,
    qz: f32,
    eps_sq: f32,
) -> u64 {
    let end = first + count;
    let (px, py, pz) = (&px[first..end], &py[first..end], &pz[first..end]);
    let mut add = 0u64;
    for i in 0..count {
        let dx = px[i] - qx;
        let dy = py[i] - qy;
        let dz = pz[i] - qz;
        add += ((dx * dx + dy * dy) + dz * dz <= eps_sq) as u64;
    }
    add
}

/// How many lanes of padding [`crate::bvh::PrimLanes`] appends so the
/// vector kernels may read whole vectors past a run's end (the padding
/// holds `+∞` coordinates that can never pass the closed-ball test, and
/// tail lanes are additionally masked out).
pub(crate) const LANE_PADDING: usize = 8;

/// SSE2 run count: 4 candidates per iteration over the padded SoA lanes.
///
/// # Safety
/// The lane slices must extend at least [`LANE_PADDING`] elements past
/// `first + count` (guaranteed by `PrimLanes`).  SSE2 itself is part of
/// the `x86_64` baseline.
#[cfg(target_arch = "x86_64")]
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn count_run_sse2(
    px: &[f32],
    py: &[f32],
    pz: &[f32],
    mult: &[u32],
    first: usize,
    count: usize,
    qx: f32,
    qy: f32,
    qz: f32,
    eps_sq: f32,
) -> u64 {
    use std::arch::x86_64::*;
    debug_assert!(px.len() >= first + count + LANE_PADDING);
    // SAFETY: `_mm_set1_ps` has no memory or alignment preconditions; SSE2
    // is part of the x86_64 baseline.
    let (qxv, qyv, qzv, epsv) = unsafe {
        (
            _mm_set1_ps(qx),
            _mm_set1_ps(qy),
            _mm_set1_ps(qz),
            _mm_set1_ps(eps_sq),
        )
    };
    let mut add = 0u64;
    let mut i = 0usize;
    while i < count {
        // SAFETY: padded loads stay within the lane allocations.
        let hits = unsafe {
            let x = _mm_loadu_ps(px.as_ptr().add(first + i));
            let y = _mm_loadu_ps(py.as_ptr().add(first + i));
            let z = _mm_loadu_ps(pz.as_ptr().add(first + i));
            let dx = _mm_sub_ps(x, qxv);
            let dy = _mm_sub_ps(y, qyv);
            let dz = _mm_sub_ps(z, qzv);
            // (dx² + dy²) + dz², matching the scalar association order.
            let d2 = _mm_add_ps(
                _mm_add_ps(_mm_mul_ps(dx, dx), _mm_mul_ps(dy, dy)),
                _mm_mul_ps(dz, dz),
            );
            _mm_movemask_ps(_mm_cmple_ps(d2, epsv)) as u32
        };
        let lanes = (count - i).min(4) as u32;
        let mut m = hits & ((1u32 << lanes) - 1);
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            add += mult[first + i + lane] as u64;
            m &= m - 1;
        }
        i += 4;
    }
    add
}

/// AVX2 run count: 8 candidates per iteration over the padded SoA lanes.
///
/// # Safety
/// The lane slices must extend at least [`LANE_PADDING`] elements past
/// `first + count`, and the CPU must support AVX2 (checked by the caller's
/// [`SimdPolicy::resolve`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn count_run_avx2(
    px: &[f32],
    py: &[f32],
    pz: &[f32],
    mult: &[u32],
    first: usize,
    count: usize,
    qx: f32,
    qy: f32,
    qz: f32,
    eps_sq: f32,
) -> u64 {
    use std::arch::x86_64::*;
    debug_assert!(px.len() >= first + count + LANE_PADDING);
    let qxv = _mm256_set1_ps(qx);
    let qyv = _mm256_set1_ps(qy);
    let qzv = _mm256_set1_ps(qz);
    let epsv = _mm256_set1_ps(eps_sq);
    let mut add = 0u64;
    let mut i = 0usize;
    while i < count {
        // SAFETY: padded loads stay within the lane allocations.
        let hits = unsafe {
            let x = _mm256_loadu_ps(px.as_ptr().add(first + i));
            let y = _mm256_loadu_ps(py.as_ptr().add(first + i));
            let z = _mm256_loadu_ps(pz.as_ptr().add(first + i));
            let dx = _mm256_sub_ps(x, qxv);
            let dy = _mm256_sub_ps(y, qyv);
            let dz = _mm256_sub_ps(z, qzv);
            let d2 = _mm256_add_ps(
                _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
                _mm256_mul_ps(dz, dz),
            );
            _mm256_movemask_ps(_mm256_cmp_ps(d2, epsv, _CMP_LE_OQ)) as u32
        };
        let lanes = (count - i).min(8) as u32;
        let mut m = hits & ((1u32 << lanes) - 1);
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            add += mult[first + i + lane] as u64;
            m &= m - 1;
        }
        i += 8;
    }
    add
}

/// SSE2 run count for uniform multiplicity: every masked hit counts one,
/// so the whole tail reduces to a popcount — no multiplicity gathers, no
/// per-bit loop.
///
/// # Safety
/// The lane slices must extend at least [`LANE_PADDING`] elements past
/// `first + count` (guaranteed by `PrimLanes`).
#[cfg(target_arch = "x86_64")]
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn count_run_sse2_unit(
    px: &[f32],
    py: &[f32],
    pz: &[f32],
    first: usize,
    count: usize,
    qx: f32,
    qy: f32,
    qz: f32,
    eps_sq: f32,
) -> u64 {
    use std::arch::x86_64::*;
    debug_assert!(px.len() >= first + count + LANE_PADDING);
    // SAFETY: padded loads stay within the lane allocations.
    unsafe {
        let qxv = _mm_set1_ps(qx);
        let qyv = _mm_set1_ps(qy);
        let qzv = _mm_set1_ps(qz);
        let epsv = _mm_set1_ps(eps_sq);
        let mut add = 0u64;
        let mut i = 0usize;
        while i < count {
            let x = _mm_loadu_ps(px.as_ptr().add(first + i));
            let y = _mm_loadu_ps(py.as_ptr().add(first + i));
            let z = _mm_loadu_ps(pz.as_ptr().add(first + i));
            let dx = _mm_sub_ps(x, qxv);
            let dy = _mm_sub_ps(y, qyv);
            let dz = _mm_sub_ps(z, qzv);
            let d2 = _mm_add_ps(
                _mm_add_ps(_mm_mul_ps(dx, dx), _mm_mul_ps(dy, dy)),
                _mm_mul_ps(dz, dz),
            );
            let hits = _mm_movemask_ps(_mm_cmple_ps(d2, epsv)) as u32;
            let lanes = (count - i).min(4) as u32;
            add += (hits & ((1u32 << lanes) - 1)).count_ones() as u64;
            i += 4;
        }
        add
    }
}

/// AVX2 run count for uniform multiplicity (see
/// [`count_run_sse2_unit`]): 8 candidates per popcounted iteration.
///
/// # Safety
/// The lane slices must extend at least [`LANE_PADDING`] elements past
/// `first + count`, and the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn count_run_avx2_unit(
    px: &[f32],
    py: &[f32],
    pz: &[f32],
    first: usize,
    count: usize,
    qx: f32,
    qy: f32,
    qz: f32,
    eps_sq: f32,
) -> u64 {
    use std::arch::x86_64::*;
    debug_assert!(px.len() >= first + count + LANE_PADDING);
    // SAFETY: padded loads stay within the lane allocations.
    unsafe {
        let qxv = _mm256_set1_ps(qx);
        let qyv = _mm256_set1_ps(qy);
        let qzv = _mm256_set1_ps(qz);
        let epsv = _mm256_set1_ps(eps_sq);
        let mut add = 0u64;
        let mut i = 0usize;
        while i < count {
            let x = _mm256_loadu_ps(px.as_ptr().add(first + i));
            let y = _mm256_loadu_ps(py.as_ptr().add(first + i));
            let z = _mm256_loadu_ps(pz.as_ptr().add(first + i));
            let dx = _mm256_sub_ps(x, qxv);
            let dy = _mm256_sub_ps(y, qyv);
            let dz = _mm256_sub_ps(z, qzv);
            let d2 = _mm256_add_ps(
                _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
                _mm256_mul_ps(dz, dz),
            );
            let hits = _mm256_movemask_ps(_mm256_cmp_ps(d2, epsv, _CMP_LE_OQ)) as u32;
            let lanes = (count - i).min(8) as u32;
            add += (hits & ((1u32 << lanes) - 1)).count_ones() as u64;
            i += 8;
        }
        add
    }
}

/// Dispatch one leaf run through the multiplicity-weighted kernel for
/// `level` — the only branch is on the (launch-constant) level.  Short
/// runs at the AVX2 level take the 128-bit kernel: with four or fewer
/// candidates the 256-bit shape only wastes load bandwidth.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn count_run(
    level: SimdLevel,
    px: &[f32],
    py: &[f32],
    pz: &[f32],
    mult: &[u32],
    first: usize,
    count: usize,
    qx: f32,
    qy: f32,
    qz: f32,
    eps_sq: f32,
) -> u64 {
    match level {
        SimdLevel::Scalar => count_run_scalar(px, py, pz, mult, first, count, qx, qy, qz, eps_sq),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is baseline on x86_64; the lanes carry LANE_PADDING.
        SimdLevel::Sse2 => unsafe {
            count_run_sse2(px, py, pz, mult, first, count, qx, qy, qz, eps_sq)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only ever resolved after runtime detection (and
        // the short-run path only needs baseline SSE2).
        SimdLevel::Avx2 => unsafe {
            if count <= 4 {
                count_run_sse2(px, py, pz, mult, first, count, qx, qy, qz, eps_sq)
            } else {
                count_run_avx2(px, py, pz, mult, first, count, qx, qy, qz, eps_sq)
            }
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => count_run_scalar(px, py, pz, mult, first, count, qx, qy, qz, eps_sq),
    }
}

/// [`count_run`] for uniform-multiplicity lanes (no compaction): the hit
/// mask popcount is the answer, so the multiplicity lane is never read.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn count_run_unit(
    level: SimdLevel,
    px: &[f32],
    py: &[f32],
    pz: &[f32],
    first: usize,
    count: usize,
    qx: f32,
    qy: f32,
    qz: f32,
    eps_sq: f32,
) -> u64 {
    match level {
        SimdLevel::Scalar => count_run_scalar_unit(px, py, pz, first, count, qx, qy, qz, eps_sq),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is baseline on x86_64; the lanes carry LANE_PADDING.
        SimdLevel::Sse2 => unsafe {
            count_run_sse2_unit(px, py, pz, first, count, qx, qy, qz, eps_sq)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only ever resolved after runtime detection (and
        // the short-run path only needs baseline SSE2).
        SimdLevel::Avx2 => unsafe {
            if count <= 4 {
                count_run_sse2_unit(px, py, pz, first, count, qx, qy, qz, eps_sq)
            } else {
                count_run_avx2_unit(px, py, pz, first, count, qx, qy, qz, eps_sq)
            }
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => count_run_scalar_unit(px, py, pz, first, count, qx, qy, qz, eps_sq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<u32>) {
        let mut px = Vec::new();
        let mut py = Vec::new();
        let mut pz = Vec::new();
        let mut mult = Vec::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) & 0xFFFF) as f32 / 6553.5
        };
        for i in 0..n {
            px.push(next());
            py.push(next());
            pz.push(next() * 0.1);
            mult.push(1 + (i % 3) as u32);
        }
        for _ in 0..LANE_PADDING {
            px.push(f32::INFINITY);
            py.push(f32::INFINITY);
            pz.push(f32::INFINITY);
            mult.push(0);
        }
        (px, py, pz, mult)
    }

    #[test]
    fn policies_resolve_to_available_levels() {
        assert_eq!(SimdPolicy::Scalar.resolve(), SimdLevel::Scalar);
        let auto = SimdPolicy::Auto.resolve();
        assert_eq!(auto, detect_simd());
        assert!(SimdPolicy::Sse2.resolve() <= SimdLevel::Sse2);
        assert!(SimdPolicy::Avx2.resolve() <= SimdLevel::Avx2);
        for p in [
            SimdPolicy::Auto,
            SimdPolicy::Scalar,
            SimdPolicy::Sse2,
            SimdPolicy::Avx2,
        ] {
            assert!(!p.name().is_empty());
            assert!(!p.resolve().name().is_empty());
        }
    }

    #[test]
    fn vector_count_kernels_match_scalar_for_every_run_shape() {
        let (px, py, pz, mult) = lanes(97);
        let queries = [
            (0.5f32, 0.5f32, 0.05f32),
            (9.9, 0.0, 0.0),
            (5.0, 5.0, 0.1),
            (px[13], py[13], pz[13]), // exact-distance-zero hit
        ];
        for eps_sq in [0.01f32, 1.0, 25.0, 1e6] {
            for &(qx, qy, qz) in &queries {
                for first in [0usize, 1, 3, 40, 90] {
                    for count in [0usize, 1, 2, 3, 4, 5, 7, 8, 9] {
                        if first + count > 97 {
                            continue;
                        }
                        let want = count_run_scalar(
                            &px, &py, &pz, &mult, first, count, qx, qy, qz, eps_sq,
                        );
                        let unit_want =
                            count_run_scalar_unit(&px, &py, &pz, first, count, qx, qy, qz, eps_sq);
                        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
                            if level > detect_simd() {
                                continue;
                            }
                            let got = count_run(
                                level, &px, &py, &pz, &mult, first, count, qx, qy, qz, eps_sq,
                            );
                            assert_eq!(
                                got, want,
                                "{level:?} first={first} count={count} q=({qx},{qy},{qz})"
                            );
                            // The popcount (uniform-multiplicity) kernels
                            // agree with the scalar unit reference on the
                            // same runs.
                            let unit = count_run_unit(
                                level, &px, &py, &pz, first, count, qx, qy, qz, eps_sq,
                            );
                            assert_eq!(unit, unit_want, "{level:?} unit kernel");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_candidates_count_identically_across_levels() {
        // An exact-ε candidate (d² == ε² in f32) must be inside on every
        // level — the closed-ball rule evaluated with the same predicate.
        let eps = 0.75f32;
        let px = {
            let mut v = vec![eps, 0.0, f32::NAN];
            v.extend([f32::INFINITY; LANE_PADDING]);
            v
        };
        let py = vec![0.0; 3 + LANE_PADDING];
        let pz = vec![0.0; 3 + LANE_PADDING];
        let mult = vec![1u32; 3 + LANE_PADDING];
        let eps_sq = eps * eps;
        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            if level > detect_simd() {
                continue;
            }
            // Exact-ε neighbour and the origin hit; the NaN candidate never
            // does (comparisons are false on NaN on every level).
            let got = count_run(level, &px, &py, &pz, &mult, 0, 3, 0.0, 0.0, 0.0, eps_sq);
            assert_eq!(got, 2, "{level:?}");
        }
    }
}
