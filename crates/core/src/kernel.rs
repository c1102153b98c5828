//! Runtime-dispatched distance kernels.
//!
//! Every solver in this workspace bottoms out in the same primitive: *count
//! the lanes in which two fixed-width vectors differ*. The scalar loop in
//! [`crate::metric::hamming`] answers it one attribute at a time; the SWAR
//! kernels answer it eight byte-lanes per `u64` word of the column-major
//! [`crate::metric::PackedColumns`]; this module adds explicit SIMD paths —
//! AVX2 on `x86_64` for raw rows and the packed one-to-many sweep (32
//! byte-lanes per instruction), NEON on `aarch64` for raw rows — selected
//! **once per process** by runtime feature detection.
//!
//! ## Dispatch
//!
//! [`kernel()`] resolves the active [`Kernel`] on first use and caches it:
//!
//! 1. The `KANON_FORCE_KERNEL` environment variable, when set to `scalar`,
//!    `swar`, or `simd`, wins (a forced `simd` silently degrades to
//!    [`Kernel::Swar`] on hardware without AVX2/NEON — the override is a
//!    *ceiling*, never a way to execute unsupported instructions). Anything
//!    else is ignored.
//! 2. Otherwise [`Kernel::Simd`] when the CPU reports AVX2 (x86_64) or NEON
//!    (aarch64), else [`Kernel::Swar`].
//!
//! [`Kernel::Scalar`] is never auto-selected: it exists so the differential
//! suites (and a whole-suite CI run under `KANON_FORCE_KERNEL=scalar`) can
//! pin the optimized kernels to the textbook loop. Packed-layout *builders*
//! consult [`packing_enabled`] and skip packing entirely under forced
//! scalar, so the fallback genuinely exercises the per-[`Value`] scan.
//!
//! All kernels compute **exactly** the same distances — equality across
//! every `(kernel, alphabet, row-width)` combination is pinned by the
//! `kernel_equiv` differential proptest suite. Callers that cache a packed
//! layout resolve the kernel at build time (one branch per *build*, none
//! per probe);
//! [`PackedColumns::try_build_with`](crate::metric::PackedColumns::try_build_with)
//! lets tests exercise every kernel on one machine regardless of the
//! environment.
//!
//! [`Value`]: crate::dataset::Value

// The one sanctioned unsafe island in kanon-core (see lib.rs): every
// `unsafe` block here is a `target_feature` intrinsic call guarded by
// runtime detection, and every kernel is differentially pinned to the
// scalar reference.
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// A distance-kernel implementation tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// One attribute comparison per step; works on raw `u32` rows with no
    /// packed layout. The reference implementation.
    Scalar,
    /// SWAR over bit-packed `u64` words: 8 byte-lanes (or 4 `u16` lanes)
    /// per word op. Portable to any 64-bit target.
    Swar,
    /// Explicit SIMD: AVX2 (32 byte-lanes per op on packed words, 8 `u32`
    /// lanes on raw rows) or NEON (4 `u32` lanes per op on raw rows),
    /// behind one-time runtime detection.
    Simd,
}

impl Kernel {
    /// Short stable name (used in bench JSON and CI matrices).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Swar => "swar",
            Kernel::Simd => "simd",
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether this CPU supports the SIMD tier ([`Kernel::Simd`]).
#[must_use]
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("neon")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// The CPU feature the SIMD tier would use, for bench/report provenance:
/// `"avx2"`, `"neon"`, or `"none"`.
#[must_use]
pub fn cpu_features() -> &'static str {
    if !simd_available() {
        return "none";
    }
    #[cfg(target_arch = "x86_64")]
    {
        "avx2"
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "none"
    }
}

/// Resolves a `KANON_FORCE_KERNEL` value against the hardware: the forced
/// tier is a ceiling, so `simd` without AVX2/NEON degrades to SWAR.
fn resolve(force: Option<&str>) -> Kernel {
    match force {
        Some("scalar") => Kernel::Scalar,
        Some("swar") => Kernel::Swar,
        Some("simd") | None => {
            if simd_available() {
                Kernel::Simd
            } else {
                Kernel::Swar
            }
        }
        Some(_) => resolve(None),
    }
}

/// The process-wide active kernel, resolved once (environment override,
/// then feature detection) and cached.
#[must_use]
pub fn kernel() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| resolve(std::env::var("KANON_FORCE_KERNEL").ok().as_deref()))
}

/// Whether the packed layout ([`crate::metric::PackedColumns`]) should be
/// *built* at all. Under
/// `KANON_FORCE_KERNEL=scalar` the answer is no: every distance then flows
/// through the per-attribute scalar scan, which is what a forced-fallback
/// differential run wants to exercise.
#[must_use]
pub fn packing_enabled() -> bool {
    kernel() != Kernel::Scalar
}

// ---------------------------------------------------------------------------
// Raw u32-row kernels (no packing): used by `metric::hamming` and therefore
// by every diameter/anon-cost probe on unpacked rows.
// ---------------------------------------------------------------------------

/// Reference scalar Hamming distance over raw `u32` lanes.
#[inline]
#[must_use]
pub(crate) fn hamming_u32_scalar(u: &[u32], v: &[u32]) -> usize {
    u.iter().zip(v).filter(|(a, b)| a != b).count()
}

/// Dispatched Hamming distance over raw `u32` lanes. Exact for every
/// kernel; `kernel` is resolved by the caller (usually [`kernel()`]).
#[inline]
#[must_use]
pub(crate) fn hamming_u32(u: &[u32], v: &[u32], kernel: Kernel) -> usize {
    debug_assert_eq!(u.len(), v.len());
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Simd && u.len() >= 8 {
        // SAFETY: `Kernel::Simd` is only resolved when AVX2 is detected.
        return unsafe { hamming_u32_avx2(u, v) };
    }
    #[cfg(target_arch = "aarch64")]
    if kernel == Kernel::Simd && u.len() >= 4 {
        // SAFETY: `Kernel::Simd` is only resolved when NEON is detected.
        return unsafe { hamming_u32_neon(u, v) };
    }
    let _ = kernel;
    hamming_u32_scalar(u, v)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hamming_u32_avx2(u: &[u32], v: &[u32]) -> usize {
    use std::arch::x86_64::{
        _mm256_castsi256_ps, _mm256_cmpeq_epi32, _mm256_loadu_si256, _mm256_movemask_ps,
    };
    let n = u.len();
    let mut diff = 0usize;
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: bounds guarded by the loop condition; unaligned loads.
        let a = unsafe { _mm256_loadu_si256(u.as_ptr().add(i).cast()) };
        let b = unsafe { _mm256_loadu_si256(v.as_ptr().add(i).cast()) };
        let eq = _mm256_cmpeq_epi32(a, b);
        // One mask bit per 32-bit lane; set = equal.
        let mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32;
        diff += 8 - mask.count_ones() as usize;
        i += 8;
    }
    diff + hamming_u32_scalar(&u[i..], &v[i..])
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn hamming_u32_neon(u: &[u32], v: &[u32]) -> usize {
    use std::arch::aarch64::{vaddvq_u32, vandq_u32, vceqq_u32, vdupq_n_u32, vld1q_u32};
    let n = u.len();
    let mut diff = 0usize;
    let mut i = 0usize;
    let ones = vdupq_n_u32(1);
    while i + 4 <= n {
        // SAFETY: bounds guarded by the loop condition.
        let a = unsafe { vld1q_u32(u.as_ptr().add(i)) };
        let b = unsafe { vld1q_u32(v.as_ptr().add(i)) };
        // Equal lanes become all-ones; mask to 1 and horizontally add.
        let eq = vandq_u32(vceqq_u32(a, b), ones);
        diff += 4 - vaddvq_u32(eq) as usize;
        i += 4;
    }
    diff + hamming_u32_scalar(&u[i..], &v[i..])
}

// ---------------------------------------------------------------------------
// Packed-word kernels: operate on the bit-packed u64 words of
// `metric::PackedColumns`. `B8` packs 8 byte lanes per word, `B16` packs 4
// sixteen-bit lanes per word; unused tail lanes are zero in every row and
// therefore never count as differing.
// ---------------------------------------------------------------------------

/// Per-byte SWAR nonzero test: one bit in the `0x80` position of every
/// nonzero byte lane of `x`, so `count_ones` counts differing attributes.
/// The inner `(x | HI) - LO` never borrows across lanes because every byte
/// of `x | HI` is at least `0x80`.
#[inline]
#[must_use]
pub(crate) fn nonzero_u8_lanes(x: u64) -> u32 {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    ((x | ((x | HI) - LO)) & HI).count_ones()
}

/// 16-bit-lane sibling of [`nonzero_u8_lanes`].
#[inline]
#[must_use]
pub(crate) fn nonzero_u16_lanes(x: u64) -> u32 {
    const LO: u64 = 0x0001_0001_0001_0001;
    const HI: u64 = 0x8000_8000_8000_8000;
    ((x | ((x | HI) - LO)) & HI).count_ones()
}

/// One-to-many accumulate for column-major packed storage: for every `j`,
/// `out[j] += diff_byte_lanes(x, col[j])`. `col` and `out` have equal
/// length. This is the streaming inner loop of
/// [`crate::metric::PackedColumns::distances_span`].
#[inline]
pub(crate) fn accum_diff_b8(x: u64, col: &[u64], out: &mut [u32], kernel: Kernel) {
    debug_assert_eq!(col.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Simd && col.len() >= 4 {
        // SAFETY: `Kernel::Simd` is only resolved when AVX2 is detected.
        unsafe { accum_diff_b8_avx2(x, col, out) };
        return;
    }
    let _ = kernel;
    for (o, &w) in out.iter_mut().zip(col) {
        *o += nonzero_u8_lanes(x ^ w);
    }
}

/// 16-bit-lane sibling of [`accum_diff_b8`].
#[inline]
pub(crate) fn accum_diff_b16(x: u64, col: &[u64], out: &mut [u32], kernel: Kernel) {
    debug_assert_eq!(col.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Simd && col.len() >= 4 {
        // SAFETY: `Kernel::Simd` is only resolved when AVX2 is detected.
        unsafe { accum_diff_b16_avx2(x, col, out) };
        return;
    }
    let _ = kernel;
    for (o, &w) in out.iter_mut().zip(col) {
        *o += nonzero_u16_lanes(x ^ w);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accum_diff_b8_avx2(x: u64, col: &[u64], out: &mut [u32]) {
    use std::arch::x86_64::{
        _mm256_cmpeq_epi8, _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_set1_epi64x,
        _mm256_setzero_si256, _mm256_xor_si256,
    };
    let n = col.len();
    let bx = _mm256_set1_epi64x(x as i64);
    let mut j = 0usize;
    while j + 4 <= n {
        // SAFETY: bounds guarded by the loop condition; unaligned loads.
        let w = unsafe { _mm256_loadu_si256(col.as_ptr().add(j).cast()) };
        let eq = _mm256_cmpeq_epi8(_mm256_xor_si256(bx, w), _mm256_setzero_si256());
        // 32 mask bits, 8 per packed row; a set bit is an *equal* lane.
        let mask = _mm256_movemask_epi8(eq) as u32;
        out[j] += 8 - (mask & 0xFF).count_ones();
        out[j + 1] += 8 - ((mask >> 8) & 0xFF).count_ones();
        out[j + 2] += 8 - ((mask >> 16) & 0xFF).count_ones();
        out[j + 3] += 8 - (mask >> 24).count_ones();
        j += 4;
    }
    while j < n {
        out[j] += nonzero_u8_lanes(x ^ col[j]);
        j += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accum_diff_b16_avx2(x: u64, col: &[u64], out: &mut [u32]) {
    use std::arch::x86_64::{
        _mm256_cmpeq_epi16, _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_set1_epi64x,
        _mm256_setzero_si256, _mm256_xor_si256,
    };
    let n = col.len();
    let bx = _mm256_set1_epi64x(x as i64);
    let mut j = 0usize;
    while j + 4 <= n {
        // SAFETY: bounds guarded by the loop condition; unaligned loads.
        let w = unsafe { _mm256_loadu_si256(col.as_ptr().add(j).cast()) };
        let eq = _mm256_cmpeq_epi16(_mm256_xor_si256(bx, w), _mm256_setzero_si256());
        // Two mask bits per 16-bit lane, 8 bits (4 lanes) per packed row.
        let mask = _mm256_movemask_epi8(eq) as u32;
        out[j] += 4 - (mask & 0xFF).count_ones() / 2;
        out[j + 1] += 4 - ((mask >> 8) & 0xFF).count_ones() / 2;
        out[j + 2] += 4 - ((mask >> 16) & 0xFF).count_ones() / 2;
        out[j + 3] += 4 - (mask >> 24).count_ones() / 2;
        j += 4;
    }
    while j < n {
        out[j] += nonzero_u16_lanes(x ^ col[j]);
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_honors_force_and_hardware_ceiling() {
        assert_eq!(resolve(Some("scalar")), Kernel::Scalar);
        assert_eq!(resolve(Some("swar")), Kernel::Swar);
        let auto = resolve(None);
        assert_eq!(resolve(Some("simd")), auto); // ceiling: simd or swar
        assert_eq!(resolve(Some("warp-drive")), auto); // unknown → auto
        if simd_available() {
            assert_eq!(auto, Kernel::Simd);
        } else {
            assert_eq!(auto, Kernel::Swar);
        }
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Kernel::Scalar.to_string(), "scalar");
        assert_eq!(Kernel::Swar.name(), "swar");
        assert_eq!(Kernel::Simd.name(), "simd");
        assert!(["avx2", "neon", "none"].contains(&cpu_features()));
    }

    #[test]
    fn swar_lane_tests_cover_boundary_values() {
        for lane in 0..8 {
            for v in [1u64, 0x7F, 0x80, 0xFF] {
                assert_eq!(nonzero_u8_lanes(v << (8 * lane)), 1, "v={v:#x} lane={lane}");
            }
        }
        assert_eq!(nonzero_u8_lanes(0), 0);
        assert_eq!(nonzero_u8_lanes(u64::MAX), 8);
        for lane in 0..4 {
            for v in [1u64, 0x7FFF, 0x8000, 0xFFFF] {
                assert_eq!(
                    nonzero_u16_lanes(v << (16 * lane)),
                    1,
                    "v={v:#x} lane={lane}"
                );
            }
        }
        assert_eq!(nonzero_u16_lanes(0), 0);
        assert_eq!(nonzero_u16_lanes(u64::MAX), 4);
    }

    /// Every kernel tier must agree on raw-u32 rows and the one-to-many
    /// accumulate, across lengths that exercise both the vector body and
    /// the scalar tail.
    #[test]
    fn tiers_agree_on_random_words() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD15);
        let tiers: &[Kernel] = &[Kernel::Scalar, Kernel::Swar, Kernel::Simd];
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33] {
            let a: Vec<u64> = (0..len)
                .map(|_| rng.gen::<u64>() & rng.gen::<u64>())
                .collect();
            for &k in tiers {
                if k == Kernel::Simd && !simd_available() {
                    continue;
                }
                let x = rng.gen::<u64>();
                let mut out = vec![0u32; len];
                accum_diff_b8(x, &a, &mut out, k);
                let want: Vec<u32> = a.iter().map(|&w| nonzero_u8_lanes(x ^ w)).collect();
                assert_eq!(out, want, "accum b8 {k} len={len}");
                let mut out = vec![0u32; len];
                accum_diff_b16(x, &a, &mut out, k);
                let want: Vec<u32> = a.iter().map(|&w| nonzero_u16_lanes(x ^ w)).collect();
                assert_eq!(out, want, "accum b16 {k} len={len}");
            }
            let u: Vec<u32> = (0..len * 3 + 1).map(|_| rng.gen_range(0..9)).collect();
            let v: Vec<u32> = u
                .iter()
                .map(|&x| {
                    if rng.gen_bool(0.5) {
                        x
                    } else {
                        rng.gen_range(0..9)
                    }
                })
                .collect();
            let want = hamming_u32_scalar(&u, &v);
            for &k in tiers {
                if k == Kernel::Simd && !simd_available() {
                    continue;
                }
                assert_eq!(hamming_u32(&u, &v, k), want, "u32 {k} len={}", u.len());
            }
        }
    }
}
