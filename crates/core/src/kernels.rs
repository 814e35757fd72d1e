//! Vectorized map-op kernels with runtime CPU dispatch.
//!
//! The paper's argument (§IV-E, Figures 3/6) is that the whole-map
//! operations — classify, compare, and the merged classify+compare —
//! dominate fuzzer-side cost as maps grow. The word-wise loops in
//! [`crate::classify`] and [`crate::diff`] top out at 8 bytes per
//! iteration; this module adds AVX2 (32 B) kernels for the same three
//! operations and selects an implementation **once per process**, at
//! first use, into a function-pointer table. The hot path pays zero
//! per-call feature branching: callers grab [`active()`](active) (one
//! `OnceLock` load) and jump through the table.
//!
//! The CPU alone picks the table: AVX2 when
//! [`std::arch::is_x86_feature_detected!`] reports it, else the portable
//! scalar code. Nothing overrides the choice — tests and benchmarks that
//! need another tier take its table from [`table_for`] directly.
//!
//! The AVX2 compare and fused kernels test each 128-byte group of the
//! trace for all-zero before they touch the virgin map, and skip the
//! group if it is: a zero trace byte classifies to zero and has no hits,
//! so the outputs stay bit-identical, while a sparse exec on a large map
//! reads its virgin map only where it has coverage — as AFL's
//! `has_new_bits` reads virgin only under a non-zero trace word. The
//! group is four blocks wide so that the test still predicts well at the
//! ~50% block occupancy of a busy map (DESIGN §4a).
//!
//! The scalar implementations in [`crate::classify`] / [`crate::diff`]
//! remain the **semantic oracle**: every vector kernel must be
//! byte-identical to them on arbitrary inputs (enforced by the
//! `kernel_equivalence` property-test suite) and they serve as the
//! portable fallback on non-x86-64 targets and for region tails shorter
//! than one vector block.
//!
//! # Examples
//!
//! ```rust
//! use bigmap_core::kernels;
//!
//! let table = kernels::active();
//! let mut counts = vec![0u8; 4096];
//! counts[17] = 5;
//! let mut virgin = vec![0xFFu8; 4096];
//! let verdict = table.classify_and_compare(&mut counts, &mut virgin);
//! assert_eq!(verdict, bigmap_core::NewCoverage::NewEdge);
//! assert_eq!(counts[17], 8); // 5 hits → bucket [4-7]
//! ```

use std::fmt;
use std::sync::OnceLock;

use crate::classify::classify_slice;
use crate::diff::{classify_and_compare_region, compare_region};
use crate::traits::NewCoverage;

/// The kernel implementations this build knows about.
///
/// `Avx2` exists on every build (so telemetry can name it portably) but
/// [`table_for`] only returns its table when the *running* CPU supports
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Portable word-wise Rust (`crate::classify` / `crate::diff`) — the
    /// semantic oracle and universal fallback.
    Scalar,
    /// 256-bit x86-64 kernels: in-register nibble-LUT classify plus
    /// `vptest`-based compare.
    Avx2,
}

impl KernelKind {
    /// Every kind, narrowest to widest.
    pub const ALL: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Avx2];

    /// Stable lower-case label (`"scalar"`, `"avx2"`) used by benchmark
    /// reports and telemetry keys.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A resolved set of map-op kernels: one function pointer per operation,
/// selected once, no per-call branching.
///
/// The pointed-to functions are safe `fn`s; the vector variants contain
/// `unsafe` intrinsic blocks whose safety argument is that a table for a
/// vector kind is only ever constructed after
/// `is_x86_feature_detected!` confirmed the feature (see [`table_for`]).
#[derive(Debug)]
pub struct KernelTable {
    /// Which implementation this table dispatches to.
    pub kind: KernelKind,
    classify_fn: fn(&mut [u8]),
    compare_fn: fn(&[u8], &mut [u8]) -> NewCoverage,
    fused_fn: fn(&mut [u8], &mut [u8]) -> NewCoverage,
}

impl KernelTable {
    /// Classifies hit counts into buckets in place
    /// (kernel-dispatched [`crate::classify::classify_slice`]).
    #[inline]
    pub fn classify(&self, counts: &mut [u8]) {
        (self.classify_fn)(counts)
    }

    /// Diffs an already-classified region against `virgin`
    /// (kernel-dispatched [`crate::diff::compare_region`]).
    ///
    /// # Panics
    ///
    /// Panics if the regions have different lengths.
    #[inline]
    pub fn compare(&self, cur: &[u8], virgin: &mut [u8]) -> NewCoverage {
        (self.compare_fn)(cur, virgin)
    }

    /// Merged classify + compare in one pass
    /// (kernel-dispatched [`crate::diff::classify_and_compare_region`]).
    ///
    /// # Panics
    ///
    /// Panics if the regions have different lengths.
    #[inline]
    pub fn classify_and_compare(&self, cur: &mut [u8], virgin: &mut [u8]) -> NewCoverage {
        (self.fused_fn)(cur, virgin)
    }
}

static SCALAR_TABLE: KernelTable = KernelTable {
    kind: KernelKind::Scalar,
    classify_fn: classify_slice,
    compare_fn: compare_region,
    fused_fn: classify_and_compare_region,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    kind: KernelKind::Avx2,
    classify_fn: x86::classify_avx2,
    compare_fn: x86::compare_avx2,
    fused_fn: x86::fused_avx2,
};

/// The kernel table for `kind`, if the running CPU supports it.
///
/// [`KernelKind::Scalar`] is always available. The vector kind requires an
/// x86-64 build *and* a positive runtime feature probe — this function is
/// the only constructor of vector tables, which is the safety argument for
/// the `unsafe` blocks inside them.
pub fn table_for(kind: KernelKind) -> Option<&'static KernelTable> {
    match kind {
        KernelKind::Scalar => Some(&SCALAR_TABLE),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => std::arch::is_x86_feature_detected!("avx2").then_some(&AVX2_TABLE),
        #[cfg(not(target_arch = "x86_64"))]
        KernelKind::Avx2 => None,
    }
}

/// Every kernel the running CPU can execute, narrowest to widest.
pub fn available() -> Vec<KernelKind> {
    KernelKind::ALL
        .into_iter()
        .filter(|&k| table_for(k).is_some())
        .collect()
}

/// The process-wide active kernel table: the widest kernel the CPU
/// supports (AVX2, else scalar).
///
/// Resolved once, at first call, by runtime feature detection; every
/// later call is a single atomic load. Both map schemes route their
/// classify/compare/fused operations through this table.
pub fn active() -> &'static KernelTable {
    static ACTIVE: OnceLock<&'static KernelTable> = OnceLock::new();
    ACTIVE.get_or_init(|| table_for(KernelKind::Avx2).unwrap_or(&SCALAR_TABLE))
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! x86-64 vector kernels.
    //!
    //! Safety argument, shared by every function here: the `unsafe` blocks
    //! are (a) intrinsic calls gated by `#[target_feature]`, reached only
    //! through the tables `table_for` hands out after a positive
    //! `is_x86_feature_detected!` probe, and (b) raw slice accesses whose
    //! bounds are established by the surrounding block arithmetic
    //! (`blocks * WIDTH <= len`). All loads/stores use the unaligned
    //! variants, so the kernels are correct for any region offset — the
    //! alignment-phase concerns of the scalar path do not apply.

    use super::*;
    use std::arch::x86_64::*;

    /// Verdict accumulator mirroring `diff.rs`: once `NewEdge` is found the
    /// per-block edge test is skipped (virgin clearing still proceeds).
    #[inline]
    fn raise(verdict: &mut NewCoverage, v: NewCoverage) {
        if v > *verdict {
            *verdict = v;
        }
    }

    // ---------------------------------------------------------------- AVX2

    /// The bucket byte for counts 0–15 (used when the high nibble is 0),
    /// i.e. `bucket_of(i)` for `i in 0..16`.
    const LUT_LO: [i8; 16] = [0, 1, 2, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16];
    /// The bucket byte determined by a non-zero high nibble: counts 16–31
    /// bucket to 32, 32–127 to 64, 128–255 to 128. Index 0 is unused (the
    /// low-nibble LUT is selected instead).
    const LUT_HI: [i8; 16] = [
        0,
        32,
        64,
        64,
        64,
        64,
        64,
        64,
        128u8 as i8,
        128u8 as i8,
        128u8 as i8,
        128u8 as i8,
        128u8 as i8,
        128u8 as i8,
        128u8 as i8,
        128u8 as i8,
    ];

    /// Classifies 32 bytes of hit counts in-register: two `vpshufb` nibble
    /// lookups blended on "high nibble == 0". Exactly `bucket_of` per byte.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn classify_bytes_avx2(v: __m256i) -> __m256i {
        let mask0f = _mm256_set1_epi8(0x0F);
        // SAFETY: both LUTs are 16-byte arrays read in full, unaligned.
        let (lut_lo, lut_hi) = unsafe {
            (
                _mm256_broadcastsi128_si256(_mm_loadu_si128(LUT_LO.as_ptr().cast())),
                _mm256_broadcastsi128_si256(_mm_loadu_si128(LUT_HI.as_ptr().cast())),
            )
        };
        let lo = _mm256_and_si256(v, mask0f);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), mask0f);
        let lo_b = _mm256_shuffle_epi8(lut_lo, lo);
        let hi_b = _mm256_shuffle_epi8(lut_hi, hi);
        let hi_is_zero = _mm256_cmpeq_epi8(hi, _mm256_setzero_si256());
        _mm256_blendv_epi8(hi_b, lo_b, hi_is_zero)
    }

    /// Per-32-bit-lane "store these lanes" mask for a masked write-back:
    /// sign bit set exactly in the lanes where `c` differs from `v`.
    ///
    /// Classification fixes zero blocks and already-bucketed bytes in
    /// place, so masking the store on "changed" both keeps clean cache
    /// lines clean *and* removes the data-dependent skip branch — on real
    /// coverage maps block-nonzero occupancy sits near 50% at typical
    /// densities, the worst case for the branch predictor, and a
    /// mispredicted skip costs more than the classify arithmetic it saves.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn changed_lanes(c: __m256i, v: __m256i) -> __m256i {
        let changed = _mm256_xor_si256(c, v);
        let lane_unchanged = _mm256_cmpeq_epi32(changed, _mm256_setzero_si256());
        // NOT(lane_unchanged): andnot(a, ones) = !a.
        _mm256_andnot_si256(lane_unchanged, _mm256_set1_epi8(-1))
    }

    /// AVX2 classify: 32-byte blocks, branchless in-register bucket
    /// mapping, masked write-back of only the lanes classification
    /// changed (no branches in the loop at all).
    pub(super) fn classify_avx2(counts: &mut [u8]) {
        // SAFETY: see module-level safety argument.
        unsafe { classify_avx2_body(counts) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn classify_avx2_body(counts: &mut [u8]) {
        let len = counts.len();
        let blocks = len / 32;
        let ptr = counts.as_mut_ptr();
        // SAFETY: see module-level safety argument.
        unsafe {
            for i in 0..blocks {
                let p = ptr.add(i * 32);
                let v = _mm256_loadu_si256(p.cast::<__m256i>());
                let c = classify_bytes_avx2(v);
                // Zero blocks classify to themselves: mask is empty, no
                // store, no branch.
                _mm256_maskstore_epi32(p.cast::<i32>(), changed_lanes(c, v), c);
            }
        }
        classify_slice(&mut counts[blocks * 32..]);
    }

    /// Blocks per all-zero test in the compare and fused kernels: 128
    /// trace bytes, OR-reduced and tested with one `vptest` before the
    /// virgin map is read.
    ///
    /// A zero trace block classifies to zero, masks an empty store and
    /// has no hits, so skipping a zero group changes no output. It spares
    /// the group's virgin load and classify work, which keeps a sparse
    /// exec on a large flat map from pulling the whole virgin map through
    /// the cache (AFL's `has_new_bits` likewise reads virgin only under a
    /// non-zero trace word). The test covers four blocks rather than one
    /// because a busy map's ~2% uniform density leaves about half of all
    /// blocks zero, where a per-block branch mispredicts on every other
    /// block (2.4x slower at 1–8 MiB); four blocks are all zero only about
    /// 7% of the time there, so the group branch predicts well at both
    /// densities (DESIGN §4a).
    const GROUP_BLOCKS: usize = 4;

    /// Bytes per all-zero test.
    const GROUP: usize = GROUP_BLOCKS * 32;

    /// Loads the `N` consecutive blocks at `p`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_blocks<const N: usize>(p: *const u8) -> [__m256i; N] {
        let mut out = [_mm256_setzero_si256(); N];
        for (k, v) in out.iter_mut().enumerate() {
            // SAFETY: the caller guarantees `32 * N` readable bytes at `p`.
            *v = unsafe { _mm256_loadu_si256(p.add(32 * k).cast()) };
        }
        out
    }

    /// Whether every byte of `vs` is zero: one `vptest` of their OR.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn all_zero<const N: usize>(vs: &[__m256i; N]) -> bool {
        let mut any = _mm256_setzero_si256();
        for &v in vs {
            any = _mm256_or_si256(any, v);
        }
        _mm256_testz_si256(any, any) != 0
    }

    /// Classifies `N` raw blocks loaded from `cp` in-register and writes
    /// back only the lanes classification changed (as `classify_avx2`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn classify_blocks<const N: usize>(raw: &[__m256i; N], cp: *mut u8) -> [__m256i; N] {
        let mut out = [_mm256_setzero_si256(); N];
        for (k, (c, &v)) in out.iter_mut().zip(raw).enumerate() {
            // SAFETY: the caller guarantees `32 * N` writable bytes at `cp`.
            unsafe {
                *c = classify_bytes_avx2(v);
                _mm256_maskstore_epi32(cp.add(32 * k).cast::<i32>(), changed_lanes(*c, v), *c);
            }
        }
        out
    }

    /// Diffs `N` classified blocks against the virgin blocks `v`, loaded
    /// from `vp`: one `vptest` over all their hits (`cur & virgin`) skips no-news blocks
    /// without a store; only when it finds news does `vpcmpeqb` against
    /// 0xFF look for brand-new edges and `vpandn` clear the covered virgin
    /// bits. In steady state virgin already absorbed the covered bits, so
    /// the hits are almost always zero and the branch predicts
    /// near-perfectly. A group takes one hits test rather than one per
    /// block: with a branch per block, the zero-group test made the
    /// compare kernel about 25% slower on cache-resident 2% regions.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn compare_blocks<const N: usize>(
        c: &[__m256i; N],
        v: &[__m256i; N],
        vp: *mut u8,
        verdict: &mut NewCoverage,
    ) {
        // SAFETY: the caller guarantees `32 * N` writable bytes at `vp`.
        unsafe {
            let mut hits = [_mm256_setzero_si256(); N];
            for k in 0..N {
                hits[k] = _mm256_and_si256(c[k], v[k]);
            }
            if all_zero(&hits) {
                return;
            }
            if *verdict < NewCoverage::NewEdge {
                let ff = _mm256_set1_epi8(-1);
                let mut edge = [_mm256_setzero_si256(); N];
                for k in 0..N {
                    edge[k] = _mm256_and_si256(hits[k], _mm256_cmpeq_epi8(v[k], ff));
                }
                if all_zero(&edge) {
                    raise(verdict, NewCoverage::NewBucket);
                } else {
                    raise(verdict, NewCoverage::NewEdge);
                }
            }
            for k in 0..N {
                _mm256_storeu_si256(vp.add(32 * k).cast(), _mm256_andnot_si256(c[k], v[k]));
            }
        }
    }

    /// AVX2 compare: 128-byte groups of `cur` that are all zero are
    /// skipped before the virgin map is read; the others, and the last
    /// blocks short of a group, go through `compare_blocks`.
    pub(super) fn compare_avx2(cur: &[u8], virgin: &mut [u8]) -> NewCoverage {
        // SAFETY: see module-level safety argument.
        unsafe { compare_avx2_body(cur, virgin) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn compare_avx2_body(cur: &[u8], virgin: &mut [u8]) -> NewCoverage {
        assert_eq!(cur.len(), virgin.len(), "region length mismatch");
        let blocks = cur.len() / 32;
        let groups = blocks / GROUP_BLOCKS;
        let mut verdict = NewCoverage::None;
        let cur_ptr = cur.as_ptr();
        let vir_ptr = virgin.as_mut_ptr();
        // SAFETY: see module-level safety argument.
        unsafe {
            for g in 0..groups {
                let base = g * GROUP;
                let c = load_blocks::<GROUP_BLOCKS>(cur_ptr.add(base));
                if !all_zero(&c) {
                    let vp = vir_ptr.add(base);
                    compare_blocks(&c, &load_blocks(vp), vp, &mut verdict);
                }
            }
            for i in groups * GROUP_BLOCKS..blocks {
                let c = load_blocks::<1>(cur_ptr.add(i * 32));
                let vp = vir_ptr.add(i * 32);
                compare_blocks(&c, &load_blocks(vp), vp, &mut verdict);
            }
        }
        let tail = blocks * 32;
        verdict.max(compare_region(&cur[tail..], &mut virgin[tail..]))
    }

    /// AVX2 fused classify+compare: 128-byte groups of `cur` that are all
    /// zero are skipped before the virgin map is read; the others, and the
    /// last blocks short of a group, are classified in-register (masked
    /// write-back) and diffed against virgin while still in registers, so
    /// each cache line of the region is touched once. A group's virgin
    /// blocks load before its masked stores: loaded after them, the fused
    /// pass ran 10–16% slower on 8–16 MiB regions at 2% density.
    pub(super) fn fused_avx2(cur: &mut [u8], virgin: &mut [u8]) -> NewCoverage {
        // SAFETY: see module-level safety argument.
        unsafe { fused_avx2_body(cur, virgin) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn fused_avx2_body(cur: &mut [u8], virgin: &mut [u8]) -> NewCoverage {
        assert_eq!(cur.len(), virgin.len(), "region length mismatch");
        let blocks = cur.len() / 32;
        let groups = blocks / GROUP_BLOCKS;
        let mut verdict = NewCoverage::None;
        let cur_ptr = cur.as_mut_ptr();
        let vir_ptr = virgin.as_mut_ptr();
        // SAFETY: see module-level safety argument.
        unsafe {
            for g in 0..groups {
                let base = g * GROUP;
                let raw = load_blocks::<GROUP_BLOCKS>(cur_ptr.add(base));
                if !all_zero(&raw) {
                    let vp = vir_ptr.add(base);
                    let v = load_blocks(vp);
                    let c = classify_blocks(&raw, cur_ptr.add(base));
                    compare_blocks(&c, &v, vp, &mut verdict);
                }
            }
            for i in groups * GROUP_BLOCKS..blocks {
                let p = cur_ptr.add(i * 32);
                let vp = vir_ptr.add(i * 32);
                let v = load_blocks(vp);
                let c = classify_blocks(&load_blocks::<1>(p), p);
                compare_blocks(&c, &v, vp, &mut verdict);
            }
        }
        let tail = blocks * 32;
        verdict.max(classify_and_compare_region(
            &mut cur[tail..],
            &mut virgin[tail..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::bucket_of;

    #[test]
    fn scalar_table_always_available() {
        let table = table_for(KernelKind::Scalar).expect("scalar is universal");
        assert_eq!(table.kind, KernelKind::Scalar);
        assert!(available().contains(&KernelKind::Scalar));
    }

    #[test]
    fn display_uses_the_label() {
        for kind in KernelKind::ALL {
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn auto_selection_prefers_widest_available() {
        let avail = available();
        assert_eq!(active().kind, *avail.last().unwrap());
    }

    #[test]
    fn active_is_stable_and_classifies() {
        let table = active();
        assert!(std::ptr::eq(active(), table));
        let mut buf = vec![3u8; 64];
        table.classify(&mut buf);
        assert!(buf.iter().all(|&b| b == 4)); // 3 hits → bucket 4
    }

    #[test]
    fn every_available_kernel_matches_scalar_on_a_smoke_region() {
        // The exhaustive equivalence check lives in
        // tests/kernel_equivalence.rs; this is a cheap always-on guard.
        let mut raw = vec![0u8; 300];
        for (i, b) in raw.iter_mut().enumerate() {
            if i % 7 == 0 {
                *b = (i % 256) as u8;
            }
        }
        for kind in available() {
            let table = table_for(kind).unwrap();

            let mut expect_cur = raw.clone();
            let mut expect_virgin = vec![0xFFu8; 300];
            let expect = classify_and_compare_region(&mut expect_cur, &mut expect_virgin);

            let mut got_cur = raw.clone();
            let mut got_virgin = vec![0xFFu8; 300];
            let got = table.classify_and_compare(&mut got_cur, &mut got_virgin);

            assert_eq!(got, expect, "{kind}: fused verdict");
            assert_eq!(got_cur, expect_cur, "{kind}: classified bytes");
            assert_eq!(got_virgin, expect_virgin, "{kind}: virgin bytes");
        }
    }

    #[test]
    fn vector_classify_handles_all_byte_values() {
        // One of each possible byte value, long enough to hit the vector
        // path, plus a short tail.
        let raw: Vec<u8> = (0..=255u8).chain(0..37u8).collect();
        let expect: Vec<u8> = raw.iter().map(|&b| bucket_of(b)).collect();
        for kind in available() {
            let mut got = raw.clone();
            table_for(kind).unwrap().classify(&mut got);
            assert_eq!(got, expect, "{kind}: classify table");
        }
    }

    #[test]
    fn verdict_detection_matches_on_edge_vs_bucket() {
        for kind in available() {
            let table = table_for(kind).unwrap();
            let mut virgin = vec![0xFFu8; 128];
            let mut cur = vec![0u8; 128];
            cur[65] = 1;
            assert_eq!(
                table.compare(&cur, &mut virgin),
                NewCoverage::NewEdge,
                "{kind}: first touch"
            );
            assert_eq!(
                table.compare(&cur, &mut virgin),
                NewCoverage::None,
                "{kind}: repeat"
            );
            cur[65] = 2;
            assert_eq!(
                table.compare(&cur, &mut virgin),
                NewCoverage::NewBucket,
                "{kind}: higher bucket on known slot"
            );
        }
    }
}
