//! Vectorized map-op kernels with runtime CPU dispatch.
//!
//! The paper's argument (§IV-E, Figures 3/6) is that the whole-map
//! operations — classify, compare, and the merged classify+compare —
//! dominate fuzzer-side cost as maps grow. The word-wise loops in
//! [`crate::classify`] and [`crate::diff`] top out at 8 bytes per
//! iteration; this module adds SSE2 (16 B) and AVX2 (32 B) kernels for the
//! same three operations and selects an implementation **once per
//! process**, at first use, into a function-pointer table. The hot path
//! pays zero per-call feature branching: callers grab
//! [`active()`](active) (one `OnceLock` load) and jump through the table.
//!
//! Selection policy, in order:
//!
//! 1. `BIGMAP_KERNEL=scalar|sse2|avx2` forces a kernel. Requesting a
//!    kernel the CPU cannot run falls back to auto-detection with a
//!    warning on stderr (a forced *downgrade* is always honoured — that is
//!    how CI pins the scalar path).
//! 2. Otherwise the widest kernel the CPU supports, probed with
//!    [`std::arch::is_x86_feature_detected!`]: AVX2, then SSE2, then the
//!    portable scalar code.
//!
//! The scalar implementations in [`crate::classify`] / [`crate::diff`]
//! remain the **semantic oracle**: every vector kernel must be
//! byte-identical to them on arbitrary inputs (enforced by the
//! `kernel_equivalence` property-test suite) and they serve as the
//! portable fallback on non-x86-64 targets and for region tails shorter
//! than one vector block.
//!
//! Each dispatched call bumps a global per-kernel [`EventCounter`], so
//! telemetry (and the `bench_mapops` harness) can prove which
//! implementation a campaign actually ran.
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
use crate::counters::EventCounter;
use crate::diff::{classify_and_compare_region, compare_region};
use crate::traits::NewCoverage;

/// The kernel implementations this build knows about.
///
/// `Sse2` and `Avx2` exist on every build (so configuration and telemetry
/// can name them portably) but [`table_for`] only returns a table for the
/// ones the *running* CPU supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Portable word-wise Rust (`crate::classify` / `crate::diff`) — the
    /// semantic oracle and universal fallback.
    Scalar,
    /// 128-bit x86-64 kernels: SIMD zero-skim and compare, LUT classify.
    Sse2,
    /// 256-bit x86-64 kernels: in-register nibble-LUT classify plus
    /// `vptest`-based compare.
    Avx2,
}

impl KernelKind {
    /// Every kind, narrowest to widest.
    pub const ALL: [KernelKind; 3] = [KernelKind::Scalar, KernelKind::Sse2, KernelKind::Avx2];

    /// Stable lower-case label (`"scalar"`, `"sse2"`, `"avx2"`) used by
    /// `BIGMAP_KERNEL`, benchmark reports and telemetry keys.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Sse2 => "sse2",
            KernelKind::Avx2 => "avx2",
        }
    }

    /// Parses a [`label`](KernelKind::label) back into a kind.
    pub fn from_label(label: &str) -> Option<KernelKind> {
        match label {
            "scalar" => Some(KernelKind::Scalar),
            "sse2" => Some(KernelKind::Sse2),
            "avx2" => Some(KernelKind::Avx2),
            _ => None,
        }
    }

    #[inline]
    fn slot(self) -> usize {
        match self {
            KernelKind::Scalar => 0,
            KernelKind::Sse2 => 1,
            KernelKind::Avx2 => 2,
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
        INVOCATIONS[self.kind.slot()].incr();
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
        INVOCATIONS[self.kind.slot()].incr();
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
        INVOCATIONS[self.kind.slot()].incr();
        (self.fused_fn)(cur, virgin)
    }

    // Uncounted entry points for the sparse run dispatcher
    // (`crate::sparse`): a sparse pass may make one kernel call per long
    // run, and counting each would make `invocations` useless as a
    // "how many dense passes ran" telemetry signal. Sparse work is
    // accounted through `crate::sparse::dispatches` instead.

    #[inline]
    pub(crate) fn classify_uncounted(&self, counts: &mut [u8]) {
        (self.classify_fn)(counts)
    }

    #[inline]
    pub(crate) fn compare_uncounted(&self, cur: &[u8], virgin: &mut [u8]) -> NewCoverage {
        (self.compare_fn)(cur, virgin)
    }

    #[inline]
    pub(crate) fn fused_uncounted(&self, cur: &mut [u8], virgin: &mut [u8]) -> NewCoverage {
        (self.fused_fn)(cur, virgin)
    }
}

/// Global per-kernel invocation totals, indexed by [`KernelKind::slot`].
static INVOCATIONS: [EventCounter; 3] = [
    EventCounter::new(),
    EventCounter::new(),
    EventCounter::new(),
];

/// How many kernel calls (classify, compare, or fused — each counts one)
/// have dispatched to `kind` since process start.
pub fn invocations(kind: KernelKind) -> u64 {
    INVOCATIONS[kind.slot()].get()
}

static SCALAR_TABLE: KernelTable = KernelTable {
    kind: KernelKind::Scalar,
    classify_fn: classify_slice,
    compare_fn: compare_region,
    fused_fn: classify_and_compare_region,
};

#[cfg(target_arch = "x86_64")]
static SSE2_TABLE: KernelTable = KernelTable {
    kind: KernelKind::Sse2,
    classify_fn: x86::classify_sse2,
    compare_fn: x86::compare_sse2,
    // Scalar: every SSE2 fused variant measured slower than it (bench_mapops).
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
/// [`KernelKind::Scalar`] is always available. The vector kinds require an
/// x86-64 build *and* a positive runtime feature probe — this function is
/// the only constructor of vector tables, which is the safety argument for
/// the `unsafe` blocks inside them.
pub fn table_for(kind: KernelKind) -> Option<&'static KernelTable> {
    match kind {
        KernelKind::Scalar => Some(&SCALAR_TABLE),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Sse2 => std::arch::is_x86_feature_detected!("sse2").then_some(&SSE2_TABLE),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => std::arch::is_x86_feature_detected!("avx2").then_some(&AVX2_TABLE),
        #[cfg(not(target_arch = "x86_64"))]
        KernelKind::Sse2 | KernelKind::Avx2 => None,
    }
}

/// Every kernel the running CPU can execute, narrowest to widest.
pub fn available() -> Vec<KernelKind> {
    KernelKind::ALL
        .into_iter()
        .filter(|&k| table_for(k).is_some())
        .collect()
}

/// Resolves the selection policy for a requested kind (`None` = unset or
/// unparseable): honour a CPU-supported request, warn and fall back to
/// auto-detection otherwise. Pure so tests can cover the policy without
/// touching process environment.
fn select_kind(request: Option<KernelKind>) -> &'static KernelTable {
    if let Some(kind) = request {
        match table_for(kind) {
            Some(table) => return table,
            None => eprintln!(
                "BIGMAP_KERNEL={}: kernel not supported by this CPU, \
                 falling back to auto-detection",
                kind.label()
            ),
        }
    }
    table_for(KernelKind::Avx2)
        .or_else(|| table_for(KernelKind::Sse2))
        .unwrap_or(&SCALAR_TABLE)
}

/// Resolves the selection policy for a given `BIGMAP_KERNEL` value
/// (`None` = unset), parsing through the shared [`crate::env`] policy.
#[cfg(test)]
fn select(env_override: Option<&str>) -> &'static KernelTable {
    select_kind(crate::env::parse_kernel(env_override))
}

/// The process-wide active kernel table.
///
/// Resolved once, at first call, from `BIGMAP_KERNEL` (via
/// [`crate::env::kernel_request`]) and runtime feature detection; every
/// later call is a single atomic load. Both map schemes route their
/// classify/compare/fused operations through this table.
pub fn active() -> &'static KernelTable {
    static ACTIVE: OnceLock<&'static KernelTable> = OnceLock::new();
    ACTIVE.get_or_init(|| select_kind(crate::env::kernel_request()))
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
    use crate::classify::classify_word;
    use std::arch::x86_64::*;

    /// Verdict accumulator mirroring `diff.rs`: once `NewEdge` is found the
    /// per-block edge test is skipped (virgin clearing still proceeds).
    #[inline]
    fn raise(verdict: &mut NewCoverage, v: NewCoverage) {
        if v > *verdict {
            *verdict = v;
        }
    }

    // ---------------------------------------------------------------- SSE2

    /// SSE2 classify: 16-byte zero skim, 16-bit-LUT classification of the
    /// words inside non-zero blocks.
    ///
    /// SSE2 has no byte shuffle (`pshufb` is SSSE3), so the bucket mapping
    /// itself stays on the scalar LUT; the win is skipping zero blocks
    /// twice as fast as the word loop, which on sparse coverage maps is
    /// almost all of the work.
    pub(super) fn classify_sse2(counts: &mut [u8]) {
        let len = counts.len();
        let blocks = len / 16;
        let ptr = counts.as_mut_ptr();
        // SAFETY: see module-level safety argument; `i * 16 + 16 <= len`.
        unsafe {
            let zero = _mm_setzero_si128();
            for i in 0..blocks {
                let p = ptr.add(i * 16);
                let v = _mm_loadu_si128(p.cast::<__m128i>());
                if _mm_movemask_epi8(_mm_cmpeq_epi8(v, zero)) == 0xFFFF {
                    continue;
                }
                for j in 0..2 {
                    let wp = p.add(j * 8).cast::<u64>();
                    let w = wp.read_unaligned();
                    let classified = classify_word(w);
                    // Store elision: counts 0/1/2 and already-bucketed
                    // values are fixed points of the classifier, so most
                    // real coverage words come out unchanged — skipping
                    // the store keeps their cache lines clean.
                    if classified != w {
                        wp.write_unaligned(classified);
                    }
                }
            }
        }
        classify_slice(&mut counts[blocks * 16..]);
    }

    /// SSE2 compare: 16-byte blocks, `pand` + zero test for the skip path,
    /// `pcmpeqb` against 0xFF for the new-edge test, `pandn` clear.
    pub(super) fn compare_sse2(cur: &[u8], virgin: &mut [u8]) -> NewCoverage {
        assert_eq!(cur.len(), virgin.len(), "region length mismatch");
        let len = cur.len();
        let blocks = len / 16;
        let mut verdict = NewCoverage::None;
        let cur_ptr = cur.as_ptr();
        let vir_ptr = virgin.as_mut_ptr();
        // SAFETY: see module-level safety argument.
        unsafe {
            let zero = _mm_setzero_si128();
            let ff = _mm_set1_epi8(-1);
            for i in 0..blocks {
                let cp = cur_ptr.add(i * 16).cast::<__m128i>();
                let vp = vir_ptr.add(i * 16).cast::<__m128i>();
                let c = _mm_loadu_si128(cp);
                let v = _mm_loadu_si128(vp);
                let hits = _mm_and_si128(c, v);
                if _mm_movemask_epi8(_mm_cmpeq_epi8(hits, zero)) == 0xFFFF {
                    continue;
                }
                if verdict < NewCoverage::NewEdge {
                    let virgin_ff = _mm_cmpeq_epi8(v, ff);
                    let edge = _mm_and_si128(hits, virgin_ff);
                    if _mm_movemask_epi8(_mm_cmpeq_epi8(edge, zero)) != 0xFFFF {
                        raise(&mut verdict, NewCoverage::NewEdge);
                    } else {
                        raise(&mut verdict, NewCoverage::NewBucket);
                    }
                }
                _mm_storeu_si128(vp, _mm_andnot_si128(c, v));
            }
        }
        let tail = blocks * 16;
        verdict.max(compare_region(&cur[tail..], &mut virgin[tail..]))
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

    /// AVX2 compare: 32-byte blocks; `vptest` on `cur & virgin` skips
    /// no-news blocks without a store, `vpcmpeqb` against 0xFF detects
    /// brand-new edges, `vpandn` clears covered virgin bits.
    pub(super) fn compare_avx2(cur: &[u8], virgin: &mut [u8]) -> NewCoverage {
        // SAFETY: see module-level safety argument.
        unsafe { compare_avx2_body(cur, virgin) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn compare_avx2_body(cur: &[u8], virgin: &mut [u8]) -> NewCoverage {
        assert_eq!(cur.len(), virgin.len(), "region length mismatch");
        let len = cur.len();
        let blocks = len / 32;
        let mut verdict = NewCoverage::None;
        let cur_ptr = cur.as_ptr();
        let vir_ptr = virgin.as_mut_ptr();
        // SAFETY: see module-level safety argument.
        unsafe {
            let ff = _mm256_set1_epi8(-1);
            for i in 0..blocks {
                let cp = cur_ptr.add(i * 32).cast::<__m256i>();
                let vp = vir_ptr.add(i * 32).cast::<__m256i>();
                let c = _mm256_loadu_si256(cp);
                let v = _mm256_loadu_si256(vp);
                let hits = _mm256_and_si256(c, v);
                if _mm256_testz_si256(hits, hits) != 0 {
                    continue;
                }
                if verdict < NewCoverage::NewEdge {
                    let virgin_ff = _mm256_cmpeq_epi8(v, ff);
                    let edge = _mm256_and_si256(hits, virgin_ff);
                    if _mm256_testz_si256(edge, edge) == 0 {
                        raise(&mut verdict, NewCoverage::NewEdge);
                    } else {
                        raise(&mut verdict, NewCoverage::NewBucket);
                    }
                }
                _mm256_storeu_si256(vp, _mm256_andnot_si256(c, v));
            }
        }
        let tail = blocks * 32;
        verdict.max(compare_region(&cur[tail..], &mut virgin[tail..]))
    }

    /// AVX2 fused classify+compare: classify a block in-register, store the
    /// classified counts, and diff them against virgin while both are still
    /// in registers — each cache line of the region is touched once.
    pub(super) fn fused_avx2(cur: &mut [u8], virgin: &mut [u8]) -> NewCoverage {
        // SAFETY: see module-level safety argument.
        unsafe { fused_avx2_body(cur, virgin) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn fused_avx2_body(cur: &mut [u8], virgin: &mut [u8]) -> NewCoverage {
        assert_eq!(cur.len(), virgin.len(), "region length mismatch");
        let len = cur.len();
        let blocks = len / 32;
        let mut verdict = NewCoverage::None;
        let cur_ptr = cur.as_mut_ptr();
        let vir_ptr = virgin.as_mut_ptr();
        // SAFETY: see module-level safety argument.
        unsafe {
            let ff = _mm256_set1_epi8(-1);
            for i in 0..blocks {
                let cp = cur_ptr.add(i * 32);
                let raw = _mm256_loadu_si256(cp.cast::<__m256i>());
                // Branchless classify + masked write-back, exactly as
                // classify_avx2 (zero blocks produce an empty mask).
                let c = classify_bytes_avx2(raw);
                _mm256_maskstore_epi32(cp.cast::<i32>(), changed_lanes(c, raw), c);
                let vp = vir_ptr.add(i * 32).cast::<__m256i>();
                let v = _mm256_loadu_si256(vp);
                let hits = _mm256_and_si256(c, v);
                // This skip branch stays: in steady state virgin already
                // absorbed the covered bits, so `hits` is almost always
                // zero and the branch predicts near-perfectly — unlike
                // the raw-counts occupancy it replaced.
                if _mm256_testz_si256(hits, hits) != 0 {
                    continue;
                }
                if verdict < NewCoverage::NewEdge {
                    let virgin_ff = _mm256_cmpeq_epi8(v, ff);
                    let edge = _mm256_and_si256(hits, virgin_ff);
                    if _mm256_testz_si256(edge, edge) == 0 {
                        raise(&mut verdict, NewCoverage::NewEdge);
                    } else {
                        raise(&mut verdict, NewCoverage::NewBucket);
                    }
                }
                _mm256_storeu_si256(vp, _mm256_andnot_si256(c, v));
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
    fn labels_round_trip() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::from_label(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(KernelKind::from_label("neon"), None);
    }

    #[test]
    fn select_honours_supported_override() {
        assert_eq!(select(Some("scalar")).kind, KernelKind::Scalar);
    }

    #[test]
    fn select_falls_back_on_unknown_override() {
        let auto = select(None).kind;
        assert_eq!(select(Some("quantum")).kind, auto);
    }

    #[test]
    fn auto_selection_prefers_widest_available() {
        let auto = select(None).kind;
        let avail = available();
        assert_eq!(auto, *avail.last().unwrap());
    }

    #[test]
    fn active_is_stable_and_counts_invocations() {
        let table = active();
        assert_eq!(active().kind, table.kind);
        let before = invocations(table.kind);
        let mut buf = vec![3u8; 64];
        table.classify(&mut buf);
        assert!(invocations(table.kind) > before);
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
