//! Adaptive sparse/dense dispatch for the per-exec map operations.
//!
//! The kernel table ([`crate::kernels`]) picks *how* a dense pass over
//! the used prefix runs (scalar/AVX2). This module sits next to it and
//! picks *whether* a dense pass runs at all: when the touch journal
//! ([`crate::journal`]) is a complete account of this exec's writes, the
//! sparse pipeline (classify/compare/fused/reset over journaled slots only)
//! costs `O(touched)` instead of `O(used_key)`.
//!
//! Two decisions are made per exec. At reset, [`journals`] decides whether
//! the exec keeps a journal at all: below [`JOURNAL_MIN_USED`] journaling
//! every first touch costs more than the dense pass it could save, so
//! [`SparseMode::Auto`] records with the paper's plain Listing 2.
//! After the exec, a journaled map picks the path from the journal's
//! density (`touched / used`) against a measured crossover
//! ([`select_path`]).
//! A map instance can force either path with
//! [`crate::traits::CoverageMap::set_sparse_override`] (a campaign sets it
//! from `CampaignConfig::sparse`), so one process can run both paths side
//! by side (equivalence tests, benchmark arms).

use crate::classify::BUCKET_LUT;
use crate::diff;
use crate::journal::SlotRun;
use crate::kernels::KernelTable;
use crate::traits::NewCoverage;

/// Dispatch policy for the sparse pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SparseMode {
    /// Journal every exec and use the journal-driven sparse path whenever
    /// the journal is complete.
    On,
    /// Never journal; always use the dense kernel-table path.
    Off,
    /// Journal once the used prefix reaches [`JOURNAL_MIN_USED`], then pick
    /// per exec by journal density against the measured crossover.
    #[default]
    Auto,
}

/// Which implementation a per-exec map op dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OpPath {
    /// Dense kernel-table pass over the whole used prefix.
    #[default]
    Dense,
    /// Journal-driven walk over this exec's touched slots.
    Sparse,
}

/// Used-prefix size (bytes) from which [`SparseMode::Auto`] journals an
/// exec's first touches.
///
/// Journaling costs every `record` of the exec a zero test of the coverage
/// byte and, on a slot's first touch, run bookkeeping behind a branch the
/// CPU cannot predict. It pays back only when the sparse walk then
/// replaces a dense reset and fused pass that cost more: for execs that
/// touch a small share of a large prefix. The gate sees only the prefix,
/// so it is set for the largest per-exec footprint measured on the
/// benchmark programs (instcombine's 3-gram execs first-touch about 1,540
/// slots; sqlite3's 590, zlib's 70): `bench_mapops` times whole execs of
/// that footprint — record, reset, fused classify+compare — journal on vs
/// off at used prefixes from 4 KiB up, and fails when the smallest prefix
/// from which journaling saves at least a tenth of the plain exec is not
/// this constant. At 64 KiB such an exec breaks even (0.96–1.14× plain
/// across runs); from 256 KiB journaling it costs under half of plain. The
/// measured programs' own prefixes (0.2–7 KB) sit far below, where they
/// record with the plain Listing 2 and run the map ops dense.
pub const JOURNAL_MIN_USED: usize = 256 << 10;

/// Whether an exec journals its first touches: decided at `reset` from
/// the mode and the used prefix `used` (bytes), and fixed for the exec.
#[inline]
pub fn journals(mode: SparseMode, used: usize) -> bool {
    match mode {
        SparseMode::On => true,
        SparseMode::Off => false,
        SparseMode::Auto => used >= JOURNAL_MIN_USED,
    }
}

/// Run-count crossover for [`SparseMode::Auto`], as a divisor: the sparse
/// path requires `runs * RUN_CROSSOVER_DIVISOR < used`.
///
/// Each journal run costs a roughly fixed overhead (loop step, prefetch,
/// scalar entry or kernel sub-call) on top of its bytes, so the run count
/// is the sparse walk's primary cost driver. Measured with `bench_mapops`
/// (density sweep, uniform slot layout — all-singleton runs, the worst
/// case) on a 1 MiB prefix: the sparse fused walk costs ~3 ns per
/// singleton run against ~0.07 ns per dense AVX2 byte, putting break-even
/// at `used / runs ≈ 44`; 48 rounds conservative. Clustered layouts (the
/// realistic case — condensation assigns related edges consecutive slots)
/// compress runs by the cluster length and so stay sparse to much higher
/// touched densities, automatically.
pub const RUN_CROSSOVER_DIVISOR: usize = 48;

/// Used-prefix size (bytes) at which the giant-regime crossover divisor
/// takes over.
///
/// Up to tens of MiB the dense pass streams at cache speed and the 1 MiB
/// calibration above transfers. Past ~64 MiB the dense scan's slope
/// changes — the prefix no longer fits any cache level and (without huge
/// pages) every 4 KiB of it costs a DTLB walk — while the sparse walk's
/// per-run cost stays roughly flat, so break-even moves and a re-measured
/// divisor applies.
pub const GIANT_REGIME_BYTES: usize = 64 << 20;

/// Run-count crossover divisor for used prefixes at or above
/// [`GIANT_REGIME_BYTES`].
///
/// Re-measured with `bench_mapops --giant` (uniform singleton runs, the
/// worst case): interpolated break-even sits at `used / runs ≈ 98` for a
/// 256 MiB prefix and `≈ 83` at 1 GiB — a scattered singleton touch over a
/// giant region costs several cache-plus-TLB misses against a dense pass
/// that still streams, so break-even moves well past the base divisor's
/// 48. The constant splits toward the stricter 256 MiB measurement
/// (misclassifying the band between the two as dense costs a slow-but-
/// correct scan; misclassifying it as sparse pays the degrading scattered
/// walk). Re-measure on target hardware with `--giant`; the
/// `giant_probe` example in `bigmap-core` times the sparse walk alone.
pub const GIANT_RUN_CROSSOVER_DIVISOR: usize = 96;

/// The size-aware run-count crossover divisor: the base tuning below
/// [`GIANT_REGIME_BYTES`], the giant-regime re-measurement at or above it.
#[inline]
pub fn run_crossover_divisor(used: usize) -> usize {
    if used >= GIANT_REGIME_BYTES {
        GIANT_RUN_CROSSOVER_DIVISOR
    } else {
        RUN_CROSSOVER_DIVISOR
    }
}

/// Touched-byte crossover for [`SparseMode::Auto`], as a divisor: the
/// sparse path also requires `touched * TOUCHED_CROSSOVER_DIVISOR < used`.
///
/// Long runs are processed by kernel sub-slice calls whose per-byte cost is
/// about twice the single big dense pass (measured: 0.21 vs 0.11 ns/byte at
/// 50% clustered density, where the two paths tie). Requiring touched bytes
/// below half the used prefix caps the worst case for heavily-clustered,
/// high-density execs that the run-count term alone would let through.
pub const TOUCHED_CROSSOVER_DIVISOR: usize = 2;

/// Decides the path for one exec's map ops.
///
/// Pure function of the mode, the journal's completeness, and the work
/// triple (`touched` slots in `runs` runs, against a `used`-byte prefix) —
/// so the decision is testable and identical across classify, compare,
/// fused and reset within one exec. An overflowed (incomplete) journal
/// always forces [`OpPath::Dense`]: the journal no longer lists every
/// touched slot, so the sparse walk would miss coverage.
pub fn select_path(
    mode: SparseMode,
    complete: bool,
    touched: usize,
    runs: usize,
    used: usize,
) -> OpPath {
    if !complete {
        return OpPath::Dense;
    }
    match mode {
        SparseMode::Off => OpPath::Dense,
        SparseMode::On => OpPath::Sparse,
        SparseMode::Auto => {
            if runs.saturating_mul(run_crossover_divisor(used)) < used
                && touched.saturating_mul(TOUCHED_CROSSOVER_DIVISOR) < used
            {
                OpPath::Sparse
            } else {
                OpPath::Dense
            }
        }
    }
}

// ---------------------------------------------------------------- run ops
//
// The journal stores maximal runs of consecutive slots
// ([`crate::journal::SlotRun`]), and these are the ops the BigMap hot path
// actually dispatches to. Runs at or above [`VECTOR_RUN_MIN`] are handed to
// the vector kernels as ordinary sub-slices — the kernels are offset-
// and length-agnostic — so clustered coverage is processed at full SIMD
// width; shorter runs take a scalar per-slot loop. Equivalence with the
// dense pass holds under the journal guarantee (runs cover every nonzero
// byte, slots are unique) because each sub-slice call is byte-identical to
// the scalar oracle on that sub-slice and `NewCoverage` verdicts merge by
// `max`. Unlisted slots may be anything the dense pass leaves unchanged:
// zero bytes, which classify to zero and can neither raise a verdict nor
// clear a virgin bit.

/// Minimum run length worth a vector-kernel sub-slice call instead of the
/// scalar per-slot loop: one AVX2 block. Below this the kernel's call and
/// head/tail handling cost more than the bytes it would vectorize.
pub const VECTOR_RUN_MIN: usize = 32;

/// Lookahead distance for the run-walk prefetches: far enough to cover a
/// cold line's load latency, near enough to stay inside the L2 miss queue.
const PREFETCH_RUNS_AHEAD: usize = 8;

/// Software-prefetches the `cur`/`virgin` bytes a few runs ahead. The run
/// walk is a latency-bound sequence of random region accesses — overlapping
/// the misses is where the sparse path's constant factor comes from.
#[inline(always)]
fn prefetch_run(cur: &[u8], virgin: &[u8], runs: &[SlotRun], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(r) = runs.get(i + PREFETCH_RUNS_AHEAD) {
        // SAFETY: every run is bounds-checked by the caller before the walk
        // starts; `_mm_prefetch` itself is a hint with no memory-safety
        // contract.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(cur.as_ptr().add(r.base as usize).cast(), _MM_HINT_T0);
            _mm_prefetch(virgin.as_ptr().add(r.base as usize).cast(), _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (cur, virgin, runs, i);
    }
}

/// Panics unless every run lies inside a region of `len` bytes.
fn validate_runs(len: usize, runs: &[SlotRun]) {
    assert!(
        runs.iter()
            .all(|r| (r.base as usize) + (r.len as usize) <= len),
        "slot run out of bounds"
    );
}

/// Journal-driven reset over runs: zeroes exactly the journaled slots.
///
/// Long runs become `fill(0)` sub-slice memsets; equivalent to clearing the
/// whole used prefix when the runs cover every nonzero byte — the journal
/// guarantee, since every byte the exec wrote was journaled on its first
/// touch.
///
/// # Panics
///
/// Panics if any run is out of bounds.
pub fn reset_runs(counts: &mut [u8], runs: &[SlotRun]) {
    validate_runs(counts.len(), runs);
    for r in runs {
        counts[r.range()].fill(0);
    }
}

/// Journal-driven classify over runs: buckets exactly the journaled slots.
///
/// Equivalent to [`crate::classify::classify_slice`] over the whole region
/// when the runs' slots are **unique** (classification is not idempotent,
/// so a slot listed twice would be bucketed twice) and cover every nonzero
/// byte (`bucket_of(0) == 0`, so unlisted zero bytes need no pass). The
/// touch journal guarantees both: `BigMap` journals a slot only while its
/// coverage byte is still zero.
///
/// # Panics
///
/// Panics if any run is out of bounds.
pub fn classify_runs(counts: &mut [u8], runs: &[SlotRun], table: &KernelTable) {
    validate_runs(counts.len(), runs);
    for r in runs {
        if r.len as usize >= VECTOR_RUN_MIN {
            table.classify(&mut counts[r.range()]);
        } else {
            for s in r.range() {
                // SAFETY: every run was bounds-checked above.
                unsafe {
                    let b = counts.get_unchecked_mut(s);
                    let c = BUCKET_LUT[*b as usize];
                    if c != *b {
                        *b = c;
                    }
                }
            }
        }
    }
}

/// Journal-driven compare over runs: diffs exactly the journaled slots of
/// an already-classified region against `virgin`.
///
/// Byte-for-byte equivalent to [`crate::diff::compare_region`] — same
/// verdict, same virgin bytes — when the runs cover every nonzero byte of
/// `cur`. That includes the crash and hang virgin maps (AFL's
/// `hash_to_last_nonzero` new-coverage semantics): they diff the same
/// classified region through this same entry point, so a first crash or
/// hang still reports `NewEdge` against its own all-`0xFF` virgin state.
///
/// # Panics
///
/// Panics if the regions have different lengths or any run is out of
/// bounds.
pub fn compare_runs(
    cur: &[u8],
    virgin: &mut [u8],
    runs: &[SlotRun],
    table: &KernelTable,
) -> NewCoverage {
    assert_eq!(cur.len(), virgin.len(), "region length mismatch");
    validate_runs(cur.len(), runs);
    let mut verdict = NewCoverage::None;
    for (i, r) in runs.iter().enumerate() {
        prefetch_run(cur, virgin, runs, i);
        if r.len as usize >= VECTOR_RUN_MIN {
            verdict = verdict.max(table.compare(&cur[r.range()], &mut virgin[r.range()]));
        } else {
            for s in r.range() {
                // SAFETY: every run was bounds-checked above.
                unsafe {
                    diff::diff_byte(
                        *cur.get_unchecked(s),
                        virgin.get_unchecked_mut(s),
                        &mut verdict,
                    );
                }
            }
        }
    }
    verdict
}

/// Journal-driven merged classify + compare over runs.
///
/// Equivalent to [`crate::diff::classify_and_compare_region`] under both
/// halves of the contract above: covering runs (as for [`compare_runs`])
/// of unique slots (as for [`classify_runs`]). A classified byte is stored
/// only when it changed, keeping already-classified lines clean in the
/// steady state (the dense kernels' store elision).
///
/// # Panics
///
/// Panics if the regions have different lengths or any run is out of
/// bounds.
pub fn classify_and_compare_runs(
    cur: &mut [u8],
    virgin: &mut [u8],
    runs: &[SlotRun],
    table: &KernelTable,
) -> NewCoverage {
    assert_eq!(cur.len(), virgin.len(), "region length mismatch");
    validate_runs(cur.len(), runs);
    let mut verdict = NewCoverage::None;
    for (i, r) in runs.iter().enumerate() {
        prefetch_run(cur, virgin, runs, i);
        if r.len as usize >= VECTOR_RUN_MIN {
            verdict = verdict
                .max(table.classify_and_compare(&mut cur[r.range()], &mut virgin[r.range()]));
        } else {
            for s in r.range() {
                // SAFETY: every run was bounds-checked above.
                unsafe {
                    let p = cur.get_unchecked_mut(s);
                    let b = BUCKET_LUT[*p as usize];
                    // Store elision, as in the dense kernels: most steady-
                    // state bytes are already at their bucket fixed point.
                    if b != *p {
                        *p = b;
                    }
                    diff::diff_byte(b, virgin.get_unchecked_mut(s), &mut verdict);
                }
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_always_forces_dense() {
        for mode in [SparseMode::On, SparseMode::Off, SparseMode::Auto] {
            assert_eq!(
                select_path(mode, false, 1, 1, 1 << 20),
                OpPath::Dense,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn forced_modes_ignore_density() {
        let used = 1 << 20;
        assert_eq!(
            select_path(SparseMode::On, true, used - 1, used - 1, used),
            OpPath::Sparse
        );
        assert_eq!(
            select_path(SparseMode::Off, true, 1, 1, used),
            OpPath::Dense
        );
    }

    #[test]
    fn auto_picks_by_crossover_density() {
        let used = 1 << 20;
        // Scattered singletons (runs == touched): the run term decides.
        // (48 does not divide 1 MiB exactly, so the boundary is div_ceil.)
        let below = used / RUN_CROSSOVER_DIVISOR;
        let at = used.div_ceil(RUN_CROSSOVER_DIVISOR);
        assert_eq!(
            select_path(SparseMode::Auto, true, below, below, used),
            OpPath::Sparse
        );
        assert_eq!(
            select_path(SparseMode::Auto, true, at, at, used),
            OpPath::Dense
        );
        // Clustered coverage (few runs, many touched bytes): the run term
        // passes easily and the touched term takes over at half the prefix.
        let half = used / TOUCHED_CROSSOVER_DIVISOR;
        assert_eq!(
            select_path(SparseMode::Auto, true, half - 1, 64, used),
            OpPath::Sparse
        );
        assert_eq!(
            select_path(SparseMode::Auto, true, half, 64, used),
            OpPath::Dense
        );
        // Degenerate cases: empty journal is maximally sparse; an empty
        // used prefix has nothing to win either way and stays dense.
        assert_eq!(
            select_path(SparseMode::Auto, true, 0, 0, used),
            OpPath::Sparse
        );
        assert_eq!(select_path(SparseMode::Auto, true, 0, 0, 0), OpPath::Dense);
    }

    #[test]
    fn giant_regime_switches_crossover_divisor() {
        // The divisor is size-aware: base tuning below the breakpoint,
        // giant-regime re-measurement at and above it.
        assert_eq!(run_crossover_divisor(1 << 20), RUN_CROSSOVER_DIVISOR);
        assert_eq!(
            run_crossover_divisor(GIANT_REGIME_BYTES - 1),
            RUN_CROSSOVER_DIVISOR
        );
        assert_eq!(
            run_crossover_divisor(GIANT_REGIME_BYTES),
            GIANT_RUN_CROSSOVER_DIVISOR
        );
        assert_eq!(run_crossover_divisor(1 << 30), GIANT_RUN_CROSSOVER_DIVISOR);

        // And select_path actually applies it: a run count that is sparse
        // under the base divisor flips dense in the giant regime exactly at
        // the re-measured boundary — the smallest count where
        // `runs * divisor < used` no longer holds.
        let used: usize = 256 << 20;
        let at = used.div_ceil(GIANT_RUN_CROSSOVER_DIVISOR);
        let below = at - 1;
        assert_eq!(
            select_path(SparseMode::Auto, true, below, below, used),
            OpPath::Sparse
        );
        assert_eq!(
            select_path(SparseMode::Auto, true, at, at, used),
            OpPath::Dense
        );
    }

    #[test]
    fn reset_runs_clears_exactly_the_listed_runs() {
        let mut buf = [7u8; 64];
        let runs = [
            SlotRun { base: 0, len: 3 },
            SlotRun { base: 10, len: 1 },
            SlotRun { base: 60, len: 4 },
        ];
        reset_runs(&mut buf, &runs);
        for (i, &b) in buf.iter().enumerate() {
            let cleared = i < 3 || i == 10 || i >= 60;
            assert_eq!(b, if cleared { 0 } else { 7 }, "slot {i}");
        }
    }

    #[test]
    #[should_panic(expected = "slot run out of bounds")]
    fn run_ops_reject_out_of_bounds_runs() {
        reset_runs(&mut [0u8; 16], &[SlotRun { base: 14, len: 3 }]);
    }

    #[test]
    fn run_ops_match_dense_for_every_available_kernel() {
        use crate::diff::{classify_and_compare_region, compare_region};
        use crate::journal::runs_from_slots;
        use crate::kernels::{available, table_for};

        // A region exercising every dispatch case: one long run (vector
        // sub-slice path), one short run and scattered singletons (scalar
        // path), zero gaps in between.
        let len = 256;
        let mut raw = vec![0u8; len];
        let mut slots: Vec<u32> = Vec::new();
        for s in 16..80u32 {
            raw[s as usize] = (s % 5 + 1) as u8;
            slots.push(s);
        }
        for s in [100u32, 101, 102, 150, 255, 0] {
            raw[s as usize] = 200;
            slots.push(s);
        }
        let runs = runs_from_slots(&slots);
        assert!(runs.iter().any(|r| r.len as usize >= VECTOR_RUN_MIN));
        assert!(runs.iter().any(|r| (r.len as usize) < VECTOR_RUN_MIN));

        for kind in available() {
            let table = table_for(kind).unwrap();

            // Fused pass vs the dense scalar oracle.
            let mut dense_cur = raw.clone();
            let mut dense_virgin = vec![0xFFu8; len];
            let want = classify_and_compare_region(&mut dense_cur, &mut dense_virgin);
            let mut cur = raw.clone();
            let mut virgin = vec![0xFFu8; len];
            let got = classify_and_compare_runs(&mut cur, &mut virgin, &runs, table);
            assert_eq!(got, want, "{kind}: fused verdict");
            assert_eq!(cur, dense_cur, "{kind}: classified bytes");
            assert_eq!(virgin, dense_virgin, "{kind}: virgin bytes");

            // Split classify + compare on partially-trained virgin state.
            let mut split_cur = raw.clone();
            classify_runs(&mut split_cur, &runs, table);
            assert_eq!(split_cur, dense_cur, "{kind}: split classify");
            let verdict = compare_runs(&split_cur, &mut virgin, &runs, table);
            let mut model_virgin = dense_virgin.clone();
            let model = compare_region(&split_cur, &mut model_virgin);
            assert_eq!(verdict, model, "{kind}: replay verdict");
            assert_eq!(virgin, model_virgin, "{kind}: replay virgin");
        }
    }
}
