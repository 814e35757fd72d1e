//! Map-op microbenchmark harness: per-kernel throughput for the whole-map
//! operations (§IV-E), region sizes 64 KiB → 16 MiB.
//!
//! Sweeps every kernel the host supports (`scalar`, `avx2`) over
//! {classify, compare, fused classify+compare} at each region size, plus
//! the kernel-independent admission-path reads of the same region (the
//! zero-run-skipping CRC32 `hash` and the block-skip slot `scan`), each at
//! two coverages: ~2% uniform density (a busy map) and libpng's exec
//! footprint (200 scattered non-zero bytes, what one libpng exec leaves in
//! its 8 MiB flat map). Then an in-loop reset sweep: whole flat-map execs
//! (reset, [`EXEC_RECORDS`] scattered records, fused classify+compare)
//! with a cached `fill(0)` reset against non-temporal streaming stores,
//! 1 MiB → 128 MiB, whose crossover prints next to the resolved
//! `simd::stream_cutoff`, plus a coverage-density sweep ({sparse journal
//! walk, dense kernel, adaptive dispatch} × {clustered, uniform} slot
//! layouts) that locates the sparse/dense crossover behind
//! `RUN_CROSSOVER_DIVISOR`, plus a record-inclusive journal sweep (whole
//! execs — `record`, `reset`, fused classify+compare — on a `BigMap` with
//! the touch journal forced on, off, and under the shipped `Auto` gate,
//! used prefixes 4 KiB → 64 MiB) whose fixed-footprint gate cells locate
//! the used prefix behind `JOURNAL_MIN_USED` (the run fails when they
//! disagree), plus a giant-map arm (64 MiB → 1 GiB × {dense, sparse,
//! adaptive} × {explicit, off} huge-page policies) with a uniform-layout
//! crossover re-measurement behind `GIANT_RUN_CROSSOVER_DIVISOR` and a
//! locality cross-check against the `bigmap-cache` simulator.
//! Results print as a table and land in `BENCH_mapops.json`.
//!
//! Usage:
//!
//! ```text
//! bench_mapops [--quick | --full] [--giant] [--out <path>]
//! ```
//!
//! * `--quick` — 64 KiB → 1 MiB, small iteration budget (CI smoke);
//!   the reset sweep runs 1 → 8 MiB, the journal sweep 4 KiB → 1 MiB and
//!   the giant arm shrinks to its 64 MiB row.
//! * default  — 64 KiB → 16 MiB, reset sweep 1 → 128 MiB, giant arm
//!   64 MiB → 1 GiB.
//! * `--full` — same sizes, ~4× the iteration budget.
//! * `--giant` — run only the giant-map arm (CI smoke pairs this with
//!   `--quick` for a scaled-down 64 MiB pass).
//! * `--out <path>` — JSON destination (default `BENCH_mapops.json`).
//!
//! Benchmarked buffers mirror campaign reality: huge-page-aligned
//! [`MapBuffer`]s, counts pre-classified to their bucket fixed points and
//! virgin maps pre-trained so every timed iteration does identical
//! steady-state work (classification is not idempotent on raw counts; it
//! is on {0, 1, 2, 64, 128}).

use std::fmt::Write as _;
use std::time::Instant;

use bigmap_bench::{report_header, Effort};
use bigmap_cache::{trace_bigmap, trace_flat, TraceWorkload, TracedOp};
use bigmap_core::alloc::{with_huge_policy, HugePolicy, MapBuffer};
use bigmap_core::classify::classify_slice;
use bigmap_core::diff::for_each_nonzero_byte;
use bigmap_core::journal::{runs_from_slots, SlotRun};
use bigmap_core::kernels::{active, available, table_for, KernelKind};
use bigmap_core::simd::{last_level_cache, stream_cutoff, zero_with_cutoff};
use bigmap_core::sparse::{
    classify_and_compare_runs, select_path, OpPath, SparseMode, JOURNAL_MIN_USED,
};
use bigmap_core::{BigMap, CoverageMap, Crc32, MapSize, Recorder, VirginState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

/// One measured configuration.
struct Sample {
    op: &'static str,
    /// Kernel label, or `crc32` / `blockskip` for the hash and scan rows.
    variant: String,
    /// The region's coverage: [`Coverage::label`].
    coverage: &'static str,
    size: usize,
    iters: u64,
    ns_per_op: f64,
    gib_per_s: f64,
}

/// The coverage a kernel-row region holds.
#[derive(Clone, Copy)]
enum Coverage {
    /// ~2% of the bytes non-zero, uniformly scattered: a busy map, about
    /// half of whose 32-byte blocks hold coverage.
    Uniform2Pct,
    /// [`EXEC_RECORDS`] scattered non-zero bytes at every size: one
    /// libpng exec's footprint on its 8 MiB flat map.
    Footprint,
}

impl Coverage {
    const ALL: [Coverage; 2] = [Coverage::Uniform2Pct, Coverage::Footprint];

    fn label(self) -> &'static str {
        match self {
            Coverage::Uniform2Pct => "2%",
            Coverage::Footprint => "200B",
        }
    }
}

/// Distinct slots one libpng exec touches on its 8 MiB flat map (about
/// 200): the footprint kernel rows and the reset sweep's execs record
/// this many scattered slots.
const EXEC_RECORDS: usize = 200;

/// One measured cell of the in-loop reset sweep.
struct ResetSample {
    size: usize,
    /// `cached` (`fill(0)`) or `stream` (non-temporal stores).
    strategy: &'static str,
    iters: u64,
    /// One whole exec: reset, [`EXEC_RECORDS`] records, fused
    /// classify+compare.
    ns_per_exec: f64,
}

/// One measured cell of the coverage-density sweep.
struct DensitySample {
    density: f64,
    /// `clustered` (runs of 64 consecutive slots) or `uniform` scatter.
    layout: &'static str,
    /// `dense` (widest kernel), `sparse` (journal walk), or `adaptive`.
    variant: &'static str,
    touched: usize,
    iters: u64,
    ns_per_op: f64,
}

/// One measured cell of the record-inclusive journal sweep.
struct JournalSample {
    /// Used prefix (condensed slots = bytes) of the map.
    used: usize,
    density: f64,
    /// `clustered` or `uniform`, as in the density sweep.
    layout: &'static str,
    /// `off` (plain `record`, dense ops), `on` (journaled `record`, sparse
    /// walk), or `auto` (the shipped gate and crossover).
    variant: &'static str,
    touched: usize,
    iters: u64,
    /// One whole exec: reset, the exec's `record` calls, fused
    /// classify+compare.
    ns_per_exec: f64,
}

/// One measured cell of the giant-map arm.
struct GiantSample {
    size: usize,
    /// Requested huge-page policy (`explicit`, `off`).
    policy: &'static str,
    /// Backend that actually served the timed buffers.
    served: &'static str,
    /// Whether an explicit request degraded to plain pages.
    fell_back: bool,
    /// `dense`, `sparse`, or `adaptive`.
    variant: &'static str,
    touched: usize,
    iters: u64,
    ns_per_op: f64,
}

/// One simulator-vs-measurement row of the giant-arm locality cross-check.
struct CacheCheck {
    size: usize,
    /// Predicted whole-map scan accesses/exec for the flat structure.
    flat_scan_apc: f64,
    /// Predicted scan accesses/exec for BigMap's condensed prefix.
    bigmap_scan_apc: f64,
    /// `flat_scan_apc / bigmap_scan_apc` — the model's sparse advantage.
    predicted_ratio: f64,
    /// Fraction of flat-scan fetched bytes holding no active data.
    flat_dead: f64,
    /// Measured dense fused ns/op (`off` arm).
    measured_dense_ns: f64,
    /// Measured sparse fused ns/op (`off` arm).
    measured_sparse_ns: f64,
    /// `measured_dense_ns / measured_sparse_ns`.
    measured_ratio: f64,
    /// Model and measurement agree on which structure wins.
    agree: bool,
}

/// Everything the giant arm produces, for JSON rendering.
struct GiantArm {
    touched: usize,
    samples: Vec<GiantSample>,
    /// Measured uniform-layout crossover divisor per giant size.
    divisors: Vec<(usize, f64)>,
    checks: Vec<CacheCheck>,
}

fn main() {
    let effort = Effort::from_args();
    let giant_only = std::env::args().any(|a| a == "--giant");
    let out_path = out_path_from_args();
    report_header(
        "bench_mapops — per-kernel whole-map operation throughput",
        effort,
        "steady-state ns/op over huge-page-aligned maps, ~2% density and a 200-byte exec footprint",
    );

    let sizes: &[usize] = match effort {
        Effort::Quick => &[64 * KIB, 256 * KIB, MIB],
        Effort::Standard | Effort::Full => &[64 * KIB, 256 * KIB, MIB, 4 * MIB, 16 * MIB],
    };
    // Total bytes each (op, kernel, size) cell should chew through; sets
    // the iteration count so small and large regions get comparable
    // measurement time.
    let target_bytes: usize = match effort {
        Effort::Quick => 64 * MIB,
        Effort::Standard => 512 * MIB,
        Effort::Full => 2048 * MIB,
    };

    let kernels = available();
    println!(
        "kernels available: {}",
        kernels
            .iter()
            .map(|k| k.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "stream cutoff: {} ({})\n",
        size_label(stream_cutoff()),
        llc_label()
    );

    let mut samples: Vec<Sample> = Vec::new();
    let mut reset: Option<ResetSweep> = None;
    let mut density_samples: Vec<DensitySample> = Vec::new();
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    let mut crossover: Option<f64> = None;
    let mut speedup_2pct = 0.0;
    let mut adaptive_overhead = 0.0;
    let mut journal: Option<JournalSweep> = None;
    let dense_table = active();

    if !giant_only {
        // --- kernel ops: classify / compare / fused, per kernel, per size,
        //     per coverage ---
        println!(
            "{:<10} {:<9} {:<8} {:>9} {:>12} {:>10}",
            "op", "kernel", "coverage", "size", "ns/op", "GiB/s"
        );
        for &size in sizes {
            for coverage in Coverage::ALL {
                let (cur, virgin) = prepare_region(size, coverage);
                let iters = (target_bytes / size).clamp(5, 4096) as u64;
                for &kind in &kernels {
                    let table = table_for(kind).expect("available kernel has a table");
                    for op in ["classify", "compare", "fused"] {
                        let mut cur_buf = clone_map(&cur);
                        let mut virgin_buf = clone_map(&virgin);
                        let cur_s = cur_buf.as_mut_slice();
                        let virgin_s = virgin_buf.as_mut_slice();
                        samples.push(measure(op, kind.label(), coverage, size, iters, || {
                            run_op(op, table, cur_s, virgin_s)
                        }));
                    }
                }
                // Kernel-independent reads of the same region: the
                // admission hash (zero-run-skipping CRC32) and the slot
                // scan.
                samples.push(measure("hash", "crc32", coverage, size, iters, || {
                    std::hint::black_box(Crc32::checksum(cur.as_slice()));
                }));
                samples.push(measure("scan", "blockskip", coverage, size, iters, || {
                    let mut sum = 0usize;
                    for_each_nonzero_byte(cur.as_slice(), |i, _| sum += i);
                    std::hint::black_box(sum);
                }));
            }
        }

        let sweep = run_reset_sweep(effort);
        let cutoff = stream_cutoff();
        println!(
            "reset crossover: streaming wins from {} — resolved stream_cutoff {} ({}): {}",
            sweep
                .crossover
                .map_or("no swept size".to_string(), size_label),
            size_label(cutoff),
            llc_label(),
            if sweep.brackets(cutoff) {
                "bracketed by the sweep"
            } else {
                "NOT bracketed by the sweep"
            }
        );
        reset = Some(sweep);

        // --- headline: AVX2 fused vs scalar split-equivalent speedup ---
        println!("\nAVX2 fused speedup over scalar fused:");
        for &size in sizes {
            let scalar = find_ns(&samples, "fused", "scalar", size);
            let avx2 = find_ns(&samples, "fused", "avx2", size);
            if let (Some(s), Some(a)) = (scalar, avx2) {
                let speedup = s / a;
                println!("  {:>9}: {speedup:.2}x", size_label(size));
                speedups.push((size, speedup));
            }
        }
        let big_ok = speedups
            .iter()
            .filter(|(size, _)| *size >= MIB)
            .all(|&(_, s)| s >= 2.0);
        if speedups.iter().any(|(size, _)| *size >= MIB) {
            println!(
                "  acceptance (>= 2x on 1 MiB+): {}",
                if big_ok { "PASS" } else { "FAIL" }
            );
        }

        // --- density sweep: journal-driven sparse ops vs the dense kernel vs
        //     the adaptive dispatcher (the satellite that pins
        //     DENSITY_CROSSOVER_DIVISOR), fused op on a 1 MiB used prefix ---
        println!("\ndensity sweep (fused, 1 MiB used prefix):");
        println!(
            "{:<9} {:<10} {:<9} {:>9} {:>9} {:>12}",
            "density", "layout", "variant", "touched", "iters", "ns/op"
        );
        let densities: &[f64] = match effort {
            Effort::Quick => &[0.002, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5],
            Effort::Standard | Effort::Full => {
                &[0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
            }
        };
        let sweep_size = MIB;
        for &density in densities {
            for layout in ["clustered", "uniform"] {
                let (cur, virgin, slots) =
                    prepare_density_region(sweep_size, density, layout == "clustered");
                // The journal coalesces consecutive touches as they happen; the
                // bench reproduces its encoding offline, outside the timed loop.
                let runs = runs_from_slots(&slots);
                for variant in ["dense", "sparse", "adaptive"] {
                    // Scale iterations by the bytes each variant actually
                    // touches, so the very fast low-density sparse cells still
                    // accumulate measurable wall time.
                    let eff_bytes = match variant {
                        "dense" => sweep_size,
                        "sparse" => slots.len().max(1),
                        _ => match select_path(
                            SparseMode::Auto,
                            true,
                            slots.len(),
                            runs.len(),
                            sweep_size,
                        ) {
                            OpPath::Sparse => slots.len().max(1),
                            OpPath::Dense => sweep_size,
                        },
                    };
                    let iters = (target_bytes / eff_bytes).clamp(8, 1 << 17) as u64;
                    let mut cur_buf = clone_map(&cur);
                    let mut virgin_buf = clone_map(&virgin);
                    let cur_s = cur_buf.as_mut_slice();
                    let virgin_s = virgin_buf.as_mut_slice();
                    run_density_op(variant, dense_table, cur_s, virgin_s, &runs, slots.len());
                    run_density_op(variant, dense_table, cur_s, virgin_s, &runs, slots.len());
                    let t = Instant::now();
                    for _ in 0..iters {
                        run_density_op(variant, dense_table, cur_s, virgin_s, &runs, slots.len());
                    }
                    let elapsed = t.elapsed();
                    let sample = DensitySample {
                        density,
                        layout,
                        variant,
                        touched: slots.len(),
                        iters,
                        ns_per_op: elapsed.as_nanos() as f64 / iters as f64,
                    };
                    println!(
                        "{:<9} {:<10} {:<9} {:>9} {:>9} {:>12.0}",
                        format!("{:.1}%", density * 100.0),
                        sample.layout,
                        sample.variant,
                        sample.touched,
                        sample.iters,
                        sample.ns_per_op
                    );
                    density_samples.push(sample);
                }
            }
        }

        // Crossover: where the sparse walk stops beating the dense kernel,
        // taken from the conservative uniform layout (clustered coverage keeps
        // sparse cheaper for longer) and linearly interpolated between the last
        // winning and first losing grid densities.
        let mut prev: Option<(f64, f64, f64)> = None;
        for &d in densities {
            if let (Some(sp), Some(de)) = (
                find_density_ns(&density_samples, d, "uniform", "sparse"),
                find_density_ns(&density_samples, d, "uniform", "dense"),
            ) {
                if sp >= de {
                    crossover = Some(match prev {
                        // Zero crossing of (sparse - dense) between the grid
                        // points straddling the break-even.
                        Some((pd, psp, pde)) => {
                            let f0 = psp - pde;
                            let f1 = sp - de;
                            pd + (d - pd) * (-f0) / (f1 - f0).max(1e-9)
                        }
                        None => d,
                    });
                    break;
                }
                prev = Some((d, sp, de));
            }
        }
        match crossover {
            Some(d) => println!(
                "\nsparse/dense crossover (uniform layout, interpolated): \
             ~{:.1}% density (divisor ~= {:.0}; configured run divisor {})",
                d * 100.0,
                1.0 / d,
                bigmap_core::sparse::RUN_CROSSOVER_DIVISOR
            ),
            None => println!("\nsparse/dense crossover: not reached in sweep range"),
        }

        speedup_2pct = match (
            find_density_ns(&density_samples, 0.02, "clustered", "dense"),
            find_density_ns(&density_samples, 0.02, "clustered", "sparse"),
        ) {
            (Some(de), Some(sp)) => de / sp,
            _ => 0.0,
        };
        println!(
            "sparse speedup at 2% density (clustered): {speedup_2pct:.2}x \
         — acceptance (>= 5x): {}",
            if speedup_2pct >= 5.0 { "PASS" } else { "FAIL" }
        );

        adaptive_overhead = ["clustered", "uniform"]
            .iter()
            .filter_map(|layout| {
                let ad = find_density_ns(&density_samples, 0.5, layout, "adaptive")?;
                let de = find_density_ns(&density_samples, 0.5, layout, "dense")?;
                Some(ad / de - 1.0)
            })
            .fold(f64::NEG_INFINITY, f64::max);
        println!(
            "adaptive vs dense at 50% density: {:+.1}% — acceptance (<= 3%): {}",
            adaptive_overhead * 100.0,
            if adaptive_overhead <= 0.03 {
                "PASS"
            } else {
                "FAIL"
            }
        );

        let sweep = run_journal_sweep(effort, densities);
        println!(
            "journal gate ({GATE_FOOTPRINT}-slot clustered exec): journaling pays from \
             used prefix {} — configured JOURNAL_MIN_USED {}: {}",
            sweep.gate.map_or("never".to_string(), size_label),
            size_label(JOURNAL_MIN_USED),
            if sweep.gate == Some(JOURNAL_MIN_USED) {
                "PASS"
            } else {
                "FAIL"
            }
        );
        journal = Some(sweep);
    } // if !giant_only

    let giant = run_giant_arm(effort, dense_table);

    let json = render_json(
        effort,
        &kernels,
        &samples,
        reset.as_ref(),
        &speedups,
        &density_samples,
        crossover,
        speedup_2pct,
        adaptive_overhead,
        journal.as_ref(),
        &giant,
    );
    std::fs::write(&out_path, json).expect("write BENCH_mapops.json");
    println!("\nwrote {out_path}");
    // A gate the sweep no longer backs fails the run (after the JSON is
    // written, so the cells behind the verdict are kept).
    if journal.is_some_and(|sweep| sweep.gate != Some(JOURNAL_MIN_USED)) {
        eprintln!("bench_mapops: JOURNAL_MIN_USED disagrees with the measured journal gate");
        std::process::exit(1);
    }
}

/// Everything the reset sweep produces, for the crossover line and the
/// JSON.
struct ResetSweep {
    cells: Vec<ResetSample>,
    /// The swept sizes, ascending.
    sizes: Vec<usize>,
    /// The smallest swept size from which streaming beats the cached reset
    /// there and at every larger swept size; `None` when the cached reset
    /// still wins at the largest.
    crossover: Option<usize>,
}

impl ResetSweep {
    /// Whether `cutoff` picks the faster reset on both sides of the
    /// crossover: at least the largest swept size below it, and below the
    /// crossover itself (at least the largest swept size when streaming
    /// never wins).
    fn brackets(&self, cutoff: usize) -> bool {
        let below = |size: usize| self.sizes.iter().copied().filter(|&s| s < size).max();
        match self.crossover {
            Some(from) => cutoff < from && below(from).is_none_or(|b| b <= cutoff),
            None => self.sizes.last().is_some_and(|&largest| cutoff >= largest),
        }
    }
}

/// The in-loop reset sweep: whole flat-map execs — reset, [`EXEC_RECORDS`]
/// scattered records, fused classify+compare through the active kernel —
/// with a cached `fill(0)` reset against streaming stores, in [`ROUNDS`]
/// alternating rounds per size. A reset-only sweep cannot see what
/// decides the strategy: a cached reset leaves the map's lines in the
/// cache for the fused pass, a streaming one sends them to DRAM first.
fn run_reset_sweep(effort: Effort) -> ResetSweep {
    let sizes: Vec<usize> = match effort {
        Effort::Quick => vec![MIB, 2 * MIB, 4 * MIB, 8 * MIB],
        Effort::Standard | Effort::Full => (0..8).map(|k| MIB << k).collect(),
    };
    // Wall time each strategy of a cell aims for, over all its rounds.
    let cell_ns: f64 = match effort {
        Effort::Quick => 40e6,
        Effort::Standard => 400e6,
        Effort::Full => 1600e6,
    };
    const STRATEGIES: [(&str, usize); 2] = [("cached", usize::MAX), ("stream", 0)];
    println!(
        "\nreset sweep (flat exec: reset + {EXEC_RECORDS} records + fused, per exec; \
         median of {ROUNDS} alternating rounds):"
    );
    println!(
        "{:<7} {:<8} {:>7} {:>12}",
        "size", "reset", "iters", "ns/exec"
    );
    let table = active();
    let mut cells = Vec::new();
    for &size in &sizes {
        let slots = scattered_slots(size, EXEC_RECORDS, 0x5E7 ^ size as u64);
        let mut cur = MapBuffer::<u8>::zeroed(size);
        let mut virgin = MapBuffer::<u8>::filled(size, 0xFF);
        let (cur, virgin) = (cur.as_mut_slice(), virgin.as_mut_slice());
        let mut exec = |cutoff: usize| {
            zero_with_cutoff(cur, cutoff);
            for &slot in &slots {
                cur[slot] = cur[slot].saturating_add(1);
            }
            std::hint::black_box(table.classify_and_compare(cur, virgin));
        };
        let mut iters = [0u64; STRATEGIES.len()];
        let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); STRATEGIES.len()];
        for round in 0..ROUNDS {
            for (v, &(_, cutoff)) in STRATEGIES.iter().enumerate() {
                // A warm-up exec settles the caches for this strategy (and
                // trains the virgin map); the first round also times one
                // exec to size the loop.
                exec(cutoff);
                if round == 0 {
                    let t = Instant::now();
                    exec(cutoff);
                    let one = t.elapsed().as_nanos().max(1) as f64;
                    iters[v] = (cell_ns / ROUNDS as f64 / one).clamp(2.0, 4096.0) as u64;
                }
                let t = Instant::now();
                for _ in 0..iters[v] {
                    exec(cutoff);
                }
                rounds[v].push(t.elapsed().as_nanos() as f64 / iters[v] as f64);
            }
        }
        for ((&(strategy, _), n), mut r) in STRATEGIES.iter().zip(iters).zip(rounds) {
            r.sort_by(f64::total_cmp);
            let sample = ResetSample {
                size,
                strategy,
                iters: n * ROUNDS as u64,
                ns_per_exec: r[r.len() / 2],
            };
            println!(
                "{:<7} {:<8} {:>7} {:>12.0}",
                size_label(size),
                strategy,
                sample.iters,
                sample.ns_per_exec
            );
            cells.push(sample);
        }
    }
    let ns = |size: usize, strategy: &str| {
        cells
            .iter()
            .find(|c| c.size == size && c.strategy == strategy)
            .map(|c| c.ns_per_exec)
    };
    let mut crossover = None;
    for &size in sizes.iter().rev() {
        match (ns(size, "stream"), ns(size, "cached")) {
            (Some(stream), Some(cached)) if stream < cached => crossover = Some(size),
            _ => break,
        }
    }
    ResetSweep {
        cells,
        sizes,
        crossover,
    }
}

/// `count` distinct slots of a `size`-byte map, uniformly scattered, in
/// random order.
fn scattered_slots(size: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut slots: Vec<usize> = Vec::with_capacity(count);
    while slots.len() < count.min(size) {
        let slot = rng.gen_range(0..size);
        if !slots.contains(&slot) {
            slots.push(slot);
        }
    }
    slots
}

/// The last-level cache CPUID reports, for the report lines.
fn llc_label() -> String {
    match last_level_cache() {
        Some(llc) => format!(
            "L{} {} shared by {} threads",
            llc.level,
            size_label(llc.bytes),
            llc.threads
        ),
        None => "no last-level cache reported: fallback".to_string(),
    }
}

/// `record` calls per touched slot in one journal-sweep exec ([`replay`]
/// records every touched key once, then every second one again): what
/// seeds and mutants of sqlite3, zlib (64 KiB, edges) and instcombine
/// (8 MiB, 3-grams) average (1.4–1.5). Only a slot's first call journals;
/// repeats pay the journaled variant's per-event cost alone.
const HITS_PER_SLOT: f64 = 1.5;

/// Slots one exec first-touches in the largest measured program:
/// instcombine's 3-gram campaign on its 8 MiB map averages 1,538 over
/// seeds and mutants (sqlite3 588, zlib 67). The gate cells time execs of
/// this footprint, as 24 clustered runs of 64 slots, at every swept used
/// prefix: the used prefix from which journaling them pays is
/// `JOURNAL_MIN_USED`.
const GATE_FOOTPRINT: usize = 1536;

/// The journal sweep's variants: the journal forced off (plain `record`,
/// dense ops), forced on (journaled `record`, sparse walk when the run
/// count allows), and the shipped `Auto` gate.
const JOURNAL_VARIANTS: [(&str, SparseMode); 3] = [
    ("off", SparseMode::Off),
    ("on", SparseMode::On),
    ("auto", SparseMode::Auto),
];

/// A journal-sweep cell counts as paying when the journaled exec costs at
/// most this share of the plain one. A cell near break-even reads either
/// way from run to run (the 64 KiB gate cell read 0.96–1.13× over four
/// quick runs), and a gate on it would flip with the noise; one sweep
/// step up, at 256 KiB, the journaled exec costs under half of plain.
const PAYS_AT_MOST: f64 = 0.9;

/// Timed rounds per reset-sweep and journal-sweep cell. The variants
/// alternate round by round and each reports its median round, so drift
/// between two variants' timed loops cannot decide a crossover.
const ROUNDS: usize = 5;

/// Everything the journal sweep produces, for the acceptance line and
/// the JSON.
struct JournalSweep {
    /// Used prefix × density × layout × variant.
    grid: Vec<JournalSample>,
    /// Used prefix × variant for a [`GATE_FOOTPRINT`]-slot clustered exec.
    gate_cells: Vec<JournalSample>,
    /// The smallest swept used prefix from which journaling the gate
    /// cells' exec pays over recording it plain.
    gate: Option<usize>,
}

/// The record-inclusive journal sweep: whole execs — `reset`, the exec's
/// `record` calls, fused `classify_and_compare` — on a real `BigMap` whose
/// used prefix is the whole map, with the journal forced off, forced on,
/// and under the shipped `Auto` policy. The grid covers the density
/// sweep's densities and layouts; the gate cells hold the exec footprint
/// fixed ([`GATE_FOOTPRINT`]) so the exec's density falls as the prefix
/// grows, which is what a used-prefix gate can see. Used prefixes start at
/// 4 KiB, among the measured programs' own prefixes (0.2–7 KB), so the
/// gate can land on either side of `JOURNAL_MIN_USED`.
fn run_journal_sweep(effort: Effort, densities: &[f64]) -> JournalSweep {
    let used_sizes: &[usize] = match effort {
        Effort::Quick => &[4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, MIB],
        Effort::Standard | Effort::Full => &[
            4 * KIB,
            16 * KIB,
            64 * KIB,
            256 * KIB,
            MIB,
            4 * MIB,
            16 * MIB,
            64 * MIB,
        ],
    };
    // Wall time each variant of a cell aims for, over all its rounds.
    let cell_ns: f64 = match effort {
        Effort::Quick => 20e6,
        Effort::Standard => 100e6,
        Effort::Full => 400e6,
    };
    println!(
        "\njournal sweep (reset + {HITS_PER_SLOT} records per touched slot + fused, per exec; \
         median of {ROUNDS} alternating rounds):"
    );
    println!(
        "{:<7} {:<8} {:<10} {:<8} {:>9} {:>7} {:>12}",
        "used", "density", "layout", "variant", "touched", "iters", "ns/exec"
    );
    let mut grid: Vec<JournalSample> = Vec::new();
    let mut gate_cells: Vec<JournalSample> = Vec::new();
    for &used in used_sizes {
        let size = MapSize::new(used).expect("swept used prefixes are valid map sizes");
        let mut map = BigMap::new(size).expect("valid map size");
        // Key k gets slot k, so the layouts' slot lists are also key lists.
        for key in 0..used as u32 {
            map.record(key);
        }
        let mut virgin = VirginState::new(size);
        for &density in densities {
            for layout in ["clustered", "uniform"] {
                let (_, _, keys) = prepare_density_region(used, density, layout == "clustered");
                grid.extend(journal_cell(
                    &mut map,
                    &mut virgin,
                    &keys,
                    density,
                    layout,
                    cell_ns,
                ));
            }
        }
        // The gate cells hold the footprint, so their density falls as the
        // prefix grows.
        let keys = footprint_keys(used);
        let density = keys.len() as f64 / used as f64;
        gate_cells.extend(journal_cell(
            &mut map,
            &mut virgin,
            &keys,
            density,
            "clustered",
            cell_ns,
        ));
    }

    let gate = journal_pays_from(&gate_cells);
    JournalSweep {
        grid,
        gate_cells,
        gate,
    }
}

/// Times whole execs of `keys` on `map` (its whole allocation is the used
/// prefix) under each of [`JOURNAL_VARIANTS`], in [`ROUNDS`]
/// alternating rounds, and prints one row per variant: the timed execs and
/// the median round's ns per exec.
fn journal_cell(
    map: &mut BigMap,
    virgin: &mut VirginState,
    keys: &[u32],
    density: f64,
    layout: &'static str,
    cell_ns: f64,
) -> Vec<JournalSample> {
    let mut iters = [0u64; JOURNAL_VARIANTS.len()];
    let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); JOURNAL_VARIANTS.len()];
    for round in 0..ROUNDS {
        for (v, &(_, mode)) in JOURNAL_VARIANTS.iter().enumerate() {
            map.set_sparse_override(Some(mode));
            // A warm-up exec trains the virgin map and lets the next
            // reset settle the journaling decision; the first round also
            // times one exec to size the loop.
            journal_exec(map, virgin, keys);
            if round == 0 {
                let t = Instant::now();
                journal_exec(map, virgin, keys);
                let one = t.elapsed().as_nanos().max(1) as f64;
                iters[v] = (cell_ns / ROUNDS as f64 / one).clamp(2.0, 4096.0) as u64;
            }
            let t = Instant::now();
            for _ in 0..iters[v] {
                journal_exec(map, virgin, keys);
            }
            rounds[v].push(t.elapsed().as_nanos() as f64 / iters[v] as f64);
        }
    }
    let used = map.used_len();
    JOURNAL_VARIANTS
        .iter()
        .zip(iters)
        .zip(rounds)
        .map(|((&(variant, _), n), mut r)| {
            r.sort_by(f64::total_cmp);
            let sample = JournalSample {
                used,
                density,
                layout,
                variant,
                touched: keys.len(),
                iters: n * ROUNDS as u64,
                ns_per_exec: r[r.len() / 2],
            };
            println!(
                "{:<7} {:<8} {:<10} {:<8} {:>9} {:>7} {:>12.0}",
                size_label(used),
                format!("{:.2}%", density * 100.0),
                layout,
                variant,
                sample.touched,
                sample.iters,
                sample.ns_per_exec
            );
            sample
        })
        .collect()
}

/// One journal-sweep exec, recorded through the exec's own `record` path
/// as the executor's trace sink does.
fn journal_exec(map: &mut BigMap, virgin: &mut VirginState, keys: &[u32]) {
    map.reset();
    match map.recorder() {
        Recorder::Plain(mut r) => replay(keys, |k| r.record(k)),
        Recorder::Journaled(mut r) => replay(keys, |k| r.record(k)),
    }
    std::hint::black_box(map.classify_and_compare(virgin));
}

/// One journal-sweep exec's records: every touched key once, then every
/// second one again ([`HITS_PER_SLOT`]).
#[inline]
fn replay(keys: &[u32], mut record: impl FnMut(u32)) {
    for &k in keys {
        record(k);
    }
    for &k in keys.iter().step_by(2) {
        record(k);
    }
}

/// The gate cells' keys: [`GATE_FOOTPRINT`] slots of a `used`-slot prefix
/// as distinct 64-slot runs in random order, like the clustered layout.
fn footprint_keys(used: usize) -> Vec<u32> {
    const RUN: usize = 64;
    let mut rng = SmallRng::seed_from_u64(0x6A7E ^ used as u64);
    let mut blocks: Vec<u32> = (0..(used / RUN) as u32).collect();
    let mut keys = Vec::with_capacity(GATE_FOOTPRINT);
    for i in 0..GATE_FOOTPRINT / RUN {
        let j = rng.gen_range(i..blocks.len());
        blocks.swap(i, j);
        let base = blocks[i] as usize * RUN;
        keys.extend((base..base + RUN).map(|s| s as u32));
    }
    keys
}

/// The smallest swept used prefix from which journaling (`on`) pays over
/// recording plain (`off`, see [`PAYS_AT_MOST`]) there and at every larger
/// swept prefix; `None` when it does not pay at the largest.
fn journal_pays_from(cells: &[JournalSample]) -> Option<usize> {
    let ns = |used: usize, variant: &str| {
        cells
            .iter()
            .find(|s| s.used == used && s.variant == variant)
            .map(|s| s.ns_per_exec)
    };
    let mut sizes: Vec<usize> = cells.iter().map(|s| s.used).collect();
    sizes.dedup();
    let mut from = None;
    for &used in sizes.iter().rev() {
        match (ns(used, "on"), ns(used, "off")) {
            (Some(on), Some(off)) if on <= PAYS_AT_MOST * off => from = Some(used),
            _ => break,
        }
    }
    from
}

/// The giant-map arm: fused map ops at 64 MiB → 1 GiB under each
/// huge-page policy, a uniform-layout crossover re-measurement at the
/// giant sizes, and the cache-simulator locality cross-check.
///
/// The active set is held at the paper-realistic count (~2% of the
/// largest evaluated 64 MiB map) across every size: growing the map
/// spreads a program's fixed edge population thinner, it does not invent
/// new edges. Dense cost therefore scales with the map while sparse cost
/// tracks the touched set, and the huge-page backends shift the dense
/// slope — exactly the regime the size-aware policy has to navigate.
fn run_giant_arm(effort: Effort, dense_table: &bigmap_core::KernelTable) -> GiantArm {
    let giant_sizes: &[usize] = match effort {
        Effort::Quick => &[64 * MIB],
        Effort::Standard | Effort::Full => &[64 * MIB, 256 * MIB, 1024 * MIB],
    };
    let giant_target: usize = match effort {
        Effort::Quick => 512 * MIB,
        Effort::Standard => 4096 * MIB,
        Effort::Full => 16384 * MIB,
    };
    // ~2% of 64 MiB, in whole 64-slot clusters.
    let giant_touched = (64 * MIB / 50) / 64 * 64;
    let policies = [HugePolicy::Explicit, HugePolicy::Off];

    println!("\ngiant arm (fused, constant {giant_touched}-slot active set):");
    println!(
        "{:<9} {:<9} {:<12} {:<9} {:>7} {:>14}",
        "size", "policy", "served", "variant", "iters", "ns/op"
    );
    let mut giant_samples: Vec<GiantSample> = Vec::new();
    for &size in giant_sizes {
        let density = giant_touched as f64 / size as f64;
        let (cur, virgin, slots) = prepare_density_region(size, density, true);
        let runs = runs_from_slots(&slots);
        for policy in policies {
            for variant in ["dense", "sparse", "adaptive"] {
                let eff_bytes = match variant {
                    "dense" => size,
                    "sparse" => slots.len().max(1),
                    _ => match select_path(SparseMode::Auto, true, slots.len(), runs.len(), size) {
                        OpPath::Sparse => slots.len().max(1),
                        OpPath::Dense => size,
                    },
                };
                let iters = (giant_target / eff_bytes).clamp(3, 4096) as u64;
                // The timed buffers are allocated under the policy being
                // measured; the prepared source pair stays on the ambient
                // policy and only feeds the copies.
                let sample = with_huge_policy(policy, || {
                    let mut cur_buf = clone_map(&cur);
                    let mut virgin_buf = clone_map(&virgin);
                    let served = cur_buf.backend().label();
                    let fell_back = cur_buf.fell_back();
                    let cur_s = cur_buf.as_mut_slice();
                    let virgin_s = virgin_buf.as_mut_slice();
                    run_density_op(variant, dense_table, cur_s, virgin_s, &runs, slots.len());
                    run_density_op(variant, dense_table, cur_s, virgin_s, &runs, slots.len());
                    let t = Instant::now();
                    for _ in 0..iters {
                        run_density_op(variant, dense_table, cur_s, virgin_s, &runs, slots.len());
                    }
                    let elapsed = t.elapsed();
                    GiantSample {
                        size,
                        policy: policy.label(),
                        served,
                        fell_back,
                        variant,
                        touched: slots.len(),
                        iters,
                        ns_per_op: elapsed.as_nanos() as f64 / iters as f64,
                    }
                });
                println!(
                    "{:<9} {:<9} {:<12} {:<9} {:>7} {:>14.0}",
                    size_label(size),
                    sample.policy,
                    format!(
                        "{}{}",
                        sample.served,
                        if sample.fell_back { "(fb)" } else { "" }
                    ),
                    sample.variant,
                    sample.iters,
                    sample.ns_per_op
                );
                giant_samples.push(sample);
            }
        }
    }

    // Acceptance: adaptive per-exec cost at the giant sizes vs 64 MiB,
    // per allocation policy.
    for policy in ["explicit", "off"] {
        if let Some(base) = find_giant_ns(&giant_samples, 64 * MIB, policy, "adaptive") {
            for &size in giant_sizes.iter().filter(|&&s| s > 64 * MIB) {
                if let Some(g) = find_giant_ns(&giant_samples, size, policy, "adaptive") {
                    let ratio = g / base;
                    println!(
                        "  adaptive {} vs 64M per-exec cost [{policy}]: {ratio:.2}x — acceptance (<= 2x): {}",
                        size_label(size),
                        if ratio <= 2.0 { "PASS" } else { "FAIL" }
                    );
                }
            }
        }
    }
    // Headline: explicit huge pages vs forced-plain pages on the dense arm.
    for &size in giant_sizes {
        if let (Some(e), Some(o)) = (
            find_giant_ns(&giant_samples, size, "explicit", "dense"),
            find_giant_ns(&giant_samples, size, "off", "dense"),
        ) {
            println!(
                "  dense arm at {}: explicit {e:.0} ns vs off {o:.0} ns — {:.2}x",
                size_label(size),
                o / e
            );
        }
    }

    // Uniform-layout crossover re-measurement at the giant sizes (the
    // number behind GIANT_RUN_CROSSOVER_DIVISOR). Quick mode skips it —
    // the per-byte region preparation dominates CI time.
    let cross_sizes: &[usize] = match effort {
        Effort::Quick => &[],
        Effort::Standard | Effort::Full => &[256 * MIB, 1024 * MIB],
    };
    let mut divisors: Vec<(usize, f64)> = Vec::new();
    if !cross_sizes.is_empty() {
        println!("\ngiant sparse/dense crossover (uniform singleton runs):");
    }
    for &size in cross_sizes {
        // Densities bracketing the expected break-even (divisor 32–128).
        let densities = [1.0 / 128.0, 1.0 / 96.0, 1.0 / 64.0, 1.0 / 48.0, 1.0 / 32.0];
        let mut prev: Option<(f64, f64, f64)> = None;
        let mut cross: Option<f64> = None;
        for &d in &densities {
            let (cur, virgin, slots) = prepare_density_region(size, d, false);
            let runs = runs_from_slots(&slots);
            let cell = |variant: &'static str| -> f64 {
                let eff = if variant == "dense" {
                    size
                } else {
                    slots.len().max(1)
                };
                let iters = (giant_target / eff).clamp(3, 1024) as u64;
                let mut cur_buf = clone_map(&cur);
                let mut virgin_buf = clone_map(&virgin);
                let cur_s = cur_buf.as_mut_slice();
                let virgin_s = virgin_buf.as_mut_slice();
                run_density_op(variant, dense_table, cur_s, virgin_s, &runs, slots.len());
                let t = Instant::now();
                for _ in 0..iters {
                    run_density_op(variant, dense_table, cur_s, virgin_s, &runs, slots.len());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            };
            let de = cell("dense");
            let sp = cell("sparse");
            println!(
                "  {:>9} 1/{:<4.0} sparse {sp:>13.0} ns  dense {de:>13.0} ns  {}",
                size_label(size),
                1.0 / d,
                if sp < de { "sparse wins" } else { "dense wins" }
            );
            if sp >= de {
                cross = Some(match prev {
                    Some((pd, psp, pde)) => {
                        let f0 = psp - pde;
                        let f1 = sp - de;
                        pd + (d - pd) * (-f0) / (f1 - f0).max(1e-9)
                    }
                    None => d,
                });
                break;
            }
            prev = Some((d, sp, de));
        }
        match cross {
            Some(d) => {
                let divisor = 1.0 / d;
                println!(
                    "  {} crossover ~1/{divisor:.0} (divisor ~= {divisor:.0}; configured giant divisor {})",
                    size_label(size),
                    bigmap_core::sparse::GIANT_RUN_CROSSOVER_DIVISOR
                );
                divisors.push((size, divisor));
            }
            None => println!(
                "  {} crossover: not reached in sweep range",
                size_label(size)
            ),
        }
    }

    // Cache-simulator cross-check: the locality model predicts the scan
    // cost ratio between the flat structure (whole-map walk) and BigMap's
    // condensed prefix; the measured dense/sparse fused ratio on the
    // plain-page (`off`) arm is the silicon-side number it must agree with
    // on direction.
    println!("\ncache-simulator locality cross-check (scan accesses/exec):");
    println!(
        "{:<9} {:>14} {:>14} {:>10} {:>10} {:>10} {:>7}",
        "size", "flat", "bigmap", "pred", "measured", "flat-dead", "agree"
    );
    let mut checks: Vec<CacheCheck> = Vec::new();
    for &size in giant_sizes {
        let workload = TraceWorkload {
            map_size: size,
            active_keys: giant_touched,
            events_per_exec: 8_000,
            // The whole-map scan dominates simulation cost at giant sizes;
            // one execution is enough for the (cold, cache-busting) ratio.
            executions: if size >= 512 * MIB { 1 } else { 2 },
            seed: 0xB16_3A9,
        };
        let flat = trace_flat(&workload);
        let big = trace_bigmap(&workload);
        let scan_apc = |rows: &[bigmap_cache::TraceRow]| -> f64 {
            rows.iter()
                .filter(|r| r.op == TracedOp::Others)
                .map(|r| r.accesses_per_exec)
                .sum()
        };
        let flat_scan_apc = scan_apc(&flat);
        let bigmap_scan_apc = scan_apc(&big);
        let flat_dead = flat
            .iter()
            .find(|r| r.op == TracedOp::Others)
            .map_or(0.0, |r| r.dead_byte_fraction);
        let predicted_ratio = flat_scan_apc / bigmap_scan_apc.max(1.0);
        let measured_dense_ns = find_giant_ns(&giant_samples, size, "off", "dense").unwrap_or(0.0);
        let measured_sparse_ns =
            find_giant_ns(&giant_samples, size, "off", "sparse").unwrap_or(0.0);
        let measured_ratio = if measured_sparse_ns > 0.0 {
            measured_dense_ns / measured_sparse_ns
        } else {
            0.0
        };
        let agree = (predicted_ratio > 1.0) == (measured_ratio > 1.0);
        println!(
            "{:<9} {:>14.0} {:>14.0} {:>9.1}x {:>9.1}x {:>9.1}% {:>7}",
            size_label(size),
            flat_scan_apc,
            bigmap_scan_apc,
            predicted_ratio,
            measured_ratio,
            flat_dead * 100.0,
            if agree { "yes" } else { "NO" }
        );
        checks.push(CacheCheck {
            size,
            flat_scan_apc,
            bigmap_scan_apc,
            predicted_ratio,
            flat_dead,
            measured_dense_ns,
            measured_sparse_ns,
            measured_ratio,
            agree,
        });
    }

    GiantArm {
        touched: giant_touched,
        samples: giant_samples,
        divisors,
        checks,
    }
}

/// Times `iters` calls of `op_fn` after two warm-up calls (which fault
/// pages in and settle the branch predictors), prints the row and returns
/// it.
fn measure(
    op: &'static str,
    variant: &str,
    coverage: Coverage,
    size: usize,
    iters: u64,
    mut op_fn: impl FnMut(),
) -> Sample {
    op_fn();
    op_fn();
    let t = Instant::now();
    for _ in 0..iters {
        op_fn();
    }
    let elapsed = t.elapsed();
    let sample = Sample {
        op,
        variant: variant.to_string(),
        coverage: coverage.label(),
        size,
        iters,
        ns_per_op: elapsed.as_nanos() as f64 / iters as f64,
        gib_per_s: (size as u64 * iters) as f64
            / elapsed.as_secs_f64().max(1e-12)
            / (1u64 << 30) as f64,
    };
    println!(
        "{:<10} {:<9} {:<8} {:>9} {:>12.0} {:>10.2}",
        sample.op,
        sample.variant,
        sample.coverage,
        size_label(size),
        sample.ns_per_op,
        sample.gib_per_s
    );
    sample
}

fn find_giant_ns(samples: &[GiantSample], size: usize, policy: &str, variant: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.size == size && s.policy == policy && s.variant == variant)
        .map(|s| s.ns_per_op)
}

/// Parses `--out <path>` / `--out=<path>`; defaults to `BENCH_mapops.json`.
fn out_path_from_args() -> String {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        if let Some(path) = arg.strip_prefix("--out=") {
            return path.to_string();
        }
        if arg == "--out" {
            if let Some(path) = args.get(i + 1) {
                return path.clone();
            }
        }
    }
    "BENCH_mapops.json".to_string()
}

/// Builds a steady-state (cur, virgin) pair for one region size and
/// coverage, counts at bucket fixed points, virgin trained on cur so timed
/// compares take the no-new-coverage path and leave virgin unchanged.
fn prepare_region(size: usize, coverage: Coverage) -> (MapBuffer<u8>, MapBuffer<u8>) {
    let mut rng = SmallRng::seed_from_u64(0xB16_3A9 ^ size as u64);
    let mut cur = MapBuffer::<u8>::zeroed(size);
    {
        let slice = cur.as_mut_slice();
        match coverage {
            Coverage::Uniform2Pct => {
                for byte in slice.iter_mut() {
                    if rng.gen_bool(0.02) {
                        *byte = rng.gen_range(1u8..=255);
                    }
                }
            }
            Coverage::Footprint => {
                for slot in scattered_slots(size, EXEC_RECORDS, rng.gen()) {
                    slice[slot] = rng.gen_range(1u8..=255);
                }
            }
        }
        // Fixed point: classifying classified data twice is a no-op
        // (buckets land on {0, 1, 2, 64, 128} after two passes), so every
        // timed classify iteration does identical work.
        classify_slice(slice);
        classify_slice(slice);
    }
    let mut virgin = MapBuffer::<u8>::filled(size, 0xFF);
    let _ = bigmap_core::diff::compare_region(cur.as_slice(), virgin.as_mut_slice());
    (cur, virgin)
}

/// Builds a steady-state (cur, virgin, journal slots) triple at the given
/// nonzero density for the density sweep.
///
/// `clustered` places coverage as runs of 64 consecutive condensed slots in
/// shuffled run order — condensation assigns slots in discovery order, so
/// edges exercised together land adjacently, which is what real campaigns
/// produce. The uniform layout scatters single bytes and is the worst case
/// for the journal walk (every touch is a fresh cache line), so the
/// crossover is taken from it.
fn prepare_density_region(
    size: usize,
    density: f64,
    clustered: bool,
) -> (MapBuffer<u8>, MapBuffer<u8>, Vec<u32>) {
    let mut rng = SmallRng::seed_from_u64(
        0xD3_7517 ^ size as u64 ^ ((density * 1e6) as u64) ^ ((clustered as u64) << 40),
    );
    let mut cur = MapBuffer::<u8>::zeroed(size);
    let mut slots: Vec<u32> = Vec::new();
    {
        let slice = cur.as_mut_slice();
        if clustered {
            const RUN: usize = 64;
            let n_blocks = size / RUN;
            let want = (((size as f64 * density) as usize) / RUN).clamp(1, n_blocks);
            // Fisher–Yates prefix: `want` distinct blocks in random order,
            // mimicking the journal's first-touch ordering across runs.
            let mut blocks: Vec<u32> = (0..n_blocks as u32).collect();
            for i in 0..want {
                let j = rng.gen_range(i..n_blocks);
                blocks.swap(i, j);
                let base = blocks[i] as usize * RUN;
                for (s, byte) in slice.iter_mut().enumerate().skip(base).take(RUN) {
                    *byte = rng.gen_range(1u8..=255);
                    slots.push(s as u32);
                }
            }
        } else {
            for (i, byte) in slice.iter_mut().enumerate() {
                if rng.gen_bool(density) {
                    *byte = rng.gen_range(1u8..=255);
                    slots.push(i as u32);
                }
            }
        }
        // Same fixed-point trick as `prepare_region`.
        classify_slice(slice);
        classify_slice(slice);
    }
    let mut virgin = MapBuffer::<u8>::filled(size, 0xFF);
    let _ = bigmap_core::diff::compare_region(cur.as_slice(), virgin.as_mut_slice());
    (cur, virgin, slots)
}

#[inline]
fn run_density_op(
    variant: &str,
    table: &bigmap_core::KernelTable,
    cur: &mut [u8],
    virgin: &mut [u8],
    runs: &[SlotRun],
    touched: usize,
) {
    match variant {
        "dense" => {
            let _ = table.classify_and_compare(cur, virgin);
        }
        "sparse" => {
            let _ = classify_and_compare_runs(cur, virgin, runs, table);
        }
        // The adaptive cell pays the real per-exec dispatch cost: a
        // `select_path` call in front of whichever path it picks.
        "adaptive" => match select_path(SparseMode::Auto, true, touched, runs.len(), cur.len()) {
            OpPath::Sparse => {
                let _ = classify_and_compare_runs(cur, virgin, runs, table);
            }
            OpPath::Dense => {
                let _ = table.classify_and_compare(cur, virgin);
            }
        },
        _ => unreachable!("unknown density variant {variant}"),
    }
}

fn find_density_ns(
    samples: &[DensitySample],
    density: f64,
    layout: &str,
    variant: &str,
) -> Option<f64> {
    samples
        .iter()
        .find(|s| (s.density - density).abs() < 1e-9 && s.layout == layout && s.variant == variant)
        .map(|s| s.ns_per_op)
}

fn clone_map(src: &MapBuffer<u8>) -> MapBuffer<u8> {
    let mut dst = MapBuffer::<u8>::zeroed(src.len());
    dst.as_mut_slice().copy_from_slice(src.as_slice());
    dst
}

#[inline]
fn run_op(op: &str, table: &bigmap_core::KernelTable, cur: &mut [u8], virgin: &mut [u8]) {
    match op {
        "classify" => table.classify(cur),
        "compare" => {
            let _ = table.compare(cur, virgin);
        }
        "fused" => {
            let _ = table.classify_and_compare(cur, virgin);
        }
        _ => unreachable!("unknown op {op}"),
    }
}

/// ns/op of the 2%-coverage row for `op` and `variant` at `size`.
fn find_ns(samples: &[Sample], op: &str, variant: &str, size: usize) -> Option<f64> {
    samples
        .iter()
        .find(|s| {
            s.op == op
                && s.variant == variant
                && s.size == size
                && s.coverage == Coverage::Uniform2Pct.label()
        })
        .map(|s| s.ns_per_op)
}

fn size_label(size: usize) -> String {
    if size >= MIB && !size.is_multiple_of(MIB) {
        format!("{:.1}M", size as f64 / MIB as f64)
    } else if size >= MIB {
        format!("{}M", size / MIB)
    } else {
        format!("{}K", size / KIB)
    }
}

/// Hand-rolled JSON (the workspace deliberately carries no serde).
#[allow(clippy::too_many_arguments)]
fn render_json(
    effort: Effort,
    kernels: &[KernelKind],
    samples: &[Sample],
    reset: Option<&ResetSweep>,
    speedups: &[(usize, f64)],
    density_samples: &[DensitySample],
    crossover: Option<f64>,
    speedup_2pct: f64,
    adaptive_overhead: f64,
    journal: Option<&JournalSweep>,
    giant: &GiantArm,
) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"bench_mapops\",");
    let _ = writeln!(out, "  \"mode\": \"{}\",", effort.label());
    let _ = writeln!(out, "  \"stream_cutoff\": {},", stream_cutoff());
    match last_level_cache() {
        Some(llc) => {
            let _ = writeln!(
                out,
                "  \"llc\": {{\"level\": {}, \"bytes\": {}, \"threads\": {}}},",
                llc.level, llc.bytes, llc.threads
            );
        }
        None => {
            let _ = writeln!(out, "  \"llc\": null,");
        }
    }
    let kernel_list = kernels
        .iter()
        .map(|k| format!("\"{}\"", k.label()))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "  \"kernels\": [{kernel_list}],");
    out.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"op\": \"{}\", \"variant\": \"{}\", \"coverage\": \"{}\", \
             \"size\": {}, \"iters\": {}, \"ns_per_op\": {:.1}, \"gib_per_s\": {:.3}}}",
            s.op, s.variant, s.coverage, s.size, s.iters, s.ns_per_op, s.gib_per_s
        );
        out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let (cells, reset_crossover): (&[ResetSample], _) = match reset {
        Some(sweep) => (&sweep.cells, sweep.crossover),
        None => (&[], None),
    };
    let _ = writeln!(out, "  \"reset_exec_records\": {EXEC_RECORDS},");
    out.push_str("  \"reset_results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"size\": {}, \"strategy\": \"{}\", \"iters\": {}, \"ns_per_exec\": {:.1}}}",
            c.size, c.strategy, c.iters, c.ns_per_exec
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"reset_crossover\": {},",
        reset_crossover.map_or("null".to_string(), |c| c.to_string())
    );
    out.push_str("  \"density_results\": [\n");
    for (i, s) in density_samples.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"density\": {}, \"layout\": \"{}\", \"variant\": \"{}\", \
             \"touched\": {}, \"iters\": {}, \"ns_per_op\": {:.1}}}",
            s.density, s.layout, s.variant, s.touched, s.iters, s.ns_per_op
        );
        out.push_str(if i + 1 < density_samples.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    match crossover {
        Some(d) => {
            let _ = writeln!(out, "  \"sparse_crossover_density\": {d},");
        }
        None => {
            let _ = writeln!(out, "  \"sparse_crossover_density\": null,");
        }
    }
    let _ = writeln!(
        out,
        "  \"sparse_speedup_at_2pct_clustered\": {speedup_2pct:.2},"
    );
    let _ = writeln!(
        out,
        "  \"adaptive_overhead_at_50pct\": {adaptive_overhead:.4},"
    );
    let (grid, gate_cells, gate): (&[JournalSample], &[JournalSample], _) = match journal {
        Some(sweep) => (&sweep.grid, &sweep.gate_cells, sweep.gate),
        None => (&[], &[], None),
    };
    let _ = writeln!(out, "  \"journal_hits_per_slot\": {HITS_PER_SLOT},");
    push_journal_rows(&mut out, "journal_results", grid);
    let _ = writeln!(out, "  \"journal_gate_footprint\": {GATE_FOOTPRINT},");
    push_journal_rows(&mut out, "journal_gate_results", gate_cells);
    let _ = writeln!(
        out,
        "  \"journal_gate_used\": {},",
        gate.map_or("null".to_string(), |u| u.to_string())
    );
    let _ = writeln!(out, "  \"journal_min_used\": {JOURNAL_MIN_USED},");
    let _ = writeln!(out, "  \"giant_touched\": {},", giant.touched);
    out.push_str("  \"giant_results\": [\n");
    for (i, s) in giant.samples.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"size\": {}, \"policy\": \"{}\", \"served\": \"{}\", \
             \"fell_back\": {}, \"variant\": \"{}\", \"touched\": {}, \
             \"iters\": {}, \"ns_per_op\": {:.1}}}",
            s.size, s.policy, s.served, s.fell_back, s.variant, s.touched, s.iters, s.ns_per_op
        );
        out.push_str(if i + 1 < giant.samples.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"giant_crossover_divisors\": {");
    let entries = giant
        .divisors
        .iter()
        .map(|(size, d)| format!("\"{size}\": {d:.1}"))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&entries);
    out.push_str("},\n");
    let _ = writeln!(
        out,
        "  \"giant_configured_divisor\": {},",
        bigmap_core::sparse::GIANT_RUN_CROSSOVER_DIVISOR
    );
    out.push_str("  \"cache_crosscheck\": [\n");
    for (i, c) in giant.checks.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"size\": {}, \"flat_scan_accesses_per_exec\": {:.0}, \
             \"bigmap_scan_accesses_per_exec\": {:.0}, \
             \"predicted_scan_ratio\": {:.2}, \"flat_dead_byte_fraction\": {:.4}, \
             \"measured_dense_ns\": {:.1}, \"measured_sparse_ns\": {:.1}, \
             \"measured_dense_over_sparse\": {:.2}, \"agree\": {}}}",
            c.size,
            c.flat_scan_apc,
            c.bigmap_scan_apc,
            c.predicted_ratio,
            c.flat_dead,
            c.measured_dense_ns,
            c.measured_sparse_ns,
            c.measured_ratio,
            c.agree
        );
        out.push_str(if i + 1 < giant.checks.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"fused_avx2_speedup_vs_scalar\": {");
    let entries = speedups
        .iter()
        .map(|(size, s)| format!("\"{size}\": {s:.2}"))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&entries);
    out.push_str("}\n}\n");
    out
}

/// One JSON array of journal-sweep cells, keyed `key`.
fn push_journal_rows(out: &mut String, key: &str, rows: &[JournalSample]) {
    let _ = writeln!(out, "  \"{key}\": [");
    for (i, s) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"used\": {}, \"density\": {}, \"layout\": \"{}\", \"variant\": \"{}\", \
             \"touched\": {}, \"iters\": {}, \"ns_per_exec\": {:.1}}}",
            s.used, s.density, s.layout, s.variant, s.touched, s.iters, s.ns_per_exec
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
}
