//! Two-speed execution: throughput of always-trace vs selective tracing
//! on trace-heavy arms.
//!
//! Selective tracing (`CampaignConfig::trace` set to
//! `TraceMode::Selective`) runs most test cases through the untraced fast
//! interpreter and re-traces only the ones the novelty oracle cannot
//! prove boring. The win is largest exactly where
//! tracing hurts most — the flat AFL map at large sizes, where every
//! traced exec also pays whole-map classify/compare. This harness measures
//! both modes on the same arms and attributes the gap with the
//! `fast_path_execs` / `retrace_execs` / `replay_skips` telemetry
//! counters.
//!
//! The comparison is throughput-only by construction: the coverage
//! trajectory itself is mode-invariant (see the policy-product matrix in
//! `tests/kernel_trajectory.rs`).

use std::sync::Arc;

use bigmap_analytics::{geometric_mean, TextTable};
use bigmap_bench::{report_header, Effort, PreparedBenchmark};
use bigmap_core::{MapScheme, MapSize};
use bigmap_coverage::MetricKind;
use bigmap_fuzzer::{Budget, Campaign, CampaignConfig, Telemetry, TelemetryEvent, TraceMode};
use bigmap_target::{BenchmarkSpec, Interpreter};

/// One scheme × map-size arm. Flat at large sizes is the trace-heavy
/// regime the ≥2x acceptance target applies to (judged at standard scale
/// and above); the two-level arm shows the (smaller) gain that remains
/// once BigMap has already condensed the map ops.
const ARMS: [(MapScheme, MapSize, bool); 3] = [
    (MapScheme::Flat, MapSize::M2, true),
    (MapScheme::Flat, MapSize::M8, true),
    (MapScheme::TwoLevel, MapSize::M8, false),
];

/// Per-arm wall budget: 4x the harness default. The fast path only fires
/// on paths the oracle has already seen traced, so each selective run
/// pays an always-trace warm-up before its throughput climbs; arms short
/// enough to be all warm-up would understate the steady-state gap.
fn arm_budget(effort: Effort) -> std::time::Duration {
    effort.arm_budget() * 4
}

struct ModeResult {
    throughput: f64,
    execs: u64,
    fast: u64,
    retraced: u64,
    replayed: u64,
}

fn run_mode(
    prepared: &PreparedBenchmark,
    scheme: MapScheme,
    mode: TraceMode,
    runs: usize,
    budget_each: std::time::Duration,
) -> ModeResult {
    let mut total_throughput = 0.0;
    let mut execs = 0;
    let mut fast = 0;
    let mut retraced = 0;
    let mut replayed = 0;
    for r in 0..runs {
        let interpreter = Interpreter::new(&prepared.program);
        let mut campaign = Campaign::new(
            CampaignConfig {
                scheme,
                map_size: prepared.instrumentation.map_size(),
                metric: MetricKind::Edge,
                budget: Budget::Time(budget_each),
                mutations_per_seed: 512,
                deterministic: false,
                merged_classify_compare: true,
                dictionary: Vec::new(),
                trim_new_entries: false,
                seed: 0x5EED + r as u64,
                hang_budget: None,
                sparse: None,
                trace: Some(mode),
                interp: None,
            },
            &interpreter,
            &prepared.instrumentation,
        );
        let tel = Arc::new(Telemetry::new(0));
        campaign.set_telemetry(Arc::clone(&tel));
        campaign.add_seeds(prepared.seeds.clone());
        let stats = campaign.run();
        total_throughput += stats.throughput();
        execs += tel.get(TelemetryEvent::Exec);
        fast += tel.get(TelemetryEvent::FastPathExec);
        retraced += tel.get(TelemetryEvent::RetraceExec);
        replayed += tel.get(TelemetryEvent::ReplaySkip);
    }
    ModeResult {
        throughput: total_throughput / runs.max(1) as f64,
        execs,
        fast,
        retraced,
        replayed,
    }
}

fn main() {
    let effort = Effort::from_args();
    report_header(
        "Two-speed execution — always-trace vs selective tracing throughput",
        effort,
        "speedup = selective / always execs/sec on the same arm; fast%, \
         retrace% and replay% partition selective-mode execs into fast-path \
         skips, re-traces and full replays of the scheduled parent dismissed \
         before the fast pass (their sum is 100% by the telemetry \
         invariant); per-arm budget is 4x the header figure so selective \
         runs get past the oracle warm-up",
    );

    let runs = if effort == Effort::Quick { 1 } else { 2 };
    // Trace-heavy targets are the *cheap* ones (small static edge counts):
    // the fast pass still executes the target untraced, so the speedup
    // ceiling is (exec + trace + map ops) / exec — highest where the
    // target's own execution is a small share of the traced cost. sqlite3
    // rides along as the exec-heavy control: its execution dominates, so
    // selective tracing is expected to be roughly throughput-neutral
    // there, and its arms are excluded from the acceptance geomean.
    let heavy_names: &[&str] = if effort == Effort::Quick {
        &["zlib", "libpng"]
    } else {
        &["zlib", "libpng", "proj4"]
    };
    let benchmarks: Vec<(BenchmarkSpec, bool)> = heavy_names
        .iter()
        .map(|name| (BenchmarkSpec::by_name(name).unwrap(), true))
        .chain(std::iter::once((
            BenchmarkSpec::by_name("sqlite3").unwrap(),
            false,
        )))
        .collect();

    let mut table = TextTable::new(vec![
        "benchmark",
        "arm",
        "always e/s",
        "selective e/s",
        "speedup",
        "fast%",
        "retrace%",
        "replay%",
    ]);
    let mut heavy_speedups = Vec::new();
    let mut twolevel_speedups = Vec::new();
    let mut control_speedups = Vec::new();

    for (spec, cheap_target) in &benchmarks {
        for &(scheme, size, flat_arm) in &ARMS {
            let prepared = PreparedBenchmark::build(spec, size, effort);
            let budget_each = arm_budget(effort);
            let always = run_mode(&prepared, scheme, TraceMode::Always, runs, budget_each);
            let selective = run_mode(&prepared, scheme, TraceMode::Selective, runs, budget_each);
            assert_eq!(
                always.fast + always.retraced,
                0,
                "always-trace arms must never touch the fast path"
            );
            assert_eq!(
                selective.fast + selective.retraced + selective.replayed,
                selective.execs,
                "selective execs must partition into fast-path + re-traced + replay-skipped"
            );
            let speedup = selective.throughput / always.throughput.max(1e-9);
            match (cheap_target, flat_arm) {
                (true, true) => heavy_speedups.push(speedup),
                (true, false) => twolevel_speedups.push(speedup),
                (false, _) => control_speedups.push(speedup),
            }
            let pct = |n: u64| 100.0 * n as f64 / selective.execs.max(1) as f64;
            table.row(vec![
                spec.name.to_string(),
                format!("{:?}@{}", scheme, size.label()),
                format!("{:.0}", always.throughput),
                format!("{:.0}", selective.throughput),
                format!("{speedup:.2}x"),
                format!("{:.1}", pct(selective.fast)),
                format!("{:.1}", pct(selective.retraced)),
                format!("{:.1}", pct(selective.replayed)),
            ]);
        }
        eprintln!("  done: {}", spec.name);
    }
    println!("{table}");

    let heavy = geometric_mean(&heavy_speedups);
    let control = geometric_mean(&control_speedups);
    println!("trace-heavy (cheap targets, Flat@2M/8M) geomean speedup: {heavy:.2}x (acceptance target: >=2x)");
    println!(
        "two-level@8M geomean speedup: {:.2}x (map ops already condensed, so \
         selective tracing can lose to the re-execution cost)",
        geometric_mean(&twolevel_speedups),
    );
    println!(
        "exec-heavy control (sqlite3) geomean speedup: {control:.2}x \
         (expected ~1x: target execution dominates, little traced cost to shed)"
    );
    if effort == Effort::Quick {
        // Quick-scale programs are small enough for the oracle to saturate
        // within one arm, so the fast path covers nearly every exec and
        // the geomean reads several times what standard scale does.
        println!(
            "acceptance: not judged at quick scale (the >=2x target applies at standard scale)"
        );
    } else if heavy >= 2.0 {
        println!(
            "acceptance: PASS at {} scale — selective tracing >=2x on trace-heavy arms",
            effort.label()
        );
    } else {
        println!(
            "acceptance: BELOW TARGET at {} scale on this host — speedup depends \
             on the host's map-op cost relative to the simulated targets' \
             execution cost; see EXPERIMENTS.md for the reference run",
            effort.label()
        );
    }
}
