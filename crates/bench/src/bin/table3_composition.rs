//! Table III: code coverage with laf-intel and N-gram composition.
//!
//! The §V-C experiment: apply the laf-intel transform to the LLVM
//! harnesses, fuzz them with the N-gram(3) metric under **BigMap at 64 kB
//! vs BigMap at 2 MB** (both arms use the two-level map — the experiment
//! isolates collision mitigation, not the data structure), and report
//! collision rate, replayed edge coverage and unique crashes. The paper's
//! finding: the big map cuts the collision rate from ~79% to ~7.5% and
//! lifts unique crashes by ~33%, while edge coverage stays flat.

use std::sync::Arc;

use bigmap_analytics::{collision_rate, mean, TextTable};
use bigmap_bench::{
    report_header, telemetry_path_from_args, CheckpointArgs, Effort, PreparedBenchmark,
};
use bigmap_core::{MapScheme, MapSize};
use bigmap_coverage::MetricKind;
use bigmap_fuzzer::{replay_edge_coverage, Budget, FleetAggregator, JsonlSink, Telemetry};
use bigmap_target::{apply_laf_intel, BenchmarkSpec, Interpreter};

fn main() {
    let effort = Effort::from_args();
    report_header(
        "Table III — Coverage with laf-intel + N-gram(3) (BigMap 64k vs 2M)",
        effort,
        "both arms use BigMap; laf-intel applied to the target; metric = ngram3",
    );

    // `--telemetry <path>` streams one snapshot per campaign arm to the
    // given JSONL file.
    let aggregator = telemetry_path_from_args().map(|path| {
        let sink = JsonlSink::to_file(&path)
            .unwrap_or_else(|e| panic!("cannot open telemetry sink {}: {e}", path.display()));
        eprintln!("  telemetry: per-arm snapshots to {}", path.display());
        FleetAggregator::with_sink(sink)
    });

    // `--checkpoint <dir>` / `--resume`: crash arms run 8x longer than the
    // throughput arms, so they gain the most from surviving a kill.
    let checkpoint = CheckpointArgs::from_args();
    if let Some(args) = &checkpoint {
        eprintln!(
            "  checkpointing: dir {}, every {} execs{}",
            args.dir.display(),
            args.every,
            if args.resume { ", resuming" } else { "" }
        );
    }

    let benchmarks = if effort == Effort::Quick {
        BenchmarkSpec::llvm()
            .into_iter()
            .take(2)
            .collect::<Vec<_>>()
    } else {
        BenchmarkSpec::llvm()
    };

    let mut table = TextTable::new(vec![
        "benchmark(+laf,+ngram3)",
        "keys",
        "coll%@64k",
        "coll%@2M",
        "edges@64k",
        "edges@2M",
        "crashes@64k",
        "crashes@2M",
    ]);
    let (mut crashes_small, mut crashes_big) = (Vec::new(), Vec::new());
    let (mut edges_small, mut edges_big) = (Vec::new(), Vec::new());

    for spec in &benchmarks {
        let base = spec.build(effort.crash_scale());
        let (laf, stats) = apply_laf_intel(&base);
        eprintln!(
            "  {}: laf-intel split {} compares, +{} blocks",
            spec.name, stats.comparisons_split, stats.blocks_added
        );

        let mut row = vec![format!("{}", spec.name)];
        let mut keys_used = 0usize;
        let mut cells: Vec<(usize, usize)> = Vec::new(); // (edges, crashes)
        for size in [MapSize::K64, MapSize::M2] {
            let prepared = PreparedBenchmark::from_program(spec, laf.clone(), size, effort);
            let telemetry = aggregator
                .as_ref()
                .map(|agg| Arc::new(Telemetry::new(agg.producers())));
            let arm_key = format!("table3-{}-{}", spec.name, size.label());
            let (stats, corpus) = prepared.run_campaign_with_corpus_checkpointed(
                MapScheme::TwoLevel,
                MetricKind::NGram(3),
                Budget::Time(effort.crash_arm_budget()),
                31,
                telemetry.clone(),
                checkpoint.as_ref().map(|args| (args, arm_key.as_str())),
            );
            if let (Some(aggregator), Some(telemetry)) = (&aggregator, &telemetry) {
                aggregator.record(0, telemetry.snapshot());
            }
            let interp = Interpreter::new(&prepared.program);
            let edges = replay_edge_coverage(&interp, &corpus);
            cells.push((edges, stats.unique_crashes));
            // used_key of the larger map ≈ distinct keys the metric
            // produced; use it for the collision-rate column.
            keys_used = keys_used.max(stats.used_len);
        }
        row.push(keys_used.to_string());
        row.push(format!(
            "{:.1}",
            100.0 * collision_rate(1 << 16, keys_used as u64)
        ));
        row.push(format!(
            "{:.1}",
            100.0 * collision_rate(2 << 20, keys_used as u64)
        ));
        row.push(cells[0].0.to_string());
        row.push(cells[1].0.to_string());
        row.push(cells[0].1.to_string());
        row.push(cells[1].1.to_string());
        edges_small.push(cells[0].0 as f64);
        edges_big.push(cells[1].0 as f64);
        crashes_small.push(cells[0].1 as f64);
        crashes_big.push(cells[1].1 as f64);
        table.row(row);
    }
    println!("{table}");

    let crash_gain = if mean(&crashes_small) > 0.0 {
        100.0 * (mean(&crashes_big) / mean(&crashes_small) - 1.0)
    } else {
        0.0
    };
    let edge_gain = if mean(&edges_small) > 0.0 {
        100.0 * (mean(&edges_big) / mean(&edges_small) - 1.0)
    } else {
        0.0
    };
    println!(
        "AVERAGE: unique crashes {} -> {} ({:+.0}% — paper: +33%); \
         edge coverage {:+.1}% (paper: ~flat)",
        mean(&crashes_small),
        mean(&crashes_big),
        crash_gain,
        edge_gain
    );
}
