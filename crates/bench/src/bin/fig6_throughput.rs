//! Figure 6: test case generation throughput, AFL vs BigMap, across map
//! sizes.
//!
//! Runs both map schemes on all 19 benchmarks at 64 kB / 256 kB / 2 MB /
//! 8 MB (averaging multiple runs, as the paper does) and prints per-
//! benchmark throughput plus the per-size average speedups that headline
//! the paper: 0.98x / 1.4x / 4.5x / 33.1x.

use bigmap_analytics::{geometric_mean, mean, TextTable};
use bigmap_bench::{
    evaluated_sizes, report_header, telemetry_path_from_args, CheckpointArgs, Effort,
    PreparedBenchmark,
};
use bigmap_core::MapScheme;
use bigmap_fuzzer::{Budget, FleetAggregator, JsonlSink};
use bigmap_target::BenchmarkSpec;

fn main() {
    let effort = Effort::from_args();
    report_header(
        "Figure 6 — Throughput of AFL vs BigMap with different map sizes",
        effort,
        "throughput in execs/sec; speedup = BigMap / AFL; avg of 2 runs per arm",
    );

    // `--telemetry <path>` attaches live telemetry to every arm
    // and streams per-run snapshots to the file — the configuration used to
    // measure the telemetry layer's own overhead (see EXPERIMENTS.md).
    let aggregator = telemetry_path_from_args().map(|path| {
        let sink = JsonlSink::to_file(&path)
            .unwrap_or_else(|e| panic!("cannot open telemetry sink {}: {e}", path.display()));
        eprintln!(
            "  telemetry: attached to every arm, sink {}",
            path.display()
        );
        FleetAggregator::with_sink(sink)
    });

    // `--checkpoint <dir>` snapshots every arm periodically; `--resume`
    // continues a killed run from the last snapshots (the kill-and-resume
    // CI smoke job drives exactly this path).
    let checkpoint = CheckpointArgs::from_args();
    if let Some(args) = &checkpoint {
        eprintln!(
            "  checkpointing: dir {}, every {} execs{}",
            args.dir.display(),
            args.every,
            if args.resume { ", resuming" } else { "" }
        );
    }

    let sizes = evaluated_sizes();
    let runs = if effort == Effort::Quick { 1 } else { 2 };
    let benchmarks = if effort == Effort::Quick {
        BenchmarkSpec::figure3()
    } else {
        BenchmarkSpec::table_ii()
    };

    let mut headers = vec!["benchmark".to_string()];
    for size in sizes {
        headers.push(format!("AFL@{}", size.label()));
        headers.push(format!("BigMap@{}", size.label()));
        headers.push(format!("speedup@{}", size.label()));
    }
    let mut table = TextTable::new(headers);
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];

    for spec in &benchmarks {
        let mut row = vec![spec.name.to_string()];
        for (i, &size) in sizes.iter().enumerate() {
            let prepared = PreparedBenchmark::build(spec, size, effort);
            let budget = Budget::Time(effort.arm_budget());
            let afl = prepared.mean_throughput_checkpointed(
                MapScheme::Flat,
                budget,
                runs,
                aggregator.as_ref(),
                checkpoint.as_ref(),
                &format!("fig6-{}-{}-afl", spec.name, size.label()),
            );
            let big = prepared.mean_throughput_checkpointed(
                MapScheme::TwoLevel,
                budget,
                runs,
                aggregator.as_ref(),
                checkpoint.as_ref(),
                &format!("fig6-{}-{}-big", spec.name, size.label()),
            );
            let speedup = big / afl.max(1e-9);
            speedups[i].push(speedup);
            row.push(format!("{afl:.0}"));
            row.push(format!("{big:.0}"));
            row.push(format!("{speedup:.2}x"));
        }
        table.row(row);
        // Progress for long runs.
        eprintln!("  done: {}", spec.name);
    }
    println!("{table}");

    let mut summary = TextTable::new(vec!["map size", "mean speedup", "geomean speedup", "paper"]);
    let paper = ["0.98x", "1.4x", "4.5x", "33.1x"];
    for (i, &size) in sizes.iter().enumerate() {
        summary.row(vec![
            size.label(),
            format!("{:.2}x", mean(&speedups[i])),
            format!("{:.2}x", geometric_mean(&speedups[i])),
            paper[i].into(),
        ]);
    }
    println!("Average speedups (BigMap over AFL):");
    println!("{summary}");
    println!(
        "expected shape (paper): ~parity at 64k, modest gain at 256k, large \
         gain at 2M, very large gain at 8M. Absolute factors depend on the \
         host's cache sizes and the simulated targets' execution cost."
    );
}
