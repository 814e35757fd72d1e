//! Figure 9: scalability with parallel fuzzing (2 MB map).
//!
//! (a) Throughput normalized to the single-instance run, for 1/4/8/12
//! concurrent instances in the master–secondary configuration, both
//! fuzzers. (b) BigMap-over-AFL speedup from the ratio of total test cases
//! generated with an equal instance count. The paper's finding: neither
//! fuzzer scales 1:1 with a 2 MB map (the shared LLC saturates), AFL's
//! curve goes *negative* above four instances, and the BigMap/AFL speedup
//! is therefore super-linear in the instance count.

use std::time::Duration;

use bigmap_analytics::{normalize_to_first, TextTable};
use bigmap_bench::{
    report_header, telemetry_path_from_args, CheckpointArgs, Effort, PreparedBenchmark,
};
use bigmap_core::{MapScheme, MapSize};
use bigmap_fuzzer::{
    parse_jsonl, run_fleet, Budget, CampaignConfig, FleetConfig, Instance, InstanceOptions,
    JsonlSink, TelemetryEvent, Transport,
};
use bigmap_target::BenchmarkSpec;

fn main() {
    let effort = Effort::from_args();
    report_header(
        "Figure 9 — Parallel fuzzing scalability (2MB map, master-secondary)",
        effort,
        "per benchmark: total execs at 1/4/8/12 instances; normalized + speedup",
    );

    // Every fleet streams into the one sink: its instances' snapshots
    // plus one `"fleet_total":1` summary line per fleet.
    let telemetry_path = telemetry_path_from_args();
    let sink = telemetry_path.as_ref().map(|path| {
        let sink = JsonlSink::to_file(path)
            .unwrap_or_else(|e| panic!("cannot open telemetry sink {}: {e}", path.display()));
        eprintln!("  telemetry: streaming snapshots to {}", path.display());
        sink
    });

    // `--checkpoint <dir>` gives every fleet restarts: per-instance
    // checkpoints under a per-arm subdirectory, crashed instances
    // restarted from their last snapshot, and `--resume` picks a killed
    // run back up from disk.
    let checkpoint = CheckpointArgs::from_args();
    if let Some(args) = &checkpoint {
        eprintln!(
            "  supervised fleets: checkpoint dir {}, every {} execs{}",
            args.dir.display(),
            args.every,
            if args.resume { ", resuming" } else { "" }
        );
    }

    let instance_counts: &[usize] = if effort == Effort::Quick {
        &[1, 2, 4]
    } else {
        &[1, 4, 8, 12]
    };
    let benchmarks = if effort == Effort::Quick {
        vec![BenchmarkSpec::by_name("gvn").unwrap()]
    } else {
        BenchmarkSpec::figure3()
    };

    let mut headers = vec!["benchmark".to_string(), "fuzzer".to_string()];
    for &n in instance_counts {
        headers.push(format!("execs@{n}"));
    }
    for &n in instance_counts {
        headers.push(format!("norm@{n}"));
    }
    let mut table = TextTable::new(headers);
    let mut speedup_table = TextTable::new({
        let mut h = vec!["benchmark".to_string()];
        h.extend(instance_counts.iter().map(|n| format!("speedup@{n}")));
        h
    });

    for spec in &benchmarks {
        let prepared = PreparedBenchmark::build(spec, MapSize::M2, effort);
        let mut totals: Vec<Vec<f64>> = Vec::new(); // [scheme][instance_idx]
        for scheme in [MapScheme::TwoLevel, MapScheme::Flat] {
            let mut per_count = Vec::new();
            for &instances in instance_counts {
                let config = CampaignConfig::builder()
                    .scheme(scheme)
                    .map_size(MapSize::M2)
                    .budget(Budget::Time(effort.arm_budget()))
                    .deterministic(true) // master runs deterministic stages
                    .build();
                let mut fleet = FleetConfig {
                    instances,
                    telemetry: sink.clone(),
                    ..FleetConfig::default()
                };
                let mut options = InstanceOptions {
                    sync_every: 5_000,
                    ..InstanceOptions::default()
                };
                if let Some(args) = &checkpoint {
                    let arm_key = format!(
                        "fig9-{}-{}-n{instances}",
                        spec.name,
                        if scheme == MapScheme::TwoLevel {
                            "big"
                        } else {
                            "afl"
                        }
                    );
                    fleet.max_restarts = 3;
                    fleet.backoff = Duration::from_millis(25);
                    options.checkpoint_root = Some(args.prepare_arm(&arm_key));
                    options.checkpoint_every = args.every;
                    options.checkpoint_min_interval = Duration::from_millis(250);
                }
                let instance = Instance {
                    program: &prepared.program,
                    instrumentation: &prepared.instrumentation,
                    config: &config,
                    seeds: &prepared.seeds,
                    options,
                };
                let stats = run_fleet(&fleet, Transport::Threads(instance));
                if !stats.all_completed() {
                    eprintln!(
                        "  warning: {} / {scheme:?} @{instances}: fleet health {:?}",
                        spec.name, stats.health
                    );
                }
                eprintln!(
                    "  sync traffic: {} / {scheme:?} @{instances}: \
                     {} published, {} imported, {} rejected",
                    spec.name,
                    stats.telemetry.get(TelemetryEvent::SyncPublish),
                    stats.telemetry.get(TelemetryEvent::SyncImport),
                    stats.telemetry.get(TelemetryEvent::ImportRejection),
                );
                per_count.push(stats.total_execs() as f64);
            }
            let norm = normalize_to_first(&per_count);
            let mut row = vec![
                spec.name.to_string(),
                if scheme == MapScheme::TwoLevel {
                    "BigMap"
                } else {
                    "AFL"
                }
                .to_string(),
            ];
            row.extend(per_count.iter().map(|e| format!("{e:.0}")));
            row.extend(norm.iter().map(|n| format!("{n:.2}")));
            table.row(row);
            totals.push(per_count);
            eprintln!("  done: {} / {scheme:?}", spec.name);
        }
        // Speedup per instance count: BigMap execs / AFL execs.
        let mut row = vec![spec.name.to_string()];
        for (big, afl) in totals[0].iter().zip(&totals[1]) {
            row.push(format!("{:.1}x", big / afl.max(1.0)));
        }
        speedup_table.row(row);
    }
    println!("(a) total execs and normalized scaling:");
    println!("{table}");
    println!("(b) BigMap-over-AFL speedup at equal instance count:");
    println!("{speedup_table}");
    println!(
        "expected shape (paper): BigMap's normalized curve rises with \
         instances (sub-linear but positive); AFL's flattens or falls; the \
         speedup grows super-linearly with the instance count (paper avg: \
         4.9x / 9.2x / 13.8x at 4 / 8 / 12)."
    );

    // Close the loop on the telemetry stream: read the JSONL back and make
    // sure every line parses (the CI smoke job relies on this check).
    if let Some(path) = telemetry_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read back telemetry {}: {e}", path.display()));
        let snapshots =
            parse_jsonl(&text).unwrap_or_else(|e| panic!("telemetry JSONL failed to parse: {e}"));
        assert!(
            !snapshots.is_empty(),
            "telemetry sink produced no snapshots"
        );
        println!(
            "telemetry: {} snapshots written to {} and parsed back cleanly",
            snapshots.len(),
            path.display()
        );
    }
}
