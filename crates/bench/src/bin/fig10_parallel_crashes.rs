//! Figure 10: unique crashes with a varying number of fuzzing instances
//! (2 MB map).
//!
//! Same parallel setup as Figure 9, on the crash-bearing LLVM benchmarks,
//! reporting fleet-wide Crashwalk-unique crashes. The paper's finding:
//! BigMap finds 20% / 36% / 49% more unique crashes at 4 / 8 / 12
//! instances because AFL's execution throughput collapses.

use bigmap_analytics::TextTable;
use bigmap_bench::{report_header, Effort, PreparedBenchmark};
use bigmap_core::{MapScheme, MapSize};
use bigmap_fuzzer::{
    run_fleet, Budget, CampaignConfig, FleetConfig, Instance, InstanceOptions, Transport,
};
use bigmap_target::BenchmarkSpec;

fn main() {
    let effort = Effort::from_args();
    report_header(
        "Figure 10 — Unique crashes vs number of instances (2MB map)",
        effort,
        "fleet-wide Crashwalk dedup; master-secondary configuration",
    );

    let instance_counts: &[usize] = if effort == Effort::Quick {
        &[1, 2, 4]
    } else {
        &[1, 4, 8, 12]
    };
    let benchmarks = if effort == Effort::Quick {
        BenchmarkSpec::llvm()
            .into_iter()
            .take(2)
            .collect::<Vec<_>>()
    } else {
        BenchmarkSpec::llvm()
    };

    let mut headers = vec!["benchmark".to_string(), "fuzzer".to_string()];
    headers.extend(instance_counts.iter().map(|n| format!("crashes@{n}")));
    let mut table = TextTable::new(headers);
    let mut totals = vec![[0usize; 2]; instance_counts.len()];

    for spec in &benchmarks {
        let prepared =
            PreparedBenchmark::build_scaled(spec, MapSize::M2, effort, effort.crash_scale());
        for (scheme_idx, scheme) in [MapScheme::TwoLevel, MapScheme::Flat]
            .into_iter()
            .enumerate()
        {
            let mut row = vec![
                spec.name.to_string(),
                if scheme == MapScheme::TwoLevel {
                    "BigMap"
                } else {
                    "AFL"
                }
                .to_string(),
            ];
            for (i, &instances) in instance_counts.iter().enumerate() {
                let config = CampaignConfig::builder()
                    .scheme(scheme)
                    .map_size(MapSize::M2)
                    .budget(Budget::Time(effort.crash_arm_budget()))
                    .deterministic(true)
                    .build();
                let instance = Instance {
                    program: &prepared.program,
                    instrumentation: &prepared.instrumentation,
                    config: &config,
                    seeds: &prepared.seeds,
                    options: InstanceOptions {
                        sync_every: 5_000,
                        ..InstanceOptions::default()
                    },
                };
                let fleet = FleetConfig {
                    instances,
                    ..FleetConfig::default()
                };
                let stats = run_fleet(&fleet, Transport::Threads(instance));
                totals[i][scheme_idx] += stats.unique_crashes;
                row.push(stats.unique_crashes.to_string());
            }
            table.row(row);
            eprintln!("  done: {} / {scheme:?}", spec.name);
        }
    }
    println!("{table}");
    let mut summary = TextTable::new(vec!["instances", "BigMap total", "AFL total", "gain %"]);
    for (i, &n) in instance_counts.iter().enumerate() {
        let (big, afl) = (totals[i][0], totals[i][1]);
        summary.row(vec![
            n.to_string(),
            big.to_string(),
            afl.to_string(),
            if afl > 0 {
                format!("{:+.0}", 100.0 * (big as f64 / afl as f64 - 1.0))
            } else {
                "-".into()
            },
        ]);
    }
    println!("Totals across benchmarks:");
    println!("{summary}");
    println!("expected shape (paper): the BigMap-over-AFL crash gain widens with the instance count (paper: +20%/+36%/+49% at 4/8/12).");
}
