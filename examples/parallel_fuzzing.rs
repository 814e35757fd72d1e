//! Parallel fuzzing: master–secondary scaling (§V-D in miniature).
//!
//! Runs 1, 2 and 4 concurrent instances of both fuzzers with a 2 MB map on
//! a crash-bearing target and prints total test cases and fleet-wide
//! unique crashes — the shape of the paper's Figures 9 and 10.
//!
//! ```text
//! cargo run --release --example parallel_fuzzing
//! ```

use std::time::Duration;

use bigmap::prelude::*;

fn main() {
    let spec = BenchmarkSpec::by_name("gvn").expect("in Table II");
    let program = spec.build(0.03);
    let seeds = spec.build_seeds(&program, 16);
    let map_size = MapSize::M2;
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, map_size, 11);
    println!(
        "benchmark: {}-like | map: {} | crash sites: {}\n",
        spec.name,
        map_size.label(),
        program.crash_sites
    );

    let mut table = TextTable::new(vec![
        "fuzzer",
        "instances",
        "total execs",
        "scaling",
        "unique crashes",
    ]);

    for scheme in [MapScheme::TwoLevel, MapScheme::Flat] {
        let mut base_execs = 0f64;
        for instances in [1usize, 2, 4] {
            let config = CampaignConfig::builder()
                .scheme(scheme)
                .map_size(map_size)
                .budget_time(Duration::from_secs(2))
                .deterministic(true) // the master runs deterministic stages
                .build();
            let instance = Instance {
                program: &program,
                instrumentation: &instrumentation,
                config: &config,
                seeds: &seeds,
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
            let total = stats.total_execs() as f64;
            if instances == 1 {
                base_execs = total;
            }
            table.row(vec![
                scheme.to_string(),
                instances.to_string(),
                format!("{total:.0}"),
                format!("{:.2}x", total / base_execs.max(1.0)),
                stats.unique_crashes.to_string(),
            ]);
        }
    }
    println!("{table}");
    println!(
        "expected: neither fuzzer scales 1:1 with a 2MB map (shared LLC), \
         but BigMap scales much better — and turns the extra executions \
         into more unique crashes."
    );
}
