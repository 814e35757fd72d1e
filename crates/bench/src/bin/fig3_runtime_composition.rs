//! Figure 3: runtime composition with varying bitmap sizes.
//!
//! For the paper's six benchmarks (libpng, sqlite3, gvn, bloaty, openssl,
//! php) at 64 kB / 2 MB / 8 MB, runs an AFL-structure campaign and prints
//! its per-layer time (`CampaignStats::ops`) folded into the figure's
//! decomposition — execution, map classify, map compare, map reset, map
//! hash, and others (every other layer: scheduling, snapshot priming,
//! mutation, admission, crash triage) — normalized to one million
//! generated test cases, exactly as the figure reports. The paper's
//! finding to reproduce: map operations are negligible at 64 kB and
//! dominate at 8 MB.

use bigmap_analytics::TextTable;
use bigmap_bench::{report_header, Effort, PreparedBenchmark};
use bigmap_core::{Layer, MapScheme, MapSize};
use bigmap_coverage::MetricKind;
use bigmap_fuzzer::Budget;
use bigmap_target::BenchmarkSpec;

fn main() {
    let effort = Effort::from_args();
    report_header(
        "Figure 3 — Runtime composition vs map size (AFL data structure)",
        effort,
        "hours per 1M test cases, extrapolated from the measured run",
    );

    let sizes = [MapSize::K64, MapSize::M2, MapSize::M8];
    let mut table = TextTable::new(vec![
        "benchmark",
        "map",
        "Execution",
        "Map Classify",
        "Map Compare",
        "Map Reset",
        "Map Hash",
        "Others",
        "total(h/1M)",
        "map-ops %",
    ]);

    for spec in BenchmarkSpec::figure3() {
        for size in sizes {
            let prepared = PreparedBenchmark::build(&spec, size, effort);
            // Split classify/compare pipeline so both columns populate,
            // matching how the paper's Figure 3 stacks its bars.
            let stats = prepared.run_campaign_opts(
                MapScheme::Flat,
                MetricKind::Edge,
                Budget::Time(effort.arm_budget()),
                3,
                false,
            );
            // Normalize to 1M test cases (the figure's y axis).
            let factor = 1_000_000.0 / stats.execs.max(1) as f64;
            let per_million = stats.ops.scaled(factor);
            let hours = |time: std::time::Duration| time.as_secs_f64() / 3600.0;
            let others = per_million.total()
                - per_million.get(Layer::Executor)
                - per_million.map_ops_total();
            let total_h = hours(per_million.total());
            let map_ops_pct = 100.0 * per_million.map_ops_total().as_secs_f64()
                / per_million.total().as_secs_f64().max(1e-12);
            table.row(vec![
                spec.name.into(),
                size.label(),
                format!("{:.3}", hours(per_million.get(Layer::Executor))),
                format!("{:.3}", hours(per_million.get(Layer::MapClassify))),
                format!("{:.3}", hours(per_million.get(Layer::MapCompare))),
                format!("{:.3}", hours(per_million.get(Layer::MapReset))),
                format!("{:.3}", hours(per_million.get(Layer::MapHash))),
                format!("{:.3}", hours(others)),
                format!("{total_h:.3}"),
                format!("{map_ops_pct:.1}"),
            ]);
        }
    }
    println!("{table}");
    println!(
        "expected shape (paper): map-ops share is negligible at 64k and \
         dominates at 8M, with classify/compare/reset the heavy hitters \
         and hash benchmark-dependent. (This harness runs the split \
         classify/compare pipeline so both columns populate; campaigns \
         default to the merged §IV-E pipeline.)"
    );
}
