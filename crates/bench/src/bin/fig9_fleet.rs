//! Figure 9 companion: multi-process fleet scaling over the campaign
//! fabric.
//!
//! `fig9_parallel_scaling` runs the master–secondary fleet on the
//! thread transport; this binary runs the same fleet runtime on the
//! *process* transport, with corpus exchange over the binary wire
//! protocol. Each arm runs N worker processes (this same binary,
//! re-invoked with the `BIGMAP_FABRIC_WORKER` handshake) to a fixed
//! per-worker execution budget and reports aggregate throughput, its
//! scaling relative to the single-worker arm, and the parallel
//! efficiency normalized to the cores actually available — on a
//! one-core host, N processes time-slice one CPU, so the honest ideal is
//! `min(N, cores)`, not N.
//!
//! `--fleet-jsonl <path>` streams the merged fleet telemetry (every
//! worker's snapshots plus the fleet-total summary line) to a JSONL
//! file; the CI fleet-smoke job asserts on it.

use std::process::Command;
use std::time::{Duration, Instant};

use bigmap_analytics::TextTable;
use bigmap_bench::{
    effective_cores, parallel_efficiency, report_header, Effort, PreparedBenchmark,
};
use bigmap_core::MapSize;
use bigmap_fuzzer::{
    parse_jsonl, run_fleet, run_worker, FleetConfig, Instance, InstanceOptions, JsonlSink,
    TelemetryEvent, Transport, WorkerRole,
};
use bigmap_target::BenchmarkSpec;

const BENCHMARK: &str = "gvn";
const SYNC_EVERY: u64 = 1_000;

/// Re-entry point for spawned workers: same binary, same arguments, the
/// role injected through the environment by `run_fleet`.
fn worker_main(role: WorkerRole) -> ! {
    let mut execs = 50_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--worker-execs" {
            execs = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("fig9_fleet worker: bad --worker-execs");
                std::process::exit(2);
            });
        }
    }
    let spec = BenchmarkSpec::by_name(BENCHMARK).expect("known benchmark");
    let prepared = PreparedBenchmark::build(&spec, MapSize::M2, Effort::Quick);
    let config = bigmap_fuzzer::CampaignConfig::builder()
        .scheme(bigmap_core::MapScheme::TwoLevel)
        .map_size(MapSize::M2)
        .budget_execs(execs)
        .deterministic(false)
        .build();
    let instance = Instance {
        program: &prepared.program,
        instrumentation: &prepared.instrumentation,
        config: &config,
        seeds: &prepared.seeds,
        options: InstanceOptions {
            sync_every: SYNC_EVERY,
            ..InstanceOptions::default()
        },
    };
    match run_worker(role, &instance) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("fig9_fleet worker {}: {e}", role.index);
            std::process::exit(1);
        }
    }
}

fn main() {
    if let Some(role) = WorkerRole::from_env() {
        worker_main(role);
    }

    let effort = Effort::from_args();
    report_header(
        "Figure 9 (fabric) — multi-process fleet scaling (2MB map)",
        effort,
        "N worker processes over the wire protocol; aggregate execs/sec vs 1 worker",
    );
    let fleet_jsonl = {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        while let Some(flag) = args.next() {
            if flag == "--fleet-jsonl" {
                path = args.next().map(std::path::PathBuf::from);
            }
        }
        path
    };

    let per_worker_execs: u64 = (25_000.0 * effort.scale()).max(5_000.0) as u64;
    let worker_counts: &[usize] = if effort == Effort::Quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    let cores = effective_cores(std::thread::available_parallelism());
    let exe = std::env::current_exe().expect("own path");

    let mut table = TextTable::new(vec![
        "workers".to_string(),
        "total execs".to_string(),
        "wall (s)".to_string(),
        "aggregate execs/s".to_string(),
        "scaling vs 1".to_string(),
        "efficiency".to_string(),
    ]);
    let mut base_rate = 0.0f64;
    let mut four_worker_efficiency = None;

    for (arm, &workers) in worker_counts.iter().enumerate() {
        // Only the largest arm streams telemetry: one file, one fleet.
        let telemetry = match &fleet_jsonl {
            Some(path) if workers == *worker_counts.last().unwrap() => {
                Some(JsonlSink::to_file(path).unwrap_or_else(|e| {
                    panic!("cannot create fleet jsonl {}: {e}", path.display())
                }))
            }
            _ => None,
        };
        let config = FleetConfig {
            instances: workers,
            max_restarts: 1,
            backoff: Duration::from_millis(50),
            telemetry,
            liveness_deadline: None,
        };
        let command = |_| {
            let mut cmd = Command::new(&exe);
            cmd.arg("--worker-execs").arg(per_worker_execs.to_string());
            cmd
        };
        let started = Instant::now();
        let stats = run_fleet(&config, Transport::Processes(&command));
        let wall = started.elapsed().as_secs_f64();
        if !stats.all_completed() {
            eprintln!("  warning: fleet health {:?}", stats.health);
        }
        let total = stats.total_execs();
        let rate = total as f64 / wall.max(1e-9);
        if arm == 0 {
            base_rate = rate;
        }
        let scaling = rate / base_rate.max(1e-9);
        let efficiency = parallel_efficiency(scaling, workers, cores);
        if workers == 4 {
            four_worker_efficiency = Some(efficiency);
        }
        table.row(vec![
            workers.to_string(),
            total.to_string(),
            format!("{wall:.2}"),
            format!("{rate:.0}"),
            format!("{scaling:.2}x"),
            format!("{efficiency:.2}"),
        ]);
        eprintln!(
            "  done: {workers} workers, {} sync imports fleet-wide",
            stats.telemetry.get(TelemetryEvent::SyncImport)
        );
    }

    println!("{table}");
    println!(
        "host cores: {cores}; efficiency = (rate_N / rate_1) / min(N, cores). \
         Process workers add wire-protocol and scheduling overhead that the \
         thread transport (fig9_parallel_scaling) does not pay; the acceptance \
         bar is >= 0.85 efficiency at 4 workers."
    );
    if let Some(eff) = four_worker_efficiency {
        let verdict = if eff >= 0.85 { "PASS" } else { "FAIL" };
        println!("4-worker efficiency: {eff:.2} -> {verdict} (threshold 0.85)");
    }

    if let Some(path) = fleet_jsonl {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read back fleet jsonl {}: {e}", path.display()));
        let snapshots =
            parse_jsonl(&text).unwrap_or_else(|e| panic!("fleet JSONL failed to parse: {e}"));
        assert!(!snapshots.is_empty(), "fleet sink produced no snapshots");
        assert_eq!(
            text.matches("\"fleet_total\":1").count(),
            1,
            "expected exactly one fleet summary line"
        );
        println!(
            "fleet telemetry: {} snapshots ({} nodes) written to {} and parsed back cleanly",
            snapshots.len(),
            snapshots
                .iter()
                .map(|s| s.node)
                .collect::<std::collections::HashSet<_>>()
                .len(),
            path.display()
        );
    }
}
