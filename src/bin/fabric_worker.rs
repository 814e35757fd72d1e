//! Fleet worker binary for the distributed campaign fabric.
//!
//! Spawned by `bigmap::fuzzer::run_fleet` over the process transport
//! (see the fleet transport integration tests): reconstructs the
//! benchmark target and instance from its CLI arguments, reads its fleet
//! role from the `BIGMAP_FABRIC_WORKER` handshake, and hands its
//! stdin/stdout to [`run_worker`] to speak the fabric protocol.
//!
//! Arguments (all `--flag value`, all optional):
//!
//! * `--benchmark <name>` — Table II benchmark to fuzz (default `gvn`)
//! * `--execs <n>` — per-worker execution budget (default 20000)
//! * `--sync-every <n>` — sync cadence in executions (default 500)
//! * `--map-size <k64|m2|m8>` — coverage map size (default `m2`)
//! * `--checkpoint-root <dir>` — resume/checkpoint root; this worker
//!   uses `instance-NN/` below it and checkpoints at every sync boundary
//! * `--panic-once <sentinel>` — inject one worker panic at the third
//!   sync boundary, but only if `sentinel` does not exist yet (the file
//!   is created first, so the supervised respawn runs clean — this is
//!   how the node-loss recovery test kills exactly one process exactly
//!   once)
//! * `--stall-once <sentinel>` — same single-shot arming, but the fault
//!   wedges the worker indefinitely at the third sync boundary instead
//!   of panicking: executions freeze while heartbeats keep flowing, so
//!   only the parent's liveness deadline can recover the fleet (this is
//!   how the hung-worker detection test gets a genuinely stuck process)

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use bigmap::fuzzer::faults::{FaultPlan, FaultSite};
use bigmap::prelude::*;

fn fail(msg: &str) -> ! {
    eprintln!("fabric_worker: {msg}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let Some(role) = WorkerRole::from_env() else {
        fail("BIGMAP_FABRIC_WORKER is not set; this binary is spawned by run_fleet");
    };

    let mut benchmark = String::from("gvn");
    let mut execs = 20_000u64;
    let mut sync_every = 500u64;
    let mut map_size = MapSize::M2;
    let mut checkpoint_root: Option<PathBuf> = None;
    let mut panic_once: Option<PathBuf> = None;
    let mut stall_once: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--benchmark" => benchmark = value("--benchmark"),
            "--execs" => {
                execs = value("--execs")
                    .parse()
                    .unwrap_or_else(|_| fail("--execs: not a number"));
            }
            "--sync-every" => {
                sync_every = value("--sync-every")
                    .parse()
                    .unwrap_or_else(|_| fail("--sync-every: not a number"));
            }
            "--map-size" => {
                map_size = match value("--map-size").as_str() {
                    "k64" => MapSize::K64,
                    "m2" => MapSize::M2,
                    "m8" => MapSize::M8,
                    other => fail(&format!("--map-size: unknown size {other}")),
                };
            }
            "--checkpoint-root" => {
                checkpoint_root = Some(PathBuf::from(value("--checkpoint-root")));
            }
            "--panic-once" => panic_once = Some(PathBuf::from(value("--panic-once"))),
            "--stall-once" => stall_once = Some(PathBuf::from(value("--stall-once"))),
            other => fail(&format!("unknown flag {other}")),
        }
    }

    let spec = BenchmarkSpec::by_name(&benchmark)
        .unwrap_or_else(|| fail(&format!("unknown benchmark {benchmark}")));
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 4);
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, map_size, 7);

    let config = CampaignConfig::builder()
        .scheme(MapScheme::TwoLevel)
        .map_size(map_size)
        .budget_execs(execs)
        .mutations_per_seed(32)
        .build();

    // Single-shot fault injection: the sentinel file is created *before*
    // the fault is armed, so after the parent respawns this worker the
    // sentinel exists and the replacement runs fault-free.
    let mut plan = FaultPlan::new();
    let mut armed = false;
    let mut arm = |sentinel: &Option<PathBuf>, site: FaultSite| {
        if let Some(sentinel) = sentinel {
            if !sentinel.exists() {
                if let Err(e) = std::fs::write(sentinel, b"armed") {
                    fail(&format!("cannot create fault sentinel: {e}"));
                }
                plan = std::mem::take(&mut plan).inject(site, role.index, 2);
                armed = true;
            }
        }
    };
    arm(&panic_once, FaultSite::WorkerPanic);
    arm(&stall_once, FaultSite::PipeStall);
    let instance = Instance {
        program: &program,
        instrumentation: &instrumentation,
        config: &config,
        seeds: &seeds,
        options: InstanceOptions {
            sync_every,
            checkpoint_root,
            checkpoint_every: sync_every,
            checkpoint_min_interval: Duration::ZERO,
            fault_plan: armed.then(|| Arc::new(plan)),
        },
    };
    match run_worker(role, &instance) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fabric_worker {}: {e}", role.index);
            ExitCode::FAILURE
        }
    }
}
