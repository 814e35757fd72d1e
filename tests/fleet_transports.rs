//! The fleet runtime on both transports. Every scenario runs twice:
//! once as threads of this process, and once as real `fabric_worker`
//! child processes (`src/bin/fabric_worker.rs`, via `CARGO_BIN_EXE_`)
//! speaking the wire protocol over pipes. Both sides fuzz the same
//! instance, so both must report the same health, budgets and telemetry.
//!
//! Telemetry totals are compared with exec counts only on clean fleets:
//! a thread instance's telemetry outlives its restarts (and so also
//! counts work a restart rewound), while a restarted worker process
//! starts a fresh one.
//!
//! Hung-worker detection is process-only and lives in
//! `durability_chaos.rs`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bigmap::fuzzer::{parse_jsonl, SharedBuffer};
use bigmap::prelude::*;

const WORKER: &str = env!("CARGO_BIN_EXE_fabric_worker");
const SYNC_EVERY: u64 = 250;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Threads,
    Processes,
}

const KINDS: [Kind; 2] = [Kind::Threads, Kind::Processes];

/// A fault applied to instance 1.
#[derive(Debug, Clone)]
enum Fault {
    None,
    /// One panic at the third sync boundary. Processes arm it through
    /// this sentinel file, so the respawned worker runs clean.
    PanicOnce(PathBuf),
    /// Every attempt fails: threads panic at every sync boundary, and
    /// processes get a command that exits before speaking the protocol.
    AlwaysFail,
}

/// The fleet under test. The process side passes it to `fabric_worker`
/// as flags; the thread side builds the same instance in-process.
struct Scenario {
    instances: usize,
    execs: u64,
    max_restarts: u32,
    checkpoint_root: Option<PathBuf>,
    fault: Fault,
}

impl Scenario {
    fn clean(instances: usize, execs: u64) -> Scenario {
        Scenario {
            instances,
            execs,
            max_restarts: 0,
            checkpoint_root: None,
            fault: Fault::None,
        }
    }
}

/// Runs `scenario` on `kind`, returning the stats and the merged JSONL.
fn run(kind: Kind, scenario: &Scenario) -> (FleetStats, String) {
    let buffer = SharedBuffer::new();
    let config = FleetConfig {
        instances: scenario.instances,
        max_restarts: scenario.max_restarts,
        backoff: Duration::from_millis(10),
        telemetry: Some(JsonlSink::new(Box::new(buffer.clone()))),
        liveness_deadline: None,
    };
    let stats = match kind {
        Kind::Threads => run_threads(&config, scenario),
        Kind::Processes => {
            let command = |index| worker_command(scenario, index);
            run_fleet(&config, Transport::Processes(&command))
        }
    };
    (stats, buffer.contents())
}

/// The same instance `fabric_worker` builds from its flags.
fn run_threads(config: &FleetConfig, scenario: &Scenario) -> FleetStats {
    let spec = BenchmarkSpec::by_name("gvn").unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 4);
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::M2, 7);
    let campaign = CampaignConfig::builder()
        .scheme(MapScheme::TwoLevel)
        .map_size(MapSize::M2)
        .budget_execs(scenario.execs)
        .mutations_per_seed(32)
        .build();
    let fault_plan = match scenario.fault {
        Fault::None => None,
        Fault::PanicOnce(_) => Some(FaultPlan::new().inject(FaultSite::WorkerPanic, 1, 2)),
        Fault::AlwaysFail => {
            Some(FaultPlan::new().inject_seeded(7, FaultSite::WorkerPanic, 1, 64, 64))
        }
    };
    let instance = Instance {
        program: &program,
        instrumentation: &instrumentation,
        config: &campaign,
        seeds: &seeds,
        options: InstanceOptions {
            sync_every: SYNC_EVERY,
            checkpoint_root: scenario.checkpoint_root.clone(),
            checkpoint_every: SYNC_EVERY,
            checkpoint_min_interval: Duration::ZERO,
            fault_plan: fault_plan.map(Arc::new),
        },
    };
    run_fleet(config, Transport::Threads(instance))
}

fn worker_command(scenario: &Scenario, index: usize) -> Command {
    let mut cmd = Command::new(WORKER);
    if index == 1 && matches!(scenario.fault, Fault::AlwaysFail) {
        cmd.arg("--unknown-flag-kills-me");
        return cmd;
    }
    cmd.args(["--benchmark", "gvn", "--map-size", "m2"])
        .arg("--execs")
        .arg(scenario.execs.to_string())
        .arg("--sync-every")
        .arg(SYNC_EVERY.to_string());
    if let Some(root) = &scenario.checkpoint_root {
        cmd.arg("--checkpoint-root").arg(root);
    }
    if let (1, Fault::PanicOnce(sentinel)) = (index, &scenario.fault) {
        cmd.arg("--panic-once").arg(sentinel);
    }
    cmd
}

fn tempdir(tag: &str, kind: Kind) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bigmap-fleet-{tag}-{kind:?}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Two clean instances: both complete exactly their budgets, and the
/// merged telemetry accounts for every execution, including the work
/// after each instance's last sync boundary.
#[test]
fn clean_two_instance_fleet_completes_and_merges_telemetry() {
    for kind in KINDS {
        let (stats, jsonl) = run(kind, &Scenario::clean(2, 4_000));

        assert_eq!(stats.health, vec![InstanceHealth::Running; 2], "{kind:?}");
        assert!(stats.all_completed());
        for (i, instance) in stats.instances.iter().enumerate() {
            assert_eq!(instance.execs, 4_000, "{kind:?}: instance {i} budget");
            // Both instances fuzzed, not just the master: their queues
            // grew past the seeds.
            assert!(instance.queue_len > 4, "{kind:?}: instance {i} idle");
        }
        assert_eq!(stats.total_execs(), 8_000);
        assert!(stats.throughput() > 0.0);
        assert_eq!(
            stats.telemetry.get(TelemetryEvent::Exec),
            stats.total_execs(),
            "{kind:?}: merged telemetry lost executions"
        );
        assert!(
            stats.telemetry.get(TelemetryEvent::SyncPublish) > 0,
            "{kind:?}: two busy instances published nothing"
        );

        // One merged stream: every instance, one summary line, and each
        // instance's last line is its final snapshot.
        let snapshots = instance_lines(&jsonl);
        let instances: HashSet<usize> = snapshots.iter().map(|s| s.instance).collect();
        assert_eq!(instances, HashSet::from([0, 1]), "{kind:?}");
        // Each worker process is a node of its own; threads share node 0.
        let nodes: HashSet<usize> = snapshots.iter().map(|s| s.node).collect();
        let expected = match kind {
            Kind::Threads => HashSet::from([0]),
            Kind::Processes => HashSet::from([0, 1]),
        };
        assert_eq!(nodes, expected, "{kind:?}");
        assert_eq!(jsonl.matches("\"fleet_total\":1").count(), 1, "{kind:?}");
        for (i, instance) in stats.instances.iter().enumerate() {
            let last = snapshots
                .iter()
                .rev()
                .find(|s| s.instance == i)
                .expect("every instance reports");
            assert_eq!(last.get(TelemetryEvent::Exec), instance.execs, "{kind:?}");
            // A thread instance's stats carry its own final snapshot too;
            // the stream's last line has every counter of it.
            if let Some(own) = &instance.telemetry {
                assert_eq!(last.events, own.events, "{kind:?}: instance {i}");
            }
        }
    }
}

/// The merged stream's per-instance snapshots, without the
/// `"fleet_total":1` summary line.
fn instance_lines(jsonl: &str) -> Vec<TelemetrySnapshot> {
    let lines: Vec<&str> = jsonl
        .lines()
        .filter(|line| !line.contains("\"fleet_total\":1"))
        .collect();
    parse_jsonl(&lines.join("\n")).expect("fleet jsonl parses")
}

/// A lone instance has nobody to trade inputs with, so it must never
/// import (its own finds included).
#[test]
fn single_instance_fleet_never_imports() {
    for kind in KINDS {
        let (stats, _) = run(kind, &Scenario::clean(1, 1_500));
        assert_eq!(stats.health, vec![InstanceHealth::Running], "{kind:?}");
        assert_eq!(stats.total_execs(), 1_500, "{kind:?}");
        assert!(stats.throughput() > 0.0);
        assert_eq!(
            stats.telemetry.get(TelemetryEvent::SyncImport),
            0,
            "{kind:?}"
        );
        assert_eq!(
            stats.telemetry.get(TelemetryEvent::ImportRejection),
            0,
            "{kind:?}"
        );
    }
}

/// Instance 1 panics once at its third sync boundary. It is restarted —
/// from its checkpoint when there is one, from the seeds otherwise —
/// and still delivers its full budget, while instance 0 is untouched and
/// the fleet keeps trading finds. Coverage stays within noise of a clean
/// fleet.
#[test]
fn injected_panic_is_restarted_and_completes() {
    for kind in KINDS {
        let (clean, _) = run(kind, &Scenario::clean(2, 4_000));
        for with_checkpoints in [true, false] {
            let dir = tempdir("panic", kind);
            let scenario = Scenario {
                instances: 2,
                execs: 4_000,
                max_restarts: 2,
                checkpoint_root: with_checkpoints.then(|| dir.join("ckpt")),
                fault: Fault::PanicOnce(dir.join("panic-once")),
            };
            let (stats, jsonl) = run(kind, &scenario);
            let case = format!("{kind:?}, checkpoints {with_checkpoints}");

            assert_eq!(stats.health[0], InstanceHealth::Running, "{case}");
            assert_eq!(stats.health[1], InstanceHealth::Restarted(1), "{case}");
            assert!(stats.all_completed());
            assert_eq!(stats.instances[0].execs, 4_000, "{case}");
            assert_eq!(stats.instances[1].execs, 4_000, "{case}");
            if kind == Kind::Processes {
                assert!(dir.join("panic-once").exists(), "the panic never armed");
            }
            assert!(
                stats.telemetry.get(TelemetryEvent::SyncPublish) > 0,
                "{case}: restarted fleet published nothing"
            );
            let instances: HashSet<usize> =
                instance_lines(&jsonl).iter().map(|s| s.instance).collect();
            assert_eq!(instances, HashSet::from([0, 1]), "{case}");
            assert_eq!(jsonl.matches("\"fleet_total\":1").count(), 1, "{case}");

            // The restart costs at most the work since the last
            // checkpoint, not the campaign.
            let best = |stats: &FleetStats| stats.instances.iter().map(|s| s.used_len).max();
            let (clean_cov, cov) = (best(&clean).unwrap(), best(&stats).unwrap());
            assert!(
                cov as f64 >= clean_cov as f64 * 0.6,
                "{case}: covered {cov} slots vs clean {clean_cov}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Flips one byte in the middle of `path`.
fn flip_a_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read checkpoint");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    std::fs::write(path, bytes).expect("write checkpoint");
}

/// The newest checkpoint generation is corrupt before the fleet starts:
/// the instance resumes from the next older one, counts the fallback,
/// and runs only the rest of its budget.
#[test]
fn corrupt_newest_generation_resumes_from_the_older_one() {
    for kind in KINDS {
        let dir = tempdir("fallback", kind);
        let mut scenario = Scenario {
            checkpoint_root: Some(dir.clone()),
            ..Scenario::clean(1, 1_500)
        };
        let (first, _) = run(kind, &scenario);
        assert_eq!(first.health, vec![InstanceHealth::Running], "{kind:?}");

        let generations = dir.join("instance-00");
        flip_a_byte(&generations.join("checkpoint"));
        let (older, report) = CheckpointManager::load_with_report(&generations, None)
            .expect("generations readable")
            .expect("an intact generation survives");
        assert_eq!(report.generation, 1, "{kind:?}");
        assert!(older.execs > 0 && older.execs < 1_500);

        scenario.execs = 3_000;
        let (resumed, _) = run(kind, &scenario);
        assert_eq!(resumed.health, vec![InstanceHealth::Running], "{kind:?}");
        assert_eq!(resumed.instances[0].execs, 3_000, "{kind:?}");
        assert!(
            resumed.telemetry.get(TelemetryEvent::CheckpointFallback) >= 1,
            "{kind:?}: the skipped generation was not counted"
        );
        // Resumed, not cold-started: only the executions past the older
        // generation ran (restore replays stay out of telemetry).
        assert_eq!(
            resumed.telemetry.get(TelemetryEvent::Exec),
            3_000 - older.execs,
            "{kind:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An instance that fails every attempt is declared dead once its
/// restart budget is spent — immediately with no budget — with zeroed
/// stats, while the rest of the fleet completes.
#[test]
fn exhausted_restart_budget_reports_dead() {
    for kind in KINDS {
        for max_restarts in [0, 1] {
            let scenario = Scenario {
                max_restarts,
                fault: Fault::AlwaysFail,
                ..Scenario::clean(2, 2_000)
            };
            let (stats, _) = run(kind, &scenario);
            let case = format!("{kind:?}, {max_restarts} restarts");

            assert_eq!(stats.health[0], InstanceHealth::Running, "{case}");
            match &stats.health[1] {
                InstanceHealth::Dead(msg) if kind == Kind::Threads => {
                    assert!(msg.contains("injected worker panic"), "{case}: {msg}");
                }
                InstanceHealth::Dead(_) => {}
                other => panic!("{case}: expected a dead instance, got {other:?}"),
            }
            assert!(!stats.all_completed());
            assert_eq!(stats.instances[0].execs, 2_000, "{case}");
            assert_eq!(
                stats.instances[1].execs, 0,
                "{case}: dead instance has stats"
            );
        }
    }
}

/// A worker that cannot even be spawned is a failed attempt like any
/// other: the command is tried `max_restarts + 1` times.
#[test]
fn unspawnable_worker_uses_up_its_restart_budget() {
    let calls = AtomicUsize::new(0);
    let command = |_| {
        calls.fetch_add(1, Ordering::Relaxed);
        Command::new("/nonexistent/bigmap-fleet-worker")
    };
    let config = FleetConfig {
        instances: 1,
        max_restarts: 2,
        backoff: Duration::from_millis(1),
        ..FleetConfig::default()
    };
    let stats = run_fleet(&config, Transport::Processes(&command));
    assert_eq!(calls.load(Ordering::Relaxed), 3);
    match &stats.health[0] {
        InstanceHealth::Dead(msg) => assert!(msg.contains("spawn failed"), "{msg}"),
        other => panic!("expected a dead instance, got {other:?}"),
    }
    assert_eq!(stats.total_execs(), 0);
}
