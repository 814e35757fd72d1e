//! The I/O torture suite: kill/corrupt/restore cycles for the
//! checkpoint generations, quarantine behaviour for damaged corpus
//! entries, and hung-worker detection in a real process fleet — all
//! under the deterministic fault plans from `bigmap::fuzzer::faults`.
//!
//! The headline property is convergence: a campaign whose checkpoints
//! are torn and bit-flipped mid-run, killed, and resumed from whatever
//! generation survived must land on the *same final state* as the
//! fault-free run — corruption costs rewound work, never a divergent
//! trajectory and never a corrupt restore.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use bigmap::fuzzer::checkpoint::RestoreReport;
use bigmap::fuzzer::{parse_jsonl, InstanceHealth, OutputDir};
use bigmap::prelude::*;

const WORKER: &str = env!("CARGO_BIN_EXE_fabric_worker");

fn fixture() -> (Program, Instrumentation, Vec<Vec<u8>>) {
    let program = GeneratorConfig {
        seed: 29,
        functions: 6,
        gates_per_function: 10,
        crash_sites: 2,
        crash_guard_width: 2,
        ..Default::default()
    }
    .generate();
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 5);
    (program, instrumentation, vec![vec![0u8; 24]])
}

fn config(execs: u64) -> CampaignConfig {
    CampaignConfig {
        scheme: MapScheme::TwoLevel,
        map_size: MapSize::K64,
        budget: Budget::Execs(execs),
        mutations_per_seed: 32,
        // The convergence assertions compare resumed runs bit-for-bit
        // against uninterrupted ones; the deterministic-stage sweep is
        // per-(re)start bookkeeping, so havoc-only keeps the trajectory
        // a pure function of the checkpointed RNG streams.
        deterministic: false,
        ..Default::default()
    }
}

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bigmap-chaos-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs a fault-plagued first segment whose checkpoint writes are all
/// corrupted (torn or bit-flipped) except the first, restores from
/// whatever generation survived, and returns the restore report plus the
/// checkpoint it yielded.
fn corrupted_segment(
    root: &PathBuf,
    program: &Program,
    instrumentation: &Instrumentation,
    seeds: &[Vec<u8>],
) -> (Checkpoint, RestoreReport) {
    let interpreter = Interpreter::new(program);
    let mut campaign = Campaign::new(config(1_000), &interpreter, instrumentation);
    // Every write after the first is corrupted: flips at ordinals 1, 3,
    // 4 and a torn write at 2 cover both corruption models no matter how
    // many cadence marks the segment actually crosses.
    let plan = Arc::new(
        FaultPlan::new()
            .inject(FaultSite::BitFlip, 0, 1)
            .inject(FaultSite::TornWrite, 0, 2)
            .inject(FaultSite::BitFlip, 0, 3)
            .inject(FaultSite::BitFlip, 0, 4),
    );
    campaign.set_faults(Arc::new(InstanceFaults::new(plan, 0)));
    campaign.add_seeds(seeds.to_vec());
    let mut manager = CheckpointManager::new(root, 250).with_keep(8);
    let partial = campaign.run_with_hook(250, move |c| {
        manager.maybe_checkpoint(c).expect("checkpoint write");
    });
    assert!(partial.execs >= 1_000);

    let (checkpoint, report) = CheckpointManager::load_with_report(root, None)
        .expect("some generation must survive")
        .expect("checkpoints were written");
    (checkpoint, report)
}

/// Corrupt checkpoints are never restored: the fallback scan skips every
/// torn and bit-flipped generation, reports each skip with a reason, and
/// lands on the newest intact one.
#[test]
fn restore_skips_corrupt_generations_and_reports_them() {
    let (program, instrumentation, seeds) = fixture();
    let root = tmp_root("fallback");

    let (checkpoint, report) = corrupted_segment(&root, &program, &instrumentation, &seeds);

    // Only the first write survived, so the fallback walked past every
    // newer (corrupt) generation to reach it.
    assert!(
        report.generation >= 1,
        "restore took the newest generation, which was corrupt: {report:?}"
    );
    assert_eq!(
        report.skipped.len(),
        report.generation,
        "every newer generation must be accounted for: {report:?}"
    );
    for (index, reason) in &report.skipped {
        assert!(*index < report.generation, "skipped an older generation");
        assert!(
            !reason.is_empty(),
            "generation {index} skipped without a reason"
        );
    }
    // The survivor is the first cadence mark of the segment.
    assert!(checkpoint.execs >= 250 && checkpoint.execs < 1_000);

    std::fs::remove_dir_all(&root).ok();
}

/// The convergence property: resume from the surviving generation and
/// finish the budget — the final campaign state must be bit-identical to
/// an uninterrupted fault-free run of the same configuration.
#[test]
fn corrupted_and_resumed_campaign_converges_to_the_fault_free_state() {
    let (program, instrumentation, seeds) = fixture();
    let interpreter = Interpreter::new(&program);

    // Fault-free reference: one uninterrupted run of the full budget.
    let mut reference = Campaign::new(config(3_000), &interpreter, &instrumentation);
    reference.add_seeds(seeds.clone());
    let reference = reference.run_with_hook_detailed(250, |_| {});

    // Chaos arm: segment one with corrupted checkpoint writes, restore
    // through the fallback, then finish the same budget.
    let root = tmp_root("converge");
    let (checkpoint, report) = corrupted_segment(&root, &program, &instrumentation, &seeds);
    assert!(report.generation >= 1, "fallback never exercised");

    let mut resumed = Campaign::new(config(3_000), &interpreter, &instrumentation);
    resumed.restore(&checkpoint);
    assert_eq!(resumed.execs(), checkpoint.execs);
    let resumed = resumed.run_with_hook_detailed(250, |_| {});

    // Bit-identical convergence, not "within noise": same exec count,
    // same corpus in the same admission order, same crashes, same hangs,
    // same coverage footprint.
    assert_eq!(resumed.stats.execs, reference.stats.execs);
    assert_eq!(resumed.corpus, reference.corpus, "corpus diverged");
    assert_eq!(resumed.crash_inputs, reference.crash_inputs);
    assert_eq!(resumed.hang_inputs, reference.hang_inputs);
    assert_eq!(resumed.stats.used_len, reference.stats.used_len);
    assert_eq!(
        resumed.stats.discovered_slots,
        reference.stats.discovered_slots
    );
    assert_eq!(resumed.stats.queue_len, reference.stats.queue_len);
    assert_eq!(resumed.stats.crash_buckets, reference.stats.crash_buckets);
    assert_eq!(resumed.stats.total_crashes, reference.stats.total_crashes);

    std::fs::remove_dir_all(&root).ok();
}

/// When *every* write is torn, no generation is intact: the load fails
/// with `InvalidData` naming each rejected generation — and the campaign
/// that suffered the torn writes still completed its budget (persistence
/// degradation never kills the run).
#[test]
fn all_generations_corrupt_is_a_clean_cold_start_signal() {
    let (program, instrumentation, seeds) = fixture();
    let root = tmp_root("all-torn");

    let interpreter = Interpreter::new(&program);
    let mut campaign = Campaign::new(config(1_000), &interpreter, &instrumentation);
    let plan = (0..8).fold(FaultPlan::new(), |plan, ordinal| {
        plan.inject(FaultSite::TornWrite, 0, ordinal)
    });
    campaign.set_faults(Arc::new(InstanceFaults::new(Arc::new(plan), 0)));
    campaign.add_seeds(seeds);
    let mut manager = CheckpointManager::new(&root, 250).with_keep(4);
    let stats = campaign.run_with_hook(250, move |c| {
        manager
            .maybe_checkpoint(c)
            .expect("torn writes still 'succeed'");
    });
    assert!(stats.execs >= 1_000, "torn checkpoints must not cost execs");

    let err = CheckpointManager::load(&root).expect_err("nothing intact to load");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("checkpoint"),
        "error must name the rejected generations: {err}"
    );

    std::fs::remove_dir_all(&root).ok();
}

/// An injected short read on the restore path is indistinguishable from
/// on-disk truncation: the checksums reject the generation and the scan
/// falls back to the next one.
#[test]
fn short_read_during_restore_falls_back_one_generation() {
    let (program, instrumentation, seeds) = fixture();
    let root = tmp_root("short-read");

    let interpreter = Interpreter::new(&program);
    let mut campaign = Campaign::new(config(600), &interpreter, &instrumentation);
    campaign.add_seeds(seeds);
    let mut manager = CheckpointManager::new(&root, 250).with_keep(3);
    campaign.run_with_hook(250, move |c| {
        manager.maybe_checkpoint(c).expect("checkpoint write");
    });

    // The fault plan truncates the first generation *as it is read*.
    let plan = Arc::new(FaultPlan::new().inject(FaultSite::ShortRead, 0, 0));
    let faults = InstanceFaults::new(plan, 0);
    let (checkpoint, report) = CheckpointManager::load_with_report(&root, Some(&faults))
        .expect("an older generation survives the short read")
        .expect("checkpoints exist");
    assert_eq!(
        report.generation, 1,
        "expected fallback past the short read"
    );
    assert_eq!(report.skipped.len(), 1);
    assert!(checkpoint.execs >= 250);

    // Without the fault the newest generation loads fine — the short
    // read was injected, not real.
    let (clean, clean_report) = CheckpointManager::load_with_report(&root, None)
        .expect("readable")
        .expect("present");
    assert_eq!(
        clean_report,
        RestoreReport {
            generation: 0,
            skipped: vec![]
        }
    );
    assert!(clean.execs >= checkpoint.execs);

    std::fs::remove_dir_all(&root).ok();
}

/// Corpus durability end to end: a saved output directory with one
/// truncated and one unreadable entry still reloads, the damaged entries
/// land in `quarantine/` with reason files, and the reloaded corpus
/// seeds a campaign that runs to completion.
#[test]
fn damaged_corpus_entries_are_quarantined_and_the_rest_reseeds() {
    let (program, instrumentation, seeds) = fixture();
    let root = tmp_root("quarantine");

    let interpreter = Interpreter::new(&program);
    let mut campaign = Campaign::new(config(1_500), &interpreter, &instrumentation);
    campaign.add_seeds(seeds);
    let output = campaign.run_with_hook_detailed(500, |_| {});
    assert!(output.corpus.len() >= 2, "need a corpus worth damaging");

    let dir = OutputDir::create(&root).expect("output dir");
    dir.save(&output).expect("save outputs");

    // Damage two entries: truncate one (its name still declares the old
    // length) and replace another with a directory (unreadable as a
    // file, even for root).
    let queue = root.join("queue");
    let mut names: Vec<String> = std::fs::read_dir(&queue)
        .expect("queue listing")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("id:"))
        .collect();
    names.sort();
    let truncated = &names[0];
    std::fs::write(queue.join(truncated), b"").expect("truncate entry");
    let unreadable = format!("id:{:06},len:3", names.len() + 7);
    std::fs::create_dir(queue.join(&unreadable)).expect("plant unreadable entry");

    let telemetry = Arc::new(Telemetry::new(0));
    let dir = OutputDir::create(&root)
        .expect("reopen")
        .with_telemetry(Arc::clone(&telemetry));
    let reloaded = dir.load_corpus().expect("damaged corpus still loads");
    assert_eq!(reloaded.len(), output.corpus.len() - 1);
    assert_eq!(telemetry.get(TelemetryEvent::QuarantinedEntry), 2);

    // Both damaged entries moved to quarantine, each with a reason file.
    let quarantined: Vec<String> = std::fs::read_dir(dir.quarantine_dir())
        .expect("quarantine dir exists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert!(quarantined.iter().any(|n| n.contains(truncated.as_str())));
    assert!(quarantined.iter().any(|n| n.contains(&unreadable)));
    assert_eq!(
        quarantined
            .iter()
            .filter(|n| n.ends_with(".reason"))
            .count(),
        2
    );

    // The surviving corpus is still a usable seed set.
    let mut reseeded = Campaign::new(config(500), &interpreter, &instrumentation);
    reseeded.add_seeds(reloaded);
    let stats = reseeded.run_with_hook(500, |_| {});
    assert!(stats.execs >= 500);

    std::fs::remove_dir_all(&root).ok();
}

/// Hung-worker detection in a real process fleet: one worker wedges at
/// its third sync boundary (executions frozen, heartbeats still
/// flowing — every 25 ms, a sixtieth of the deadline, so the frozen exec
/// counter rather than pipe silence is what trips it). The parent's
/// progress deadline must kill it, count the miss, and restart it
/// through the ordinary supervision path — and the restarted worker
/// still completes its full budget.
#[test]
fn stuck_worker_is_killed_by_the_liveness_deadline_and_restarted() {
    let root = tmp_root("stuck");
    std::fs::create_dir_all(&root).expect("create temp dir");
    let jsonl = root.join("fleet.jsonl");
    let sentinel = root.join("stall-once");

    let config = FleetConfig {
        instances: 2,
        max_restarts: 2,
        backoff: Duration::from_millis(10),
        telemetry: Some(JsonlSink::to_file(&jsonl).expect("create fleet jsonl")),
        liveness_deadline: Some(Duration::from_millis(1_500)),
    };
    let command = |index| {
        let mut cmd = Command::new(WORKER);
        cmd.args([
            "--benchmark",
            "gvn",
            "--execs",
            "4000",
            "--sync-every",
            "250",
            "--map-size",
            "m2",
        ]);
        cmd.arg("--checkpoint-root").arg(&root);
        if index == 1 {
            cmd.arg("--stall-once").arg(&sentinel);
        }
        cmd
    };
    let stats = run_fleet(&config, Transport::Processes(&command));

    assert!(sentinel.exists(), "the injected stall never armed");
    assert_eq!(stats.health[0], InstanceHealth::Running);
    assert!(
        matches!(stats.health[1], InstanceHealth::Restarted(n) if n >= 1),
        "stuck worker was not killed and restarted: {:?}",
        stats.health[1]
    );
    assert!(
        stats.heartbeat_misses >= 1,
        "liveness kill must be counted as a heartbeat miss"
    );
    assert!(
        stats.telemetry.get(TelemetryEvent::HeartbeatMiss) >= 1,
        "the miss must surface in the merged fleet telemetry"
    );
    // The survivor never tripped the deadline, and the restarted worker
    // resumed from its checkpoint to deliver the full budget.
    assert_eq!(stats.instances[0].execs, 4_000);
    assert_eq!(stats.instances[1].execs, 4_000);

    // The merged stream still covers both nodes.
    let text = std::fs::read_to_string(&jsonl).expect("fleet jsonl written");
    let snapshots = parse_jsonl(&text).expect("fleet jsonl parses");
    let nodes: HashSet<usize> = snapshots.iter().map(|s| s.node).collect();
    assert!(nodes.contains(&0) && nodes.contains(&1));

    std::fs::remove_dir_all(&root).ok();
}

/// A liveness deadline shorter than the default deadline's 500 ms
/// heartbeat cadence must not kill a healthy worker: the parent derives
/// the cadence from the deadline, so a worker that fuzzes for several
/// deadlines without reaching a sync boundary still proves its progress
/// by heartbeat.
#[test]
fn busy_worker_outlives_a_short_liveness_deadline() {
    // About two seconds of fuzzing in either test profile: 2.9–3.1 s
    // (debug) and 2.5 s (release) on a 2-vCPU VM.
    const EXECS: u64 = if cfg!(debug_assertions) {
        150_000
    } else {
        600_000
    };
    let deadline = Duration::from_millis(400);
    let config = FleetConfig {
        instances: 1,
        liveness_deadline: Some(deadline),
        ..Default::default()
    };
    let command = |_| {
        let mut cmd = Command::new(WORKER);
        cmd.args(["--benchmark", "gvn", "--map-size", "m2"]);
        // No sync boundary inside the budget: heartbeats are the only
        // progress the parent sees until the worker is done.
        cmd.arg("--execs").arg(EXECS.to_string());
        cmd.arg("--sync-every").arg((10 * EXECS).to_string());
        cmd
    };
    let stats = run_fleet(&config, Transport::Processes(&command));

    assert_eq!(stats.health[0], InstanceHealth::Running);
    assert_eq!(stats.heartbeat_misses, 0);
    assert_eq!(stats.instances[0].execs, EXECS);
    assert!(
        stats.instances[0].wall_time > 2 * deadline,
        "the campaign took {:?}, too short to span the deadline",
        stats.instances[0].wall_time
    );
}
