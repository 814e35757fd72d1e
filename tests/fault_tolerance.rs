//! Acceptance tests for the fault-tolerant campaign runtime.
//!
//! Exercises the three layers end to end through the public facade:
//! deterministic fault injection (worker panics, checkpoint-write
//! failures), the supervised thread fleet that restarts crashed
//! instances from their checkpoints, and single-campaign kill-and-resume
//! via the on-disk checkpoint format. The fleet scenarios on both
//! transports, threads and worker processes, are in
//! `fleet_transports.rs`.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bigmap::prelude::*;

fn fixture() -> (Program, Instrumentation, Vec<Vec<u8>>) {
    let program = GeneratorConfig {
        seed: 23,
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
        ..Default::default()
    }
}

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bigmap-ft-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs the fixture campaign as a thread fleet under `fleet`.
fn run_thread_fleet(fleet: &FleetConfig, execs: u64, options: InstanceOptions) -> FleetStats {
    let (program, instrumentation, seeds) = fixture();
    let config = config(execs);
    let instance = Instance {
        program: &program,
        instrumentation: &instrumentation,
        config: &config,
        seeds: &seeds,
        options,
    };
    run_fleet(fleet, Transport::Threads(instance))
}

/// The headline acceptance test: a two-instance fleet with an injected
/// worker panic completes with `Restarted` health, still trades inputs
/// over the hub, and lands within noise of the uninjected fleet's
/// coverage.
#[test]
fn injected_panic_fleet_completes_within_noise_of_clean_fleet() {
    let fleet = FleetConfig {
        instances: 2,
        max_restarts: 3,
        backoff: Duration::from_millis(1),
        ..FleetConfig::default()
    };
    let options = InstanceOptions {
        sync_every: 200,
        checkpoint_every: 200,
        checkpoint_min_interval: Duration::from_millis(250),
        ..InstanceOptions::default()
    };
    let clean = run_thread_fleet(&fleet, 2_000, options.clone());
    assert_eq!(clean.health, vec![InstanceHealth::Running; 2]);

    let root = tmp_root("noise");
    let injected = run_thread_fleet(
        &fleet,
        2_000,
        InstanceOptions {
            checkpoint_root: Some(root.clone()),
            fault_plan: Some(Arc::new(FaultPlan::new().inject(
                FaultSite::WorkerPanic,
                1,
                1,
            ))),
            ..options
        },
    );

    assert_eq!(injected.health[0], InstanceHealth::Running);
    assert_eq!(injected.health[1], InstanceHealth::Restarted(1));
    assert!(injected.all_completed());
    // The restarted instance resumed from its checkpoint and still
    // delivered its full budget.
    assert!(injected.instances[1].execs >= 2_000);

    // Sync traffic survived the restart: finds were still published to
    // the hub (the content-idempotent hub deduplicates re-publications
    // from the relaunched instance instead of dropping fresh ones).
    assert!(
        injected.telemetry.get(TelemetryEvent::SyncPublish) > 0,
        "restarted fleet published nothing"
    );

    // Coverage within noise of the clean fleet: the restart loses at most
    // the work since the last checkpoint, not the campaign.
    let best = |stats: &FleetStats| {
        stats
            .instances
            .iter()
            .map(|s| s.used_len)
            .max()
            .unwrap_or(0)
    };
    let (clean_cov, injected_cov) = (best(&clean), best(&injected));
    assert!(injected_cov > 0);
    assert!(
        injected_cov as f64 >= clean_cov as f64 * 0.6,
        "injected fleet covered {injected_cov} slots vs clean {clean_cov}"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Kill-and-resume through the on-disk format: a campaign cut short at a
/// fraction of its budget resumes from its checkpoint and finishes with
/// monotonically increasing exec counts and no duplicate queue entries.
#[test]
fn killed_campaign_resumes_monotonically_without_duplicate_queue_entries() {
    let (program, instrumentation, seeds) = fixture();
    let root = tmp_root("resume");

    // "Kill" at 1200 execs: the run simply ends mid-campaign relative to
    // the full 3000-exec budget, with checkpoints every 300.
    let interpreter = Interpreter::new(&program);
    let mut campaign = Campaign::new(config(1_200), &interpreter, &instrumentation);
    campaign.add_seeds(seeds.clone());
    let mut manager = CheckpointManager::new(&root, 300);
    let partial = campaign.run_with_hook(300, move |c| {
        manager.maybe_checkpoint(c).expect("checkpoint write");
    });
    assert!(partial.execs >= 1_200);

    let snapshot = CheckpointManager::load(&root)
        .expect("checkpoint readable")
        .expect("checkpoint written");
    assert!(snapshot.execs >= 300 && snapshot.execs <= partial.execs);
    let snapshot_execs = snapshot.execs;

    // Resume into the full budget.
    let mut resumed = Campaign::new(config(3_000), &interpreter, &instrumentation);
    resumed.restore(&snapshot);
    assert_eq!(resumed.execs(), snapshot_execs);
    let mut manager = CheckpointManager::new(&root, 300);
    let full = resumed.run_with_hook(300, move |c| {
        manager.maybe_checkpoint(c).expect("checkpoint write");
    });
    assert!(full.execs >= 3_000, "resumed run fell short of its budget");
    assert!(full.execs >= snapshot_execs, "exec count went backwards");

    // The on-disk checkpoint advanced monotonically too.
    let last = CheckpointManager::load(&root)
        .expect("checkpoint readable")
        .expect("checkpoint still present");
    assert!(last.execs >= snapshot_execs);

    // No duplicate queue entries: every checkpointed input is distinct
    // (novelty-gated admission must not replay under restore).
    let unique: HashSet<&[u8]> = last.queue.iter().map(|e| e.input.as_slice()).collect();
    assert_eq!(
        unique.len(),
        last.queue.len(),
        "checkpointed queue contains duplicate inputs"
    );

    // Restore → checkpoint round-trips the queue exactly.
    let mut rehydrated = Campaign::new(config(3_000), &interpreter, &instrumentation);
    rehydrated.restore(&last);
    let round_trip = rehydrated.checkpoint();
    assert_eq!(round_trip.queue.len(), last.queue.len());
    assert_eq!(round_trip.execs, last.execs);
    std::fs::remove_dir_all(&root).ok();
}

/// An injected checkpoint-write failure costs one snapshot, never the
/// campaign — and never corrupts the previous snapshot on disk.
#[test]
fn checkpoint_write_fault_degrades_one_snapshot_not_the_campaign() {
    let (program, instrumentation, seeds) = fixture();
    let root = tmp_root("wfault");

    let plan = Arc::new(FaultPlan::new().inject(FaultSite::CheckpointWrite, 0, 1));
    let interpreter = Interpreter::new(&program);
    let mut campaign = Campaign::new(config(400), &interpreter, &instrumentation);
    campaign.set_faults(Arc::new(InstanceFaults::new(plan, 0)));
    campaign.add_seeds(seeds);

    let manager = CheckpointManager::new(&root, 100);
    // First write succeeds and leaves a good snapshot behind.
    manager.checkpoint_now(&campaign).expect("first write");
    let good = CheckpointManager::load(&root)
        .expect("readable")
        .expect("present");

    // Second write hits the injected fault...
    let err = manager.checkpoint_now(&campaign).unwrap_err();
    assert!(err
        .to_string()
        .contains("injected checkpoint write failure"));

    // ...but the previous snapshot is untouched and still loads.
    let after = CheckpointManager::load(&root)
        .expect("still readable")
        .expect("still present");
    assert_eq!(after.execs, good.execs);
    assert_eq!(after.queue.len(), good.queue.len());

    // And the fault schedule is one-shot: the next write succeeds again.
    manager.checkpoint_now(&campaign).expect("third write");
    std::fs::remove_dir_all(&root).ok();
}

/// The no-restart containment path: a panicking instance is reported
/// `Dead` while the rest of the fleet finishes untouched.
#[test]
fn unsupervised_fleet_contains_a_dead_instance() {
    let plan = Arc::new(FaultPlan::new().inject(FaultSite::WorkerPanic, 1, 0));
    let fleet = FleetConfig {
        instances: 2,
        ..FleetConfig::default()
    };
    let stats = run_thread_fleet(
        &fleet,
        1_000,
        InstanceOptions {
            sync_every: 250,
            fault_plan: Some(plan),
            ..InstanceOptions::default()
        },
    );
    assert_eq!(stats.health[0], InstanceHealth::Running);
    match &stats.health[1] {
        InstanceHealth::Dead(msg) => assert!(msg.contains("injected worker panic")),
        other => panic!("expected dead instance, got {other:?}"),
    }
    assert!(!stats.all_completed());
    // The survivor's work is intact; the dead instance contributes an
    // all-zero record.
    assert!(stats.instances[0].execs >= 1_000);
    assert_eq!(stats.instances[1].execs, 0);
}
