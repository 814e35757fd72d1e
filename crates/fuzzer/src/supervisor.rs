//! Fleet supervision: the one thread-fleet runner.
//!
//! Every instance runs under a supervisor loop that catches its panic,
//! waits out a linear backoff, and relaunches it — restored from its last
//! on-disk checkpoint when a checkpoint directory is configured, from the
//! seed corpus otherwise. Restart attempts are bounded; an instance that
//! keeps dying is declared [`InstanceHealth::Dead`] and the rest of the
//! fleet carries on. With the default policy (zero restarts, which
//! [`run_parallel`](crate::parallel::run_parallel) uses) a panic is only
//! *contained*: the fleet survives and the instance's work is lost.
//!
//! ## Sync consistency across restarts
//!
//! A relaunched instance re-reads the **entire** hub (its sync cursor
//! restarts at zero) instead of trying to remember how far its dead
//! predecessor had read: the campaign's novelty filter discards
//! everything already covered, so re-importing is merely redundant work,
//! while resuming a stale cursor could silently skip other instances'
//! finds forever. In the other direction the hub's content-idempotent
//! `publish` guarantees that finds the predecessor had already shared are
//! not duplicated when the successor rediscovers them. Fault ordinals
//! live in the shared [`InstanceFaults`] handle, *outside* the restarted
//! campaign, so a fault scheduled at the Nth occurrence fires exactly
//! once per campaign lifetime — not once per restart.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bigmap_coverage::Instrumentation;
use bigmap_target::{Interpreter, Program};

use crate::campaign::{Campaign, CampaignConfig, CampaignStats};
use crate::checkpoint::CheckpointManager;
use crate::faults::{FaultPlan, InstanceFaults};
use crate::parallel::{InstanceHealth, ParallelStats, SyncHub};
use crate::telemetry::{Telemetry, TelemetryEvent, TelemetryRegistry};

/// Supervision policy for a fleet.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Restarts allowed per instance before it is declared dead.
    pub max_restarts: u32,
    /// Base delay before a relaunch; attempt N waits `backoff * N`
    /// (linear backoff keeps a crash-looping instance from burning CPU).
    pub backoff: Duration,
    /// Checkpoint cadence in executions (checked at sync boundaries).
    /// Ignored without a `checkpoint_root`.
    pub checkpoint_every: u64,
    /// Root directory for checkpoints; each instance writes into
    /// `instance-NN/` below it. `None` disables checkpointing — restarts
    /// then begin again from the seed corpus.
    pub checkpoint_root: Option<PathBuf>,
    /// Wall-clock floor between snapshots (see
    /// [`CheckpointManager::with_min_interval`]): bounds the write rate
    /// on fast instances where the exec cadence alone would checkpoint
    /// hundreds of times per second. Zero = pure exec cadence.
    pub checkpoint_min_interval: Duration,
    /// Deterministic fault schedule applied to every instance.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl SupervisorConfig {
    /// A forgiving default policy: 3 restarts, 25 ms base backoff,
    /// checkpoint every 1000 executions but at most every 250 ms (once a
    /// root is set).
    pub fn resilient() -> Self {
        SupervisorConfig {
            max_restarts: 3,
            backoff: Duration::from_millis(25),
            checkpoint_every: 1_000,
            checkpoint_root: None,
            checkpoint_min_interval: Duration::from_millis(250),
            fault_plan: None,
        }
    }
}

/// Renders a `catch_unwind` payload as text (panic messages are `&str`
/// or `String` in practice; anything else becomes a placeholder).
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One attempt at running an instance's campaign start-to-finish.
/// Everything constructed here dies with the attempt; state that must
/// survive a restart (fault ordinals, telemetry counters, the hub) is
/// passed in via `Arc`.
#[allow(clippy::too_many_arguments)]
fn run_instance_attempt(
    program: &Program,
    instrumentation: &Instrumentation,
    config: &CampaignConfig,
    seeds: &[Vec<u8>],
    instance: usize,
    sync_every: u64,
    checkpoint_every: u64,
    checkpoint_min_interval: Duration,
    hub: &Arc<SyncHub>,
    telemetry: Option<&Arc<Telemetry>>,
    faults: Option<&Arc<InstanceFaults>>,
    checkpoint_dir: Option<&PathBuf>,
    registry: Option<&TelemetryRegistry>,
) -> CampaignStats {
    let interpreter = Interpreter::with_config(program, config.exec);
    let mut campaign = Campaign::new(config.clone(), &interpreter, instrumentation);
    if let Some(tel) = telemetry {
        campaign.set_telemetry(Arc::clone(tel));
    }
    if let Some(faults) = faults {
        campaign.set_faults(Arc::clone(faults));
    }

    let mut manager = checkpoint_dir.map(|dir| {
        CheckpointManager::new(dir, checkpoint_every).with_min_interval(checkpoint_min_interval)
    });
    let restored = match checkpoint_dir {
        Some(dir) => match CheckpointManager::load_with_report(dir, faults.map(Arc::as_ref)) {
            Ok(Some((checkpoint, report))) => {
                if !report.skipped.is_empty() {
                    if let Some(tel) = telemetry {
                        tel.add(
                            crate::telemetry::TelemetryEvent::CheckpointFallback,
                            report.skipped.len() as u64,
                        );
                    }
                }
                campaign.restore(&checkpoint);
                true
            }
            Ok(None) => false,
            // No generation intact at all: a cold start, not a death loop.
            Err(_) => false,
        },
        None => false,
    };
    if !restored {
        campaign.add_seeds(seeds.to_vec());
        // The shared seed corpus is common knowledge; publishing it would
        // only make the others re-execute inputs they already have.
        let _ = campaign.take_fresh_finds();
    }

    // Cursor restarts at zero on every attempt — see the module docs.
    let mut cursor = 0u64;
    let hub_for_hook = Arc::clone(hub);
    let tel_for_hook = telemetry.cloned();

    let stats = campaign.run_with_hook(sync_every, move |c| {
        // Fetch first, publish second: the publisher filter in fetch_since
        // makes the order a performance nicety rather than a correctness
        // requirement, but fetching first keeps the cursor arithmetic
        // trivially monotone. The cursor lives and dies with this attempt,
        // so an overrun is impossible — hence the expect.
        let fetched = hub_for_hook
            .fetch_since(&mut cursor, instance)
            .expect("local sync cursor cannot overrun");
        for input in fetched {
            c.import(&input);
        }
        let finds = c.take_fresh_finds();
        if let Some(tel) = &tel_for_hook {
            tel.add(TelemetryEvent::SyncPublish, finds.len() as u64);
            // Snapshot at the sync boundary — the only place the fleet
            // pays sink I/O.
            if let Some(registry) = registry {
                registry.emit(tel);
            }
        }
        hub_for_hook.publish(instance, finds);
        if let Some(manager) = &mut manager {
            // A failed write (injected or real) degrades one checkpoint,
            // never the campaign: the previous file is still intact.
            let _ = manager.maybe_checkpoint(c);
        }
    });
    // The final snapshot: without it the sink would stop at the last sync
    // boundary and miss the work done after it.
    if let (Some(registry), Some(tel)) = (registry, telemetry) {
        registry.emit(tel);
    }
    stats
}

/// Runs a supervised master–secondary fleet: every instance gets the same
/// configuration except that instance 0 (the master) runs the
/// deterministic stages and each instance's RNG is decorrelated by its
/// index. Each instance is relaunched after a panic according to
/// `supervisor` — restored from its checkpoint when checkpointing is
/// configured. With a `registry`, each instance emits a telemetry snapshot
/// at every sync boundary and once at campaign end. Per-instance health
/// lands in [`ParallelStats::health`]: `Running` (no intervention),
/// `Restarted(n)`, or `Dead(panic message)`.
///
/// A restarted instance keeps its telemetry handle and fault ordinals
/// (they live outside the campaign), so counters accumulate across the
/// whole supervised lifetime and fault schedules do not replay.
///
/// # Panics
///
/// Panics if `instances == 0` or `seeds` is empty.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised(
    program: &Program,
    instrumentation: &Instrumentation,
    base_config: &CampaignConfig,
    seeds: &[Vec<u8>],
    instances: usize,
    sync_every: u64,
    supervisor: &SupervisorConfig,
    registry: Option<&TelemetryRegistry>,
) -> ParallelStats {
    assert!(instances > 0, "need at least one instance");
    assert!(!seeds.is_empty(), "need a seed corpus");

    let hub = Arc::new(SyncHub::new());

    let results: Vec<(CampaignStats, InstanceHealth)> = thread::scope(|scope| {
        let mut handles = Vec::with_capacity(instances);
        for instance in 0..instances {
            let hub = Arc::clone(&hub);
            let seeds = seeds.to_vec();
            let telemetry = registry.map(|r| r.register(instance));
            let faults = supervisor
                .fault_plan
                .as_ref()
                .map(|plan| Arc::new(InstanceFaults::new(Arc::clone(plan), instance)));
            let checkpoint_dir = supervisor
                .checkpoint_root
                .as_ref()
                .map(|root| root.join(format!("instance-{instance:02}")));
            let mut config = base_config.clone();
            config.seed =
                base_config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(instance as u64 + 1));
            config.deterministic = instance == 0 && base_config.deterministic;

            handles.push(scope.spawn(move || {
                // Contain panics to the instance: a dying worker costs the
                // fleet one instance's results, not the whole session
                // (thread::scope would otherwise re-raise on join).
                let mut restarts = 0u32;
                loop {
                    let attempt = catch_unwind(AssertUnwindSafe(|| {
                        run_instance_attempt(
                            program,
                            instrumentation,
                            &config,
                            &seeds,
                            instance,
                            sync_every,
                            supervisor.checkpoint_every,
                            supervisor.checkpoint_min_interval,
                            &hub,
                            telemetry.as_ref(),
                            faults.as_ref(),
                            checkpoint_dir.as_ref(),
                            registry,
                        )
                    }));
                    match attempt {
                        Ok(stats) => {
                            let health = if restarts == 0 {
                                InstanceHealth::Running
                            } else {
                                InstanceHealth::Restarted(restarts)
                            };
                            return (stats, health);
                        }
                        Err(payload) => {
                            let msg = panic_message(payload);
                            restarts += 1;
                            if restarts > supervisor.max_restarts {
                                return (CampaignStats::default(), InstanceHealth::Dead(msg));
                            }
                            thread::sleep(supervisor.backoff * restarts);
                        }
                    }
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("supervisor thread must not panic"))
            .collect()
    });

    // Fleet-wide crash dedup: the Crashwalk bucket hash of a (stack, site)
    // pair is instance-independent, so the union of per-instance bucket
    // sets is the exact fleet-wide unique count.
    let unique_crashes = results
        .iter()
        .flat_map(|(s, _)| s.crash_buckets.iter().copied())
        .collect::<std::collections::HashSet<u32>>()
        .len();
    let (instances, health) = results.into_iter().unzip();

    ParallelStats {
        instances,
        health,
        unique_crashes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Budget;
    use crate::faults::FaultSite;
    use bigmap_core::{MapScheme, MapSize};
    use bigmap_target::GeneratorConfig;

    fn setup() -> (Program, Instrumentation) {
        let program = GeneratorConfig {
            seed: 19,
            functions: 6,
            gates_per_function: 10,
            crash_sites: 2,
            crash_guard_width: 2,
            ..Default::default()
        }
        .generate();
        let inst =
            Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 3);
        (program, inst)
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
        let dir = std::env::temp_dir().join(format!("bigmap-sup-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn fault_free_fleet_matches_parallel_shape() {
        let (program, inst) = setup();
        let stats = run_supervised(
            &program,
            &inst,
            &config(800),
            &[vec![0u8; 24]],
            2,
            400,
            &SupervisorConfig::resilient(),
            None,
        );
        assert_eq!(stats.health, vec![InstanceHealth::Running; 2]);
        // Sync imports count as executions, so a hook landing exactly on
        // the budget boundary can push an instance slightly past it —
        // same accounting as run_parallel.
        assert!(stats.total_execs() >= 2 * 800);
        for s in &stats.instances {
            assert!(s.execs >= 800);
        }
    }

    #[test]
    fn sink_ends_with_each_instance_final_snapshot() {
        use crate::telemetry::{parse_jsonl, JsonlSink, SharedBuffer, TelemetrySnapshot};
        let (program, inst) = setup();
        let buffer = SharedBuffer::new();
        let registry = TelemetryRegistry::with_sink(JsonlSink::new(Box::new(buffer.clone())));
        run_supervised(
            &program,
            &inst,
            &config(1_000),
            &[vec![0u8; 24]],
            2,
            // One sync boundary at ~600 execs, none at the budget's end:
            // the sink holds the final counters only via the final emit.
            600,
            &SupervisorConfig::default(),
            Some(&registry),
        );
        let lines = parse_jsonl(&buffer.contents()).expect("sink writes valid JSONL");
        let live = registry.snapshots();
        assert_eq!(live.len(), 2);
        for live in live {
            let last = lines
                .iter()
                .rev()
                .find(|line| line.instance == live.instance)
                .expect("every instance emits");
            // Every counter and stage clock matches; only the wall clock
            // moved on since the final emit.
            let expected = TelemetrySnapshot {
                wall_nanos: last.wall_nanos,
                ..live
            };
            assert_eq!(*last, expected, "instance {}", last.instance);
        }
    }

    #[test]
    fn injected_panic_is_restarted_and_completes() {
        let (program, inst) = setup();
        let root = tmp_root("restart");
        let plan = Arc::new(FaultPlan::new().inject(FaultSite::WorkerPanic, 1, 1));
        let supervisor = SupervisorConfig {
            max_restarts: 3,
            backoff: Duration::from_millis(1),
            checkpoint_every: 200,
            checkpoint_root: Some(root.clone()),
            checkpoint_min_interval: Duration::ZERO,
            fault_plan: Some(plan),
        };
        let stats = run_supervised(
            &program,
            &inst,
            &config(2_000),
            &[vec![0u8; 24]],
            2,
            200,
            &supervisor,
            None,
        );
        assert_eq!(stats.health[0], InstanceHealth::Running);
        assert_eq!(stats.health[1], InstanceHealth::Restarted(1));
        assert!(stats.all_completed());
        // The restarted instance resumed from its checkpoint and still
        // delivered its full budget.
        assert!(stats.instances[1].execs >= 2_000);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn restart_without_checkpoints_starts_from_seeds() {
        let (program, inst) = setup();
        let plan = Arc::new(FaultPlan::new().inject(FaultSite::WorkerPanic, 0, 0));
        let supervisor = SupervisorConfig {
            max_restarts: 2,
            backoff: Duration::from_millis(1),
            checkpoint_every: 0,
            checkpoint_root: None,
            checkpoint_min_interval: Duration::ZERO,
            fault_plan: Some(plan),
        };
        let stats = run_supervised(
            &program,
            &inst,
            &config(600),
            &[vec![0u8; 24]],
            1,
            200,
            &supervisor,
            None,
        );
        assert_eq!(stats.health[0], InstanceHealth::Restarted(1));
        assert!(stats.instances[0].execs >= 600);
    }

    #[test]
    fn exhausted_restart_budget_reports_dead() {
        let (program, inst) = setup();
        // Panic at every sync boundary the instance will ever reach.
        let plan = Arc::new(FaultPlan::new().inject_seeded(7, FaultSite::WorkerPanic, 0, 64, 64));
        let supervisor = SupervisorConfig {
            max_restarts: 1,
            backoff: Duration::from_millis(1),
            checkpoint_every: 0,
            checkpoint_root: None,
            checkpoint_min_interval: Duration::ZERO,
            fault_plan: Some(plan),
        };
        let stats = run_supervised(
            &program,
            &inst,
            &config(1_000),
            &[vec![0u8; 24]],
            1,
            100,
            &supervisor,
            None,
        );
        match &stats.health[0] {
            InstanceHealth::Dead(msg) => assert!(msg.contains("injected worker panic")),
            other => panic!("expected dead instance, got {other:?}"),
        }
        assert_eq!(stats.instances[0].execs, 0);
    }
}
