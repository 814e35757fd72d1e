//! The fleet runtime: master–secondary campaigns (§V-D) over one of two
//! transports.
//!
//! One master instance (runs the deterministic stages first) plus N−1
//! secondaries (havoc only), each with its own coverage map and virgin
//! state, periodically cross-pollinate their corpora through one shared
//! [`ShardedHub`] — the paper's "output corpus is periodically
//! synchronized between these instances". [`run_fleet`] runs the
//! instances either as threads of this process ([`Transport::Threads`])
//! or as child processes ([`Transport::Processes`], see
//! [`crate::fabric`]). Both transports share everything but the link:
//!
//! * **One instance body** ([`Instance`]): decorrelate the RNG seed and
//!   the deterministic flag by instance index, build the campaign,
//!   restore the newest intact checkpoint generation (or add the seeds),
//!   and at every sync boundary fetch and import, publish fresh finds,
//!   report a telemetry snapshot and maybe checkpoint; one last snapshot
//!   at the end. A thread calls it against the hub directly; a worker
//!   process calls it through [`run_worker`](crate::fabric::run_worker)
//!   against a pipe-backed [`CorpusSync`] client.
//! * **One restart loop**: an attempt that fails (a thread's panic; a
//!   process's abnormal exit, failed spawn or liveness kill) is retried
//!   after a linear backoff, up to [`FleetConfig::max_restarts`] times,
//!   and the instance ends as [`InstanceHealth::Running`],
//!   [`InstanceHealth::Restarted`] or [`InstanceHealth::Dead`].
//! * **One corpus store** ([`ShardedHub`]) and **one aggregation path**
//!   ([`FleetAggregator`]), which writes every snapshot plus one
//!   `"fleet_total":1` summary line to the optional JSONL sink.
//!
//! ## Sync protocol
//!
//! Published inputs are tagged with their publisher's instance index, so
//! an instance structurally cannot re-import its own finds (the hub's
//! fetch skips them) and a 1-instance fleet performs zero imports. Each
//! instance fetches *before* publishing at every sync point.
//!
//! ## Restarts
//!
//! A relaunched instance restarts its sync cursor at zero instead of
//! trying to remember how far its dead predecessor had read: the
//! campaign's novelty filter discards everything already covered, so
//! re-importing is merely redundant work, while resuming a stale cursor
//! could silently skip other instances' finds forever. The hub's
//! content-idempotent publish makes the successor's republished finds
//! harmless. A thread instance keeps its [`Telemetry`] handle and fault
//! ordinals across restarts (they live outside the attempt, so a fault
//! scheduled at the Nth occurrence fires once per instance lifetime); a
//! process instance gets fresh ones with every spawn.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bigmap_coverage::Instrumentation;
use bigmap_target::{Interpreter, Program};

use crate::campaign::{Campaign, CampaignConfig, CampaignStats};
use crate::checkpoint::CheckpointManager;
use crate::fabric;
use crate::faults::{FaultPlan, InstanceFaults};
use crate::sync::{CorpusSync, ShardedHub};
use crate::telemetry::{FleetAggregator, JsonlSink, Telemetry, TelemetryEvent, TelemetrySnapshot};

/// Terminal health of one fleet instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceHealth {
    /// Completed its budget without intervention.
    Running,
    /// Failed at least once, was restarted, and then completed. Carries
    /// the restart count.
    Restarted(u32),
    /// Failed and stayed failed (the restart budget, zero by default, ran
    /// out). Carries the last failure message; its slot in
    /// [`FleetStats::instances`] holds default (all-zero) stats.
    Dead(String),
}

impl InstanceHealth {
    /// Whether the instance delivered a completed campaign (possibly
    /// after restarts).
    pub fn completed(&self) -> bool {
        !matches!(self, InstanceHealth::Dead(_))
    }
}

/// What [`run_fleet`] returns, on either transport.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Per-instance campaign statistics (index 0 is the master). A
    /// [`InstanceHealth::Dead`] instance contributes default (all-zero)
    /// stats. Stats that come back from a worker process carry only the
    /// fields the wire format packs (see
    /// [`encode_stats`](crate::fabric::encode_stats)).
    pub instances: Vec<CampaignStats>,
    /// Per-instance terminal health, index-aligned with `instances`.
    pub health: Vec<InstanceHealth>,
    /// Fleet-wide unique crashes (Crashwalk buckets deduplicated
    /// *across* instances).
    pub unique_crashes: usize,
    /// Fleet-total telemetry: the latest snapshot of every instance,
    /// merged (also the JSONL stream's `"fleet_total":1` summary line).
    pub telemetry: TelemetrySnapshot,
    /// Worker processes killed by the liveness deadline (always zero for
    /// threads). Each kill also shows up as a `heartbeat_misses` counter
    /// in the merged telemetry.
    pub heartbeat_misses: u64,
}

impl FleetStats {
    /// Total test cases generated by the fleet (the Figure 9b numerator).
    pub fn total_execs(&self) -> u64 {
        self.instances.iter().map(|s| s.execs).sum()
    }

    /// Whether every instance delivered a completed campaign (restarted
    /// instances count as completed; dead ones don't).
    pub fn all_completed(&self) -> bool {
        self.health.iter().all(InstanceHealth::completed)
    }

    /// Fleet throughput: total execs / wall-time of the slowest instance.
    pub fn throughput(&self) -> f64 {
        let wall = self
            .instances
            .iter()
            .map(|s| s.wall_time)
            .max()
            .unwrap_or_default()
            .as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.total_execs() as f64 / wall
        }
    }
}

/// Fleet-level policy for [`run_fleet`].
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Number of instances (threads or worker processes).
    pub instances: usize,
    /// Restarts allowed per instance before it is declared dead. Every
    /// failed attempt counts, including a worker process that cannot be
    /// spawned at all.
    pub max_restarts: u32,
    /// Base delay before a relaunch; restart `n` waits `backoff * n`
    /// (linear backoff keeps a crash-looping instance from burning CPU).
    pub backoff: Duration,
    /// JSONL sink for the merged fleet telemetry: every instance's
    /// snapshots plus one `"fleet_total":1` summary line. Fleets may
    /// share one sink.
    pub telemetry: Option<JsonlSink>,
    /// Processes only: how long a worker may go without progress (any
    /// non-heartbeat frame, or a heartbeat with an advanced exec count)
    /// before it is killed and restarted. `None` means 30 s;
    /// `Some(Duration::ZERO)` disables enforcement. Workers heartbeat 60
    /// times per deadline. A hung thread cannot be killed, so thread
    /// fleets ignore it.
    pub liveness_deadline: Option<Duration>,
}

/// Per-instance knobs of the shared instance body.
#[derive(Debug, Clone, Default)]
pub struct InstanceOptions {
    /// Sync cadence in executions: the exchange runs at the first
    /// mutation-batch boundary at or past every `sync_every` executions.
    /// Zero runs it at every batch boundary.
    pub sync_every: u64,
    /// Root directory for checkpoints; instance `i` restores from and
    /// writes into `instance-<i, two digits>/` below it. `None` disables
    /// checkpointing, and restarts begin again from the seed corpus.
    pub checkpoint_root: Option<PathBuf>,
    /// Checkpoint cadence in executions (checked at sync boundaries).
    pub checkpoint_every: u64,
    /// Wall-clock floor between checkpoints (see
    /// [`CheckpointManager::with_min_interval`]). Zero = pure exec
    /// cadence.
    pub checkpoint_min_interval: Duration,
    /// Deterministic fault schedule; each instance fires the entries
    /// scheduled for its own index.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

/// One fleet instance's campaign: what it fuzzes and how. A thread
/// fleet shares one `Instance` across its threads; a worker process
/// builds its own and hands it to
/// [`run_worker`](crate::fabric::run_worker).
#[derive(Debug, Clone)]
pub struct Instance<'a> {
    /// The target every instance fuzzes.
    pub program: &'a Program,
    /// The target's instrumentation.
    pub instrumentation: &'a Instrumentation,
    /// The base campaign configuration; each instance decorrelates its
    /// RNG seed, and only instance 0 keeps the deterministic stages.
    pub config: &'a CampaignConfig,
    /// The seed corpus.
    pub seeds: &'a [Vec<u8>],
    /// Sync, checkpoint and fault-injection knobs.
    pub options: InstanceOptions,
}

impl Instance<'_> {
    /// The shared instance body: one attempt at instance `index`'s
    /// campaign, start to finish, exchanging corpora through `store` and
    /// handing every telemetry snapshot to `report`. Everything built
    /// here dies with the attempt; `telemetry` and `faults` are owned by
    /// the caller.
    pub(crate) fn run(
        &self,
        index: usize,
        store: &dyn CorpusSync,
        telemetry: &Arc<Telemetry>,
        faults: Option<&Arc<InstanceFaults>>,
        report: &dyn Fn(TelemetrySnapshot),
    ) -> CampaignStats {
        let mut config = self.config.clone();
        config.seed ^= 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1);
        config.deterministic &= index == 0;
        let interpreter = Interpreter::new(self.program);
        let mut campaign = Campaign::new(config, &interpreter, self.instrumentation);
        campaign.set_telemetry(Arc::clone(telemetry));
        if let Some(faults) = faults {
            campaign.set_faults(Arc::clone(faults));
        }

        let options = &self.options;
        let dir = options
            .checkpoint_root
            .as_ref()
            .map(|root| root.join(format!("instance-{index:02}")));
        let restored = dir.as_ref().is_some_and(|dir| {
            match CheckpointManager::load_with_report(dir, faults.map(Arc::as_ref)) {
                Ok(Some((checkpoint, report))) => {
                    telemetry.add(
                        TelemetryEvent::CheckpointFallback,
                        report.skipped.len() as u64,
                    );
                    campaign.restore(&checkpoint);
                    true
                }
                // Nothing on disk, or no generation intact: a cold start,
                // not a death loop.
                _ => false,
            }
        });
        if !restored {
            campaign.add_seeds(self.seeds.to_vec());
            // The shared seed corpus is common knowledge; publishing it
            // would only make the others re-execute inputs they have.
            let _ = campaign.take_fresh_finds();
        }
        let mut manager = dir.map(|dir| {
            CheckpointManager::new(dir, options.checkpoint_every)
                .with_min_interval(options.checkpoint_min_interval)
        });

        // The cursor restarts at zero on every attempt — see the module
        // docs.
        let mut cursor = 0u64;
        let stats = campaign.run_with_hook(options.sync_every, |c| {
            match store.fetch_since(&mut cursor, index) {
                Ok(fetched) => {
                    for input in fetched {
                        c.import(&input);
                    }
                }
                // A corrupt cursor: resync from zero at the next boundary.
                // Novelty gating on import deduplicates the replay.
                Err(_) => cursor = 0,
            }
            let finds = c.take_fresh_finds();
            telemetry.add(TelemetryEvent::SyncPublish, finds.len() as u64);
            store.publish(index, finds);
            report(telemetry.snapshot());
            if let Some(manager) = &mut manager {
                // A failed write (injected or real) degrades one
                // checkpoint, never the campaign: the previous
                // generations are still intact.
                let _ = manager.maybe_checkpoint(c);
            }
        });
        // The final snapshot: without it the aggregate would stop at the
        // last sync boundary and miss the work done after it.
        report(telemetry.snapshot());
        stats
    }
}

/// Where a fleet's instances run.
pub enum Transport<'a> {
    /// Threads of this process, each running the instance body against
    /// the in-memory hub.
    Threads(Instance<'a>),
    /// Child processes: the closure builds the invocation of worker `i`
    /// (typically a binary that rebuilds the same [`Instance`] and calls
    /// [`run_worker`](crate::fabric::run_worker)); [`run_fleet`] adds the
    /// `BIGMAP_FABRIC_WORKER` handshake and wires the pipes.
    Processes(&'a (dyn Fn(usize) -> Command + Sync)),
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

/// The bounded-backoff restart loop: runs `attempt` until it delivers
/// stats or has failed `max_restarts + 1` times.
fn supervise(
    config: &FleetConfig,
    mut attempt: impl FnMut() -> Result<CampaignStats, String>,
) -> (CampaignStats, InstanceHealth) {
    let mut restarts = 0u32;
    loop {
        match attempt() {
            Ok(stats) if restarts == 0 => return (stats, InstanceHealth::Running),
            Ok(stats) => return (stats, InstanceHealth::Restarted(restarts)),
            Err(msg) if restarts == config.max_restarts => {
                return (CampaignStats::default(), InstanceHealth::Dead(msg))
            }
            Err(_) => {
                restarts += 1;
                thread::sleep(config.backoff * restarts);
            }
        }
    }
}

/// Runs a master–secondary fleet of `config.instances` instances over
/// `transport` and supervises each one: a failed attempt is restarted
/// with linear backoff until the restart budget runs out, and the
/// instance's health lands in [`FleetStats::health`]. Every instance
/// exchanges corpora through one [`ShardedHub`] and reports telemetry to
/// one [`FleetAggregator`]; the result is the same on both transports.
///
/// A failed spawn is one failed attempt, like any abnormal exit: a
/// worker that can never be spawned ends [`InstanceHealth::Dead`] after
/// `max_restarts + 1` tries, and the rest of the fleet carries on.
///
/// # Panics
///
/// Panics if `config.instances` is zero, or if a thread fleet has an
/// empty seed corpus.
pub fn run_fleet(config: &FleetConfig, transport: Transport<'_>) -> FleetStats {
    assert!(config.instances > 0, "need at least one instance");
    if let Transport::Threads(instance) = &transport {
        assert!(!instance.seeds.is_empty(), "need a seed corpus");
    }
    let hub = ShardedHub::new();
    let aggregator = config
        .telemetry
        .clone()
        .map_or_else(FleetAggregator::new, FleetAggregator::with_sink);
    let misses = AtomicU64::new(0);

    let results: Vec<(CampaignStats, InstanceHealth)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..config.instances)
            .map(|index| {
                let (hub, aggregator, misses, transport) = (&hub, &aggregator, &misses, &transport);
                scope.spawn(move || match transport {
                    Transport::Threads(instance) => {
                        let telemetry = Arc::new(Telemetry::new(index));
                        let faults = instance
                            .options
                            .fault_plan
                            .as_ref()
                            .map(|plan| Arc::new(InstanceFaults::new(Arc::clone(plan), index)));
                        let report = |snapshot| aggregator.record(0, snapshot);
                        supervise(config, || {
                            catch_unwind(AssertUnwindSafe(|| {
                                instance.run(index, hub, &telemetry, faults.as_ref(), &report)
                            }))
                            .map_err(panic_message)
                        })
                    }
                    Transport::Processes(command) => supervise(config, || {
                        fabric::attempt(command, index, config, hub, aggregator, misses)
                    }),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet supervisor thread panicked"))
            .collect()
    });

    // The Crashwalk bucket hash of a (stack, site) pair is
    // instance-independent, so the union of per-instance bucket sets is
    // the exact fleet-wide unique count.
    let unique_crashes = results
        .iter()
        .flat_map(|(s, _)| s.crash_buckets.iter().copied())
        .collect::<std::collections::HashSet<u32>>()
        .len();
    let (instances, health) = results.into_iter().unzip();
    FleetStats {
        instances,
        health,
        unique_crashes,
        telemetry: aggregator.finish(),
        heartbeat_misses: misses.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Budget;
    use bigmap_core::{MapScheme, MapSize};
    use bigmap_target::GeneratorConfig;

    fn setup() -> (Program, Instrumentation, CampaignConfig) {
        let program = GeneratorConfig {
            seed: 19,
            functions: 6,
            ..Default::default()
        }
        .generate();
        let inst =
            Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 3);
        let config = CampaignConfig {
            scheme: MapScheme::TwoLevel,
            map_size: MapSize::K64,
            budget: Budget::Execs(10),
            ..Default::default()
        };
        (program, inst, config)
    }

    fn fleet(instances: usize, seeds: &[Vec<u8>]) {
        let (program, instrumentation, config) = setup();
        let instance = Instance {
            program: &program,
            instrumentation: &instrumentation,
            config: &config,
            seeds,
            options: InstanceOptions::default(),
        };
        let config = FleetConfig {
            instances,
            ..Default::default()
        };
        run_fleet(&config, Transport::Threads(instance));
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_panics() {
        fleet(0, &[vec![0u8; 8]]);
    }

    #[test]
    #[should_panic(expected = "seed corpus")]
    fn empty_seeds_panics() {
        fleet(2, &[]);
    }
}
