//! Parallel fuzzing: the master–secondary configuration (§V-D).
//!
//! One master instance (runs the deterministic stages first) plus N−1
//! secondaries (havoc only), each on its own OS thread with its own
//! coverage map and virgin state, periodically cross-pollinating their
//! corpora through a shared exchange — the paper's "output corpus is
//! periodically synchronized between these instances".
//!
//! Threads share nothing hot: each instance owns its maps, so the only
//! interaction between instances is (a) the corpus exchange, which is a
//! coarse-grained mutex touched every few thousand executions, and (b) the
//! machine's shared last-level cache — the resource whose exhaustion
//! produces the paper's Figure 9 scaling collapse for AFL.
//!
//! ## Sync protocol
//!
//! Published inputs are tagged with their publisher's instance index and
//! stored as [`Arc<[u8]>`], so (a) a fetch is O(new entries) pointer
//! clones — payload bytes are shared across the whole fleet, never
//! deep-copied — and (b) an instance structurally **cannot** re-import its
//! own finds: [`SyncHub::fetch_since`] skips entries it published itself.
//! Each instance fetches *before* publishing at every sync point, and a
//! 1-instance fleet performs zero imports (verified by the telemetry
//! regression tests).
//!
//! The exchange contract itself now lives in [`crate::sync`] as the
//! [`CorpusSync`](crate::sync::CorpusSync) trait; this module keeps using
//! the in-memory [`SyncHub`] (re-exported here for compatibility), while
//! [`crate::fabric`] drives the same contract across process boundaries.

use bigmap_coverage::Instrumentation;
use bigmap_target::Program;

use crate::campaign::{CampaignConfig, CampaignStats};
use crate::supervisor::{run_supervised, SupervisorConfig};
use crate::telemetry::TelemetryRegistry;

pub use crate::sync::SyncHub;

/// Terminal health of one fleet instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceHealth {
    /// Completed its budget without intervention.
    Running,
    /// Panicked at least once, was restarted by the supervisor, and then
    /// completed. Carries the restart count.
    Restarted(u32),
    /// Died and stayed dead (the restart budget, zero by default, ran
    /// out). Carries the final panic message; its slot in
    /// [`ParallelStats::instances`] holds default (all-zero) stats.
    Dead(String),
}

impl InstanceHealth {
    /// Whether the instance delivered a completed campaign (possibly
    /// after restarts).
    pub fn completed(&self) -> bool {
        !matches!(self, InstanceHealth::Dead(_))
    }
}

/// Results of a parallel session.
#[derive(Debug, Clone)]
pub struct ParallelStats {
    /// Per-instance campaign statistics (index 0 is the master). An
    /// instance whose health is [`InstanceHealth::Dead`] contributes
    /// default (all-zero) stats.
    pub instances: Vec<CampaignStats>,
    /// Per-instance terminal health, index-aligned with `instances`.
    pub health: Vec<InstanceHealth>,
    /// Fleet-wide unique crashes (Crashwalk, deduplicated *across*
    /// instances).
    pub unique_crashes: usize,
}

impl ParallelStats {
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

/// Runs `instances` concurrent campaigns in the master–secondary
/// configuration over one target.
///
/// Every instance gets the same configuration except: instance 0 (the
/// master) runs the deterministic stages, and each instance's RNG is
/// decorrelated by its index. All instances fuzz the same program with the
/// same instrumentation (the paper pins each to a core; we let the OS
/// schedule the threads).
///
/// # Panics
///
/// Panics if `instances == 0` or `seeds` is empty.
pub fn run_parallel(
    program: &Program,
    instrumentation: &Instrumentation,
    base_config: &CampaignConfig,
    seeds: &[Vec<u8>],
    instances: usize,
    sync_every: u64,
) -> ParallelStats {
    run_parallel_with_telemetry(
        program,
        instrumentation,
        base_config,
        seeds,
        instances,
        sync_every,
        None,
    )
}

/// [`run_parallel`] with a live telemetry registry attached.
///
/// Each instance registers a [`Telemetry`](crate::telemetry::Telemetry)
/// handle under its instance index, counts every pipeline event and sync
/// exchange, and emits a [`TelemetrySnapshot`](crate::TelemetrySnapshot)
/// to the registry's sink at every sync boundary plus once at campaign
/// end. Per-instance final snapshots also land in each
/// [`CampaignStats::telemetry`].
///
/// This is [`run_supervised`] with no restarts: a worker panic is
/// contained to its instance, which is reported as
/// [`InstanceHealth::Dead`] (zeroed stats) while the rest of the fleet
/// finishes.
///
/// # Panics
///
/// Panics if `instances == 0` or `seeds` is empty.
pub fn run_parallel_with_telemetry(
    program: &Program,
    instrumentation: &Instrumentation,
    base_config: &CampaignConfig,
    seeds: &[Vec<u8>],
    instances: usize,
    sync_every: u64,
    registry: Option<&TelemetryRegistry>,
) -> ParallelStats {
    run_supervised(
        program,
        instrumentation,
        base_config,
        seeds,
        instances,
        sync_every,
        &SupervisorConfig::default(),
        registry,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Budget;
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

    // The hub contract tests (round-trip, publisher filtering, cursor
    // errors, idempotence, payload sharing) live in `crate::sync`, run
    // against both `CorpusSync` implementations.

    #[test]
    fn single_instance_parallel_equals_plain_run_shape() {
        let (program, inst) = setup();
        let stats = run_parallel(&program, &inst, &config(1_500), &[vec![0u8; 24]], 1, 500);
        assert_eq!(stats.instances.len(), 1);
        assert_eq!(stats.total_execs(), 1_500);
        assert!(stats.throughput() > 0.0);
    }

    #[test]
    fn four_instances_generate_four_fold_tests() {
        let (program, inst) = setup();
        let stats = run_parallel(&program, &inst, &config(800), &[vec![0u8; 24]], 4, 400);
        assert_eq!(stats.instances.len(), 4);
        // Sync imports count as executions, so a hook that fires exactly
        // on the budget boundary can nudge an instance a few execs past
        // it; the fleet delivers at least its nominal volume.
        assert!(stats.total_execs() >= 4 * 800);
        for s in &stats.instances {
            assert!(s.execs >= 800 && s.execs < 900);
        }
    }

    #[test]
    fn instances_are_decorrelated() {
        let (program, inst) = setup();
        let stats = run_parallel(&program, &inst, &config(1_000), &[vec![0u8; 24]], 2, 300);
        // Different RNG streams → (almost surely) different queue growth.
        let q0 = stats.instances[0].queue_len;
        let q1 = stats.instances[1].queue_len;
        assert!(q0 > 1 && q1 > 1);
    }

    #[test]
    fn healthy_fleet_reports_running() {
        let (program, inst) = setup();
        let stats = run_parallel(&program, &inst, &config(500), &[vec![0u8; 24]], 2, 250);
        assert_eq!(stats.health, vec![InstanceHealth::Running; 2]);
        assert!(stats.all_completed());
    }

    #[test]
    fn injected_panic_kills_one_instance_not_the_fleet() {
        use crate::faults::{FaultPlan, FaultSite};
        use std::sync::Arc;
        let (program, inst) = setup();
        // Instance 1 panics at its first sync boundary; instance 0 is
        // untouched.
        let plan = Arc::new(FaultPlan::new().inject(FaultSite::WorkerPanic, 1, 0));
        let supervisor = SupervisorConfig {
            fault_plan: Some(plan),
            ..Default::default()
        };
        let stats = run_supervised(
            &program,
            &inst,
            &config(1_000),
            &[vec![0u8; 24]],
            2,
            200,
            &supervisor,
            None,
        );
        assert_eq!(stats.health[0], InstanceHealth::Running);
        match &stats.health[1] {
            InstanceHealth::Dead(msg) => {
                assert!(msg.contains("injected worker panic"), "got: {msg}");
            }
            other => panic!("instance 1 should be dead, got {other:?}"),
        }
        assert!(!stats.all_completed());
        // The survivor's work is intact; the corpse contributes zeros.
        assert_eq!(stats.instances[0].execs, 1_000);
        assert_eq!(stats.instances[1].execs, 0);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_panics() {
        let (program, inst) = setup();
        run_parallel(&program, &inst, &config(10), &[vec![0u8; 8]], 0, 100);
    }

    #[test]
    #[should_panic(expected = "seed corpus")]
    fn empty_seeds_panics() {
        let (program, inst) = setup();
        run_parallel(&program, &inst, &config(10), &[], 2, 100);
    }
}
