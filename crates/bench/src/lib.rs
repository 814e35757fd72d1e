//! # bigmap-bench
//!
//! Shared plumbing for the per-figure/table harness binaries (`fig2_*` …
//! `table3_*`) and the Criterion micro-benchmarks. Each binary regenerates
//! one table or figure from the paper's evaluation; this library holds the
//! common CLI handling and campaign construction so the binaries stay
//! declarative.
//!
//! All harness binaries accept:
//!
//! * `--quick` — seconds-scale smoke run (small target scale, short
//!   budgets),
//! * `--full` — closer-to-paper scale (minutes to tens of minutes),
//! * neither — a balanced default.
//!
//! The campaign-shaped binaries (`fig6_*`, `fig9_*`, `table3_*`)
//! additionally accept the fault-tolerant runtime flags:
//!
//! * `--checkpoint <dir>` — periodically snapshot every arm's campaign
//!   state into a per-arm subdirectory of `<dir>`,
//! * `--checkpoint-every <n>` — checkpoint cadence in executions
//!   (default 2000),
//! * `--resume` — resume each arm from its checkpoint in `<dir>` if one
//!   exists (a killed run picks up where the last snapshot left off).
//!
//! Reports print the run's actual parameters in the header so measured
//! numbers in EXPERIMENTS.md are always traceable.

#![deny(missing_docs)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bigmap_core::{MapScheme, MapSize};
use bigmap_coverage::{Instrumentation, MetricKind};
use bigmap_fuzzer::{
    Budget, Campaign, CampaignConfig, CampaignStats, CheckpointManager, FleetAggregator, Telemetry,
};
use bigmap_target::{BenchmarkSpec, Interpreter, Program};

/// Harness effort level, from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Smoke run: tiny targets, sub-second arms.
    Quick,
    /// Balanced default.
    Standard,
    /// Closer-to-paper scale.
    Full,
}

impl Effort {
    /// Parses `--quick` / `--full` from the process arguments.
    pub fn from_args() -> Effort {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Effort::Quick
        } else if args.iter().any(|a| a == "--full") {
            Effort::Full
        } else {
            Effort::Standard
        }
    }

    /// Target scale factor relative to the paper's benchmark sizes.
    pub fn scale(self) -> f64 {
        match self {
            Effort::Quick => 0.01,
            Effort::Standard => 0.05,
            Effort::Full => 0.25,
        }
    }

    /// Per-arm wall-clock budget for throughput experiments.
    pub fn arm_budget(self) -> Duration {
        match self {
            Effort::Quick => Duration::from_millis(250),
            Effort::Standard => Duration::from_millis(1500),
            Effort::Full => Duration::from_secs(8),
        }
    }

    /// Per-arm wall-clock budget for the crash experiments: crashes are
    /// sparse (the paper ran 24 hours), so these arms run 8x longer than
    /// the throughput arms.
    pub fn crash_arm_budget(self) -> Duration {
        self.arm_budget() * 8
    }

    /// Target scale for the crash experiments (Figures 8, 10, Table III).
    /// Kept at the base scale: LLVM-scale targets cost ~1 ms/exec like
    /// the real binaries, and seconds-scale arms need the smaller
    /// programs' exec rates for crash ladders to fire at all.
    pub fn crash_scale(self) -> f64 {
        self.scale()
    }

    /// Seed-corpus cap.
    pub fn max_seeds(self) -> usize {
        match self {
            Effort::Quick => 8,
            Effort::Standard => 32,
            Effort::Full => 128,
        }
    }

    /// Label for report headers.
    pub fn label(self) -> &'static str {
        match self {
            Effort::Quick => "quick",
            Effort::Standard => "standard",
            Effort::Full => "full",
        }
    }
}

/// Parses `--telemetry <path>` (or `--telemetry=<path>`) from the process
/// arguments: the JSONL file the harness should stream telemetry
/// snapshots into. `None` when the flag is absent — telemetry stays off.
pub fn telemetry_path_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        if let Some(path) = arg.strip_prefix("--telemetry=") {
            return Some(PathBuf::from(path));
        }
        if arg == "--telemetry" {
            return args.get(i + 1).map(PathBuf::from);
        }
    }
    None
}

/// Checkpoint/resume settings for the campaign-shaped harness binaries,
/// parsed from `--checkpoint <dir>`, `--checkpoint-every <n>` and
/// `--resume`.
#[derive(Debug, Clone)]
pub struct CheckpointArgs {
    /// Root directory holding one checkpoint subdirectory per arm.
    pub dir: PathBuf,
    /// Resume arms from their existing checkpoints instead of starting
    /// clean.
    pub resume: bool,
    /// Checkpoint cadence in executions.
    pub every: u64,
}

impl CheckpointArgs {
    /// Wall-clock floor between snapshots. The exec-count cadence alone
    /// would let a fast arm (hundreds of thousands of execs/sec in quick
    /// mode) checkpoint hundreds of times per second; the floor bounds
    /// the write rate so checkpointing stays inside its <2% overhead
    /// budget regardless of the arm's exec rate (see EXPERIMENTS.md).
    pub const MIN_INTERVAL: Duration = Duration::from_millis(250);

    /// Parses the checkpoint flags from the process arguments. `None`
    /// when `--checkpoint` is absent — checkpointing stays off and the
    /// arms run exactly as before.
    pub fn from_args() -> Option<CheckpointArgs> {
        let args: Vec<String> = std::env::args().collect();
        let mut dir = None;
        let mut every = 2_000u64;
        for (i, arg) in args.iter().enumerate() {
            if let Some(path) = arg.strip_prefix("--checkpoint=") {
                dir = Some(PathBuf::from(path));
            } else if arg == "--checkpoint" {
                dir = args.get(i + 1).map(PathBuf::from);
            } else if let Some(n) = arg.strip_prefix("--checkpoint-every=") {
                every = n.parse().expect("--checkpoint-every expects an integer");
            } else if arg == "--checkpoint-every" {
                if let Some(n) = args.get(i + 1) {
                    every = n.parse().expect("--checkpoint-every expects an integer");
                }
            }
        }
        Some(CheckpointArgs {
            dir: dir?,
            resume: args.iter().any(|a| a == "--resume"),
            every,
        })
    }

    /// The checkpoint directory for one named arm. Without `--resume`
    /// any stale checkpoint state under the key is removed first, so a
    /// fresh run never silently continues an older campaign.
    pub fn prepare_arm(&self, key: &str) -> PathBuf {
        let arm_dir = self.dir.join(key);
        if !self.resume {
            let _ = std::fs::remove_dir_all(&arm_dir);
        }
        arm_dir
    }
}

/// A benchmark prepared for campaigns at one map size: program +
/// instrumentation + seeds.
pub struct PreparedBenchmark {
    /// The benchmark spec (paper characteristics).
    pub spec: BenchmarkSpec,
    /// The generated program.
    pub program: Program,
    /// ID tables for the requested map size.
    pub instrumentation: Instrumentation,
    /// Seed corpus.
    pub seeds: Vec<Vec<u8>>,
}

impl PreparedBenchmark {
    /// Builds (generates + "compiles" + seeds) a benchmark.
    pub fn build(spec: &BenchmarkSpec, map_size: MapSize, effort: Effort) -> Self {
        Self::build_scaled(spec, map_size, effort, effort.scale())
    }

    /// Builds at an explicit target scale (the crash experiments use
    /// [`Effort::crash_scale`]).
    pub fn build_scaled(
        spec: &BenchmarkSpec,
        map_size: MapSize,
        effort: Effort,
        scale: f64,
    ) -> Self {
        let program = spec.build(scale);
        let instrumentation = Instrumentation::assign(
            program.block_count(),
            program.call_sites,
            map_size,
            0xB16_3A9,
        );
        let seeds = spec.build_seeds(&program, effort.max_seeds());
        PreparedBenchmark {
            spec: *spec,
            program,
            instrumentation,
            seeds,
        }
    }

    /// Builds from an explicit program (laf-intel-transformed variants).
    pub fn from_program(
        spec: &BenchmarkSpec,
        program: Program,
        map_size: MapSize,
        effort: Effort,
    ) -> Self {
        let instrumentation = Instrumentation::assign(
            program.block_count(),
            program.call_sites,
            map_size,
            0xB16_3A9,
        );
        let seeds = spec.build_seeds(&program, effort.max_seeds());
        PreparedBenchmark {
            spec: *spec,
            program,
            instrumentation,
            seeds,
        }
    }

    /// Runs one campaign arm over this benchmark.
    pub fn run_campaign(
        &self,
        scheme: MapScheme,
        metric: MetricKind,
        budget: Budget,
        seed: u64,
    ) -> CampaignStats {
        self.run_campaign_opts(scheme, metric, budget, seed, true)
    }

    /// The standard harness campaign configuration for one arm.
    fn arm_config(
        &self,
        scheme: MapScheme,
        metric: MetricKind,
        budget: Budget,
        seed: u64,
        merged_classify_compare: bool,
    ) -> CampaignConfig {
        CampaignConfig {
            scheme,
            map_size: self.instrumentation.map_size(),
            metric,
            budget,
            mutations_per_seed: 512,
            deterministic: false,
            merged_classify_compare,
            dictionary: Vec::new(),
            trim_new_entries: false,
            seed,
            hang_budget: None,
            sparse: None,
            trace: None,
            interp: None,
        }
    }

    /// Runs one campaign arm with optional telemetry and optional
    /// checkpointing. With `checkpoint` set to `(args, key)` the arm
    /// snapshots its state into `args.dir/key` every `args.every`
    /// executions; under `--resume` it first restores from an existing
    /// snapshot (falling back to a cold start when there is none).
    pub fn run_campaign_checkpointed(
        &self,
        scheme: MapScheme,
        metric: MetricKind,
        budget: Budget,
        seed: u64,
        telemetry: Option<Arc<Telemetry>>,
        checkpoint: Option<(&CheckpointArgs, &str)>,
    ) -> CampaignStats {
        let interpreter = Interpreter::new(&self.program);
        let mut campaign = Campaign::new(
            self.arm_config(scheme, metric, budget, seed, true),
            &interpreter,
            &self.instrumentation,
        );
        if let Some(telemetry) = telemetry {
            campaign.set_telemetry(telemetry);
        }
        let Some((args, key)) = checkpoint else {
            campaign.add_seeds(self.seeds.clone());
            return campaign.run();
        };
        let arm_dir = args.prepare_arm(key);
        self.seed_or_restore(&mut campaign, args, &arm_dir);
        let mut manager = CheckpointManager::new(&arm_dir, args.every)
            .with_min_interval(CheckpointArgs::MIN_INTERVAL);
        campaign.run_with_hook(args.every, move |c| {
            if let Err(err) = manager.maybe_checkpoint(c) {
                eprintln!("  checkpoint write failed (continuing): {err}");
            }
        })
    }

    /// [`run_campaign_checkpointed`](PreparedBenchmark::run_campaign_checkpointed)
    /// that also returns the final corpus (coverage-replay arms).
    pub fn run_campaign_with_corpus_checkpointed(
        &self,
        scheme: MapScheme,
        metric: MetricKind,
        budget: Budget,
        seed: u64,
        telemetry: Option<Arc<Telemetry>>,
        checkpoint: Option<(&CheckpointArgs, &str)>,
    ) -> (CampaignStats, Vec<Vec<u8>>) {
        let interpreter = Interpreter::new(&self.program);
        let mut campaign = Campaign::new(
            self.arm_config(scheme, metric, budget, seed, true),
            &interpreter,
            &self.instrumentation,
        );
        if let Some(telemetry) = telemetry {
            campaign.set_telemetry(telemetry);
        }
        let Some((args, key)) = checkpoint else {
            campaign.add_seeds(self.seeds.clone());
            return campaign.run_with_corpus();
        };
        let arm_dir = args.prepare_arm(key);
        self.seed_or_restore(&mut campaign, args, &arm_dir);
        let mut manager = CheckpointManager::new(&arm_dir, args.every)
            .with_min_interval(CheckpointArgs::MIN_INTERVAL);
        let output = campaign.run_with_hook_detailed(args.every, move |c| {
            if let Err(err) = manager.maybe_checkpoint(c) {
                eprintln!("  checkpoint write failed (continuing): {err}");
            }
        });
        (output.stats, output.corpus)
    }

    /// Either restores `campaign` from the arm's checkpoint (resume mode,
    /// snapshot present) or seeds it for a cold start. A corrupt or
    /// missing snapshot degrades to the cold start rather than failing
    /// the arm.
    fn seed_or_restore(
        &self,
        campaign: &mut Campaign<'_>,
        args: &CheckpointArgs,
        arm_dir: &std::path::Path,
    ) {
        if args.resume {
            match CheckpointManager::load(arm_dir) {
                Ok(Some(snapshot)) => {
                    campaign.restore(&snapshot);
                    return;
                }
                Ok(None) => {}
                Err(err) => {
                    eprintln!(
                        "  checkpoint in {} unusable ({err}); starting clean",
                        arm_dir.display()
                    );
                }
            }
        }
        campaign.add_seeds(self.seeds.clone());
    }

    /// Runs one campaign arm with an explicit classify/compare pipeline
    /// choice (`merged = false` reproduces the paper's Figure 3 separate
    /// bars).
    pub fn run_campaign_opts(
        &self,
        scheme: MapScheme,
        metric: MetricKind,
        budget: Budget,
        seed: u64,
        merged_classify_compare: bool,
    ) -> CampaignStats {
        let interpreter = Interpreter::new(&self.program);
        let mut campaign = Campaign::new(
            self.arm_config(scheme, metric, budget, seed, merged_classify_compare),
            &interpreter,
            &self.instrumentation,
        );
        campaign.add_seeds(self.seeds.clone());
        campaign.run()
    }

    /// Runs a campaign arm and returns the final corpus alongside the stats
    /// (coverage replay experiments). `telemetry` optionally attaches a
    /// live telemetry handle to the arm.
    pub fn run_campaign_with_corpus_telemetry(
        &self,
        scheme: MapScheme,
        metric: MetricKind,
        budget: Budget,
        seed: u64,
        telemetry: Option<Arc<Telemetry>>,
    ) -> (CampaignStats, Vec<Vec<u8>>) {
        let interpreter = Interpreter::new(&self.program);
        let mut campaign = Campaign::new(
            self.arm_config(scheme, metric, budget, seed, true),
            &interpreter,
            &self.instrumentation,
        );
        if let Some(telemetry) = telemetry {
            campaign.set_telemetry(telemetry);
        }
        campaign.add_seeds(self.seeds.clone());
        campaign.run_with_corpus()
    }

    /// Runs a campaign arm and returns the final corpus alongside the stats
    /// (coverage replay experiments).
    pub fn run_campaign_with_corpus(
        &self,
        scheme: MapScheme,
        metric: MetricKind,
        budget: Budget,
        seed: u64,
    ) -> (CampaignStats, Vec<Vec<u8>>) {
        self.run_campaign_with_corpus_telemetry(scheme, metric, budget, seed, None)
    }

    /// Average of `runs` campaign arms' throughput (the paper aggregates
    /// three runs per configuration, §V-B). With an `aggregator`, each run
    /// gets a fresh instance index in it and records its final telemetry
    /// snapshot there, which forwards it to the aggregator's sink — how
    /// Figure 6's `--telemetry` measures the telemetry layer's own
    /// overhead. With `checkpoint`, each run checkpoints under (and in
    /// resume mode restores from) `<dir>/<arm_key>-r<run>`.
    pub fn mean_throughput_checkpointed(
        &self,
        scheme: MapScheme,
        budget: Budget,
        runs: usize,
        aggregator: Option<&FleetAggregator>,
        checkpoint: Option<&CheckpointArgs>,
        arm_key: &str,
    ) -> f64 {
        let total: f64 = (0..runs)
            .map(|r| {
                let seed = 0x5EED + r as u64;
                let telemetry = aggregator.map(|agg| Arc::new(Telemetry::new(agg.producers())));
                let run_key = format!("{arm_key}-r{r}");
                let stats = self.run_campaign_checkpointed(
                    scheme,
                    MetricKind::Edge,
                    budget,
                    seed,
                    telemetry.clone(),
                    checkpoint.map(|args| (args, run_key.as_str())),
                );
                if let (Some(aggregator), Some(telemetry)) = (aggregator, &telemetry) {
                    aggregator.record(0, telemetry.snapshot());
                }
                stats.throughput()
            })
            .sum();
        total / runs.max(1) as f64
    }
}

/// Prints the standard report header.
pub fn report_header(title: &str, effort: Effort, notes: &str) {
    println!("================================================================");
    println!("{title}");
    println!(
        "mode: {} | target scale: {} | arm budget: {:?}",
        effort.label(),
        effort.scale(),
        effort.arm_budget()
    );
    if !notes.is_empty() {
        println!("{notes}");
    }
    println!("================================================================");
}

/// The map sizes every size-sweep experiment uses (the paper's four).
pub fn evaluated_sizes() -> [MapSize; 4] {
    MapSize::EVALUATED
}

/// Cores available to a fleet experiment, from the result of
/// [`std::thread::available_parallelism`]. Always at least 1: an `Err`
/// (the platform cannot answer — containers without cgroup info,
/// exotic targets) and a nonsensical zero both fall back to a single
/// core, the honest lower bound for normalization.
pub fn effective_cores(parallelism: Result<std::num::NonZeroUsize, std::io::Error>) -> usize {
    parallelism.map_or(1, usize::from).max(1)
}

/// Parallel efficiency of an `N`-worker arm: measured scaling over the
/// ideal scaling `min(N, cores)`. On a host with fewer cores than
/// workers, perfect scheduling still caps aggregate throughput at
/// `cores` single-worker rates, so the ideal is `min(N, cores)`, not
/// `N`.
///
/// # Panics
///
/// Panics if `workers` or `cores` is zero — a zero ideal would divide
/// efficiency by zero and report `inf`/NaN as a verdict. Callers get
/// `cores` from [`effective_cores`], which never returns zero.
pub fn parallel_efficiency(scaling: f64, workers: usize, cores: usize) -> f64 {
    assert!(
        workers > 0 && cores > 0,
        "efficiency denominator must be nonzero (workers {workers}, cores {cores})"
    );
    scaling / workers.min(cores) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_parameters_ordered() {
        assert!(Effort::Quick.scale() < Effort::Standard.scale());
        assert!(Effort::Standard.scale() < Effort::Full.scale());
        assert!(Effort::Quick.arm_budget() < Effort::Full.arm_budget());
        assert_eq!(Effort::Quick.label(), "quick");
    }

    #[test]
    fn effective_cores_never_zero() {
        assert_eq!(
            effective_cores(Err(std::io::Error::other("no cgroup info"))),
            1,
            "an unanswerable host must normalize against one core"
        );
        let four = std::num::NonZeroUsize::new(4).unwrap();
        assert_eq!(effective_cores(Ok(four)), 4);
        // Whatever this host answers, the denominator is usable.
        assert!(effective_cores(std::thread::available_parallelism()) >= 1);
    }

    #[test]
    fn efficiency_normalizes_to_min_workers_cores() {
        // 4 workers on a 1-core host: ideal is 1× the single-worker rate,
        // so a 1.0 scaling is perfect efficiency, not 0.25.
        assert_eq!(parallel_efficiency(1.0, 4, 1), 1.0);
        // 4 workers on an 8-core host: ideal is 4×.
        assert_eq!(parallel_efficiency(4.0, 4, 8), 1.0);
        assert_eq!(parallel_efficiency(2.0, 4, 8), 0.5);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn efficiency_rejects_zero_denominator() {
        let _ = parallel_efficiency(1.0, 4, 0);
    }

    #[test]
    fn prepared_benchmark_runs() {
        let spec = BenchmarkSpec::by_name("zlib").unwrap();
        let prepared = PreparedBenchmark::build(&spec, MapSize::K64, Effort::Quick);
        let stats =
            prepared.run_campaign(MapScheme::TwoLevel, MetricKind::Edge, Budget::Execs(500), 1);
        assert_eq!(stats.execs, 500);
        assert!(stats.used_len > 0);
    }

    #[test]
    fn mean_throughput_positive() {
        let spec = BenchmarkSpec::by_name("zlib").unwrap();
        let prepared = PreparedBenchmark::build(&spec, MapSize::K64, Effort::Quick);
        let t = prepared.mean_throughput_checkpointed(
            MapScheme::Flat,
            Budget::Execs(300),
            2,
            None,
            None,
            "",
        );
        assert!(t > 0.0);
    }

    #[test]
    fn checkpointed_arm_snapshots_and_resumes() {
        let spec = BenchmarkSpec::by_name("zlib").unwrap();
        let prepared = PreparedBenchmark::build(&spec, MapSize::K64, Effort::Quick);
        let root = std::env::temp_dir().join(format!("bigmap-bench-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        // Fresh checkpointed run: the arm leaves a snapshot behind.
        let fresh = CheckpointArgs {
            dir: root.clone(),
            resume: false,
            every: 200,
        };
        let stats = prepared.run_campaign_checkpointed(
            MapScheme::TwoLevel,
            MetricKind::Edge,
            Budget::Execs(600),
            7,
            None,
            Some((&fresh, "arm")),
        );
        assert!(stats.execs >= 600);
        let snapshot = CheckpointManager::load(root.join("arm"))
            .expect("snapshot readable")
            .expect("snapshot written");
        assert!(snapshot.execs >= 200 && snapshot.execs <= stats.execs);

        // Resume mode continues from the snapshot: the arm's final exec
        // count stays monotonic past the restored state.
        let resume = CheckpointArgs {
            resume: true,
            ..fresh.clone()
        };
        let resumed = prepared.run_campaign_checkpointed(
            MapScheme::TwoLevel,
            MetricKind::Edge,
            Budget::Execs(1_000),
            7,
            None,
            Some((&resume, "arm")),
        );
        assert!(resumed.execs >= 1_000);
        assert!(resumed.execs >= snapshot.execs);

        // A fresh (non-resume) run clears the stale arm state first.
        let cleared = prepared.run_campaign_checkpointed(
            MapScheme::TwoLevel,
            MetricKind::Edge,
            Budget::Execs(250),
            7,
            None,
            Some((&fresh, "arm")),
        );
        assert!(cleared.execs >= 250 && cleared.execs < 600);
        let _ = std::fs::remove_dir_all(&root);
    }
}
