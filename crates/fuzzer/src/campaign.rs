//! The fuzzing campaign: AFL's evolutionary loop (Figure 1 of the paper).
//!
//! Select a seed → mutate it many times → execute each child → classify and
//! compare coverage → admit interesting children to the pool, report
//! crashes and hangs. The loop keeps one running timestamp and closes
//! each step — a [`Layer`] — with one clock read, into an [`OpStats`]
//! (what the Figure 3 harness prints) and the attached telemetry alike,
//! so the layers tile the loop's wall time. The whole loop is parametric
//! over the map scheme ([`MapScheme`]), the map size and the coverage
//! metric — the three axes of the paper's evaluation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bigmap_core::{
    build_map, CoverageMap, InterpMode, Layer, MapScheme, MapSize, NewCoverage, OpPath, OpStats,
    SparseMode, TraceMode, VirginState,
};
use bigmap_coverage::{
    BlockCoverage, ContextSensitive, CoverageMetric, EdgeHitCount, Instrumentation, MetricKind,
    NGram,
};
use bigmap_target::{ExecOutcome, Interpreter, NoveltyOracle};

use crate::calibrate::HangBudget;
use crate::checkpoint::{Checkpoint, CheckpointQueueEntry};
use crate::crashwalk::CrashWalk;
use crate::executor::{EnginePath, Executor};
use crate::faults::{FaultSite, InstanceFaults};
use crate::mutate::Mutator;
use crate::queue::Queue;
use crate::telemetry::{Telemetry, TelemetryEvent, TelemetrySnapshot};
use crate::timeline::CoverageTimeline;
use crate::trim::trim_input;

/// Builds a boxed metric from its kind (campaign configuration is
/// data-driven so the harness binaries can sweep metrics).
///
/// # Panics
///
/// Panics if an `NGram` kind carries an unsupported N (outside 2..=16).
pub fn build_metric(kind: MetricKind) -> Box<dyn CoverageMetric> {
    match kind {
        MetricKind::Edge => Box::new(EdgeHitCount::new()),
        MetricKind::NGram(n) => Box::new(NGram::new(n).expect("valid ngram size")),
        MetricKind::ContextSensitive => Box::new(ContextSensitive::new()),
        MetricKind::Block => Box::new(BlockCoverage::new()),
        MetricKind::Stack => {
            Box::new(bigmap_coverage::MetricStack::new().with(Box::new(EdgeHitCount::new())))
        }
    }
}

/// Synthetic crash-site index for fault-injected crashes. Real programs
/// use dense indices from 0, so this sentinel can never collide with a
/// genuine site; every injected crash lands in one Crashwalk bucket.
pub const INJECTED_CRASH_SITE: usize = usize::MAX;

/// Folds one engine dispatch into the telemetry counters: which engine
/// served an execution (`CompiledExec`) and whether an armed parent
/// snapshot was reused (`SnapshotHit`) or conservatively discarded
/// (`SnapshotMiss`). Observational only — engine paths never change the
/// campaign trajectory.
fn note_engine(tel: &Telemetry, engine: EnginePath) {
    if engine.is_compiled() {
        tel.incr(TelemetryEvent::CompiledExec);
    }
    if engine.is_snapshot_hit() {
        tel.incr(TelemetryEvent::SnapshotHit);
    } else if engine == EnginePath::SnapshotMiss {
        tel.incr(TelemetryEvent::SnapshotMiss);
    }
}

/// When a campaign stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Stop after generating this many test cases.
    Execs(u64),
    /// Stop after this much wall-clock time.
    Time(Duration),
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Map data structure (AFL flat vs BigMap two-level).
    pub scheme: MapScheme,
    /// Coverage map size.
    pub map_size: MapSize,
    /// Coverage metric.
    pub metric: MetricKind,
    /// Stop condition.
    pub budget: Budget,
    /// Mutations tried per scheduled seed before moving on (AFL fuzzes a
    /// seed "tens of thousands of times"; scaled down for simulation).
    pub mutations_per_seed: usize,
    /// Run AFL's deterministic stages on each new seed first, like classic
    /// `afl-fuzz` does (its `-d` flag skips them). Walking bit flips are
    /// what grinds through laf-intel-style compare cascades reliably:
    /// havoc's stacked mutations almost always disturb an already-solved
    /// byte window, while the deterministic sweep tries every single-bit
    /// change alone. Throughput-oriented runs (the paper's FuzzBench
    /// persistent-mode setup) turn this off; see `crates/bench`.
    pub deterministic: bool,
    /// Merge the classify and compare passes (§IV-E). `true` matches the
    /// paper's evaluated configuration; `false` runs them as separate
    /// whole-region passes, which is what the paper's Figure 3 bars show
    /// (and what the merged-vs-split ablation bench quantifies).
    pub merged_classify_compare: bool,
    /// Token dictionary for the havoc stage (AFL's `-x`). Empty = none.
    /// [`bigmap_target::Program::extract_dictionary`] builds one from the
    /// target's magic comparisons.
    pub dictionary: Vec<Vec<u8>>,
    /// Trim each newly admitted queue entry (AFL's trim stage). Costs
    /// extra executions per admission (counted against the budget), buys
    /// shorter seeds — and therefore better mutation locality. Off by
    /// default, matching the minimal persistent-mode setup the paper
    /// evaluates.
    pub trim_new_entries: bool,
    /// Campaign RNG seed.
    pub seed: u64,
    /// AFL-style hang-budget calibration policy. When set, the campaign
    /// derives a step budget from the observed seed step counts at the
    /// start of the fuzzing loop and runs every mutant under it, capped at
    /// the interpreter's `ExecConfig::max_steps`; `None` keeps
    /// `max_steps` (the paper's fixed-budget setup).
    pub hang_budget: Option<HangBudget>,
    /// The sparse/dense map-op dispatch policy (`bigmap_core::sparse`).
    /// `None` means [`SparseMode::Auto`]: pick per exec by journal
    /// density. Only meaningful for the two-level scheme; the flat map is
    /// always dense.
    pub sparse: Option<SparseMode>,
    /// The two-speed execution mode (`bigmap_core::trace`). `None` means
    /// [`TraceMode::Always`]: no untraced fast pass. Every mode dismisses
    /// a child that fully replays the scheduled parent's `Ok` run without
    /// tracing it (DESIGN §4c), so `Always` traces every other exec.
    /// Selective tracing is coverage-preserving: every mode produces a
    /// bit-identical campaign trajectory.
    pub trace: Option<TraceMode>,
    /// Per-campaign override of the target execution engine
    /// (`bigmap_core::interp`). `None` follows the process-wide
    /// `BIGMAP_INTERP` setting (default: auto — compiled bytecode plus
    /// snapshot resets that resume mutated children from the scheduled
    /// parent's memoized trace prefix). Pure dispatch: every mode
    /// produces a bit-identical campaign trajectory.
    pub interp: Option<InterpMode>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            scheme: MapScheme::TwoLevel,
            map_size: MapSize::K64,
            metric: MetricKind::Edge,
            budget: Budget::Execs(10_000),
            mutations_per_seed: 128,
            deterministic: true,
            merged_classify_compare: true,
            dictionary: Vec::new(),
            trim_new_entries: false,
            seed: 0,
            hang_budget: None,
            sparse: None,
            trace: None,
            interp: None,
        }
    }
}

impl CampaignConfig {
    /// Starts a [`CampaignConfigBuilder`] from the default configuration.
    ///
    /// The struct stays publicly constructible (existing struct-literal
    /// call sites keep compiling), but the builder is the preferred
    /// surface: setters are typed, chainable and `#[must_use]`, so a
    /// dropped half-built config is a compile warning instead of a silent
    /// no-op.
    ///
    /// ```rust
    /// use bigmap_core::{MapScheme, MapSize};
    /// use bigmap_fuzzer::CampaignConfig;
    ///
    /// let config = CampaignConfig::builder()
    ///     .scheme(MapScheme::TwoLevel)
    ///     .map_size(MapSize::M2)
    ///     .budget_execs(5_000)
    ///     .seed(42)
    ///     .build();
    /// assert_eq!(config.map_size, MapSize::M2);
    /// ```
    pub fn builder() -> CampaignConfigBuilder {
        CampaignConfigBuilder::default()
    }
}

/// Chainable builder for [`CampaignConfig`]; see
/// [`CampaignConfig::builder`]. Every setter consumes and returns the
/// builder, and unset fields keep their [`CampaignConfig::default`]
/// values.
#[derive(Debug, Clone, Default)]
pub struct CampaignConfigBuilder {
    config: CampaignConfig,
}

impl CampaignConfigBuilder {
    /// Map data structure (AFL flat vs BigMap two-level).
    #[must_use]
    pub fn scheme(mut self, scheme: MapScheme) -> Self {
        self.config.scheme = scheme;
        self
    }

    /// Coverage map size.
    #[must_use]
    pub fn map_size(mut self, map_size: MapSize) -> Self {
        self.config.map_size = map_size;
        self
    }

    /// Coverage metric.
    #[must_use]
    pub fn metric(mut self, metric: MetricKind) -> Self {
        self.config.metric = metric;
        self
    }

    /// Stop condition.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Stop after this many executions ([`Budget::Execs`] shorthand).
    #[must_use]
    pub fn budget_execs(self, execs: u64) -> Self {
        self.budget(Budget::Execs(execs))
    }

    /// Stop after this much wall-clock time ([`Budget::Time`] shorthand).
    #[must_use]
    pub fn budget_time(self, time: Duration) -> Self {
        self.budget(Budget::Time(time))
    }

    /// Mutations tried per scheduled seed before moving on.
    #[must_use]
    pub fn mutations_per_seed(mut self, mutations: usize) -> Self {
        self.config.mutations_per_seed = mutations;
        self
    }

    /// Run AFL's deterministic stages on each new seed first.
    #[must_use]
    pub fn deterministic(mut self, deterministic: bool) -> Self {
        self.config.deterministic = deterministic;
        self
    }

    /// Merge the classify and compare passes (§IV-E).
    #[must_use]
    pub fn merged_classify_compare(mut self, merged: bool) -> Self {
        self.config.merged_classify_compare = merged;
        self
    }

    /// Token dictionary for the havoc stage (AFL's `-x`).
    #[must_use]
    pub fn dictionary(mut self, dictionary: Vec<Vec<u8>>) -> Self {
        self.config.dictionary = dictionary;
        self
    }

    /// Trim each newly admitted queue entry (AFL's trim stage).
    #[must_use]
    pub fn trim_new_entries(mut self, trim: bool) -> Self {
        self.config.trim_new_entries = trim;
        self
    }

    /// Campaign RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// AFL-style hang-budget calibration policy.
    #[must_use]
    pub fn hang_budget(mut self, policy: HangBudget) -> Self {
        self.config.hang_budget = Some(policy);
        self
    }

    /// The sparse/dense map-op dispatch policy (default: adaptive).
    #[must_use]
    pub fn sparse(mut self, mode: SparseMode) -> Self {
        self.config.sparse = Some(mode);
        self
    }

    /// The two-speed execution mode (default: always trace).
    #[must_use]
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.config.trace = Some(mode);
        self
    }

    /// Per-campaign override of the target execution engine.
    #[must_use]
    pub fn interp_mode(mut self, mode: InterpMode) -> Self {
        self.config.interp = Some(mode);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> CampaignConfig {
        self.config
    }
}

/// Results of a campaign.
///
/// `Default` is the all-zero record — what [`crate::FleetStats`]
/// reports for an instance that died without producing results.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Test cases generated and executed.
    pub execs: u64,
    /// Wall-clock duration of the campaign loop.
    pub wall_time: Duration,
    /// Unique crashes by Crashwalk dedup (the paper's fair metric).
    pub unique_crashes: usize,
    /// Unique crashes by AFL's coverage-bitmap dedup (the biased metric,
    /// reported for comparison).
    pub coverage_unique_crashes: usize,
    /// Total (non-unique) crashing executions.
    pub total_crashes: u64,
    /// Hanging executions.
    pub hangs: u64,
    /// Coverage slots discovered in the virgin map (map-local; subject to
    /// collisions — use [`crate::replay`] for bias-free edge coverage).
    pub discovered_slots: usize,
    /// `used_key` at the end (BigMap) or map size (flat).
    pub used_len: usize,
    /// Final queue size.
    pub queue_len: usize,
    /// Per-layer runtime accounting of the fuzzing loop (Figure 3). The
    /// layers sum to the loop's wall time; seed dry runs and checkpoint
    /// restore replays sit outside both.
    pub ops: OpStats,
    /// Crashwalk bucket hashes of the unique crashes (used for fleet-wide
    /// dedup across parallel instances).
    pub crash_buckets: Vec<u32>,
    /// Coverage discovery over time (sampled every ~256 executions),
    /// for plateau analysis (Figure 7).
    pub timeline: CoverageTimeline,
    /// Final telemetry snapshot, when the campaign ran with a
    /// [`Telemetry`] handle attached (see [`Campaign::set_telemetry`]).
    pub telemetry: Option<TelemetrySnapshot>,
    /// The calibrated step budget in force at campaign end, when
    /// [`CampaignConfig::hang_budget`] calibration ran (or a resumed
    /// checkpoint carried one). `None` means the configured
    /// `exec.max_steps` applied throughout.
    pub calibrated_hang_budget: Option<u64>,
}

impl CampaignStats {
    /// Test cases per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.execs as f64 / secs
        }
    }
}

/// A single-instance fuzzing campaign over one target.
pub struct Campaign<'p> {
    config: CampaignConfig,
    executor: Executor<'p>,
    map: Box<dyn CoverageMap>,
    virgin: VirginState,
    virgin_crash: VirginState,
    virgin_hang: VirginState,
    queue: Queue,
    mutator: Mutator,
    crashwalk: CrashWalk,
    rng: SmallRng,
    stats_execs: u64,
    total_crashes: u64,
    hangs: u64,
    coverage_unique_crashes: usize,
    ops: OpStats,
    /// Inputs admitted to the queue since the last drain (parallel sync).
    fresh_finds: Vec<Vec<u8>>,
    /// Derivation depth assigned to inputs admitted right now: 0 while dry
    /// running seeds, scheduled parent's depth + 1 during fuzzing.
    admit_depth: usize,
    crash_inputs: Vec<Vec<u8>>,
    timeline: CoverageTimeline,
    discovered_running: u64,
    /// Optional live stats registry (parallel fleets and the bench
    /// harnesses attach one; `None` costs a single predicted branch per
    /// pipeline stage).
    telemetry: Option<Arc<Telemetry>>,
    /// Optional deterministic fault-injection handle (degradation tests
    /// attach one; `None` costs a single predicted branch per injection
    /// point, same discipline as `telemetry`).
    faults: Option<Arc<InstanceFaults>>,
    /// Hang-triggering inputs collected so far (one per novel hang, by
    /// hang-virgin-map coverage — AFL's hangs/ dedup policy).
    hang_inputs: Vec<Vec<u8>>,
    /// Step counts observed while dry-running the initial seeds — the
    /// sample hang-budget calibration takes its p99 over.
    seed_steps: Vec<u64>,
    /// Wall time a resumed checkpoint had already accumulated; added to
    /// the live clock for time budgets and final stats.
    prior_wall: Duration,
    /// Set while the fuzzing loop runs, so mid-run checkpoints can
    /// compute cumulative wall time.
    loop_started: Option<Instant>,
    /// End of the last closed layer span (the loop's start before the
    /// first); `None` outside the fuzzing loop, where nothing is timed.
    span_start: Option<Instant>,
    /// True while [`Campaign::restore`] replays checkpointed inputs:
    /// suppresses trimming, re-admission side effects, telemetry counts
    /// and seed-step sampling (the replay is reconstruction, not work).
    restoring: bool,
    /// The resolved two-speed execution mode (`config.trace`, default
    /// [`TraceMode::Always`]).
    trace_mode: TraceMode,
    /// The novelty oracle behind selective tracing; `Some` whenever
    /// `trace_mode` is not [`TraceMode::Always`].
    oracle: Option<NoveltyOracle>,
    /// Auto-mode window state: fast-pass decisions and re-traces observed
    /// in the current window. Deliberately *not* checkpointed — skip
    /// decisions are trajectory-neutral, so resetting the window on
    /// resume changes throughput, never results.
    auto_tries: u32,
    auto_retraces: u32,
    /// Auto-mode fallback: remaining test cases to run traced-direct
    /// (no fast pass) after a re-trace-heavy window.
    auto_direct_left: u32,
}

/// Auto-mode window length (fast-pass decisions per assessment).
const AUTO_WINDOW: u32 = 128;
/// Auto-mode fallback trigger: re-traces ≥ 3/4 of a window means the fast
/// pass is mostly overhead right now.
const AUTO_RETRACE_NUM: u32 = 3;
const AUTO_RETRACE_DEN: u32 = 4;
/// Auto-mode fallback length: traced-direct test cases before the fast
/// pass is retried.
const AUTO_DIRECT_RUN: u32 = 512;

impl std::fmt::Debug for Campaign<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("config", &self.config)
            .field("execs", &self.stats_execs)
            .field("queue", &self.queue.len())
            .finish()
    }
}

impl<'p> Campaign<'p> {
    /// Creates a campaign over an already-instrumented target.
    ///
    /// `instrumentation` must have been assigned with the same
    /// [`MapSize`] as `config.map_size` (the "compile for this map size"
    /// step).
    ///
    /// # Panics
    ///
    /// Panics if the instrumentation's map size disagrees with the config.
    pub fn new(
        config: CampaignConfig,
        interpreter: &'p Interpreter<'p>,
        instrumentation: &'p Instrumentation,
    ) -> Self {
        assert_eq!(
            instrumentation.map_size(),
            config.map_size,
            "instrumentation was compiled for a different map size"
        );
        let mut map = build_map(config.scheme, config.map_size);
        map.set_sparse_override(config.sparse);
        let metric = build_metric(config.metric);
        let trace_mode = config.trace.unwrap_or_default();
        let oracle = (trace_mode != TraceMode::Always)
            .then(|| NoveltyOracle::new(interpreter.program().block_count()));
        let mut executor = Executor::new(interpreter, instrumentation, metric);
        executor.set_interp_mode(
            config
                .interp
                .unwrap_or_else(bigmap_core::env::interp_request),
        );
        Campaign {
            executor,
            map,
            virgin: VirginState::new(config.map_size),
            virgin_crash: VirginState::new(config.map_size),
            virgin_hang: VirginState::new(config.map_size),
            queue: Queue::new(),
            mutator: Mutator::with_dictionary(config.seed ^ 0x5EED, config.dictionary.clone()),
            crashwalk: CrashWalk::new(),
            rng: SmallRng::seed_from_u64(config.seed ^ 0xD1CE),
            stats_execs: 0,
            total_crashes: 0,
            hangs: 0,
            coverage_unique_crashes: 0,
            ops: OpStats::new(),
            fresh_finds: Vec::new(),
            admit_depth: 0,
            crash_inputs: Vec::new(),
            timeline: CoverageTimeline::new(),
            discovered_running: 0,
            telemetry: None,
            faults: None,
            hang_inputs: Vec::new(),
            seed_steps: Vec::new(),
            prior_wall: Duration::ZERO,
            loop_started: None,
            span_start: None,
            restoring: false,
            trace_mode,
            oracle,
            auto_tries: 0,
            auto_retraces: 0,
            auto_direct_left: 0,
            config,
        }
    }

    /// The resolved two-speed execution mode this campaign runs under.
    pub fn trace_mode(&self) -> TraceMode {
        self.trace_mode
    }

    /// The resolved target execution engine this campaign runs under.
    pub fn interp_mode(&self) -> InterpMode {
        self.executor.interp_mode()
    }

    /// Attaches a live telemetry registry: every pipeline stage from here
    /// on counts its events and attributes its wall time into `telemetry`,
    /// and [`CampaignStats::telemetry`] carries the final snapshot.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        // Record which map-op kernel table this campaign will dispatch
        // through — one selection event plus the per-kernel op counters
        // keyed off the same `KernelKind` on the exec path below.
        telemetry.incr(TelemetryEvent::KernelSelect);
        // Record which page backend served this instance's coverage map
        // (and whether an explicit-huge-page request fell back) — the
        // telemetry-visible half of the giant-map fallback contract.
        if let Some((backend, fell_back)) = self.map.alloc_info() {
            telemetry.incr(match backend {
                bigmap_core::AllocBackend::ExplicitGigantic
                | bigmap_core::AllocBackend::ExplicitHuge => TelemetryEvent::AllocExplicitHuge,
                bigmap_core::AllocBackend::Plain => TelemetryEvent::AllocPlain,
            });
            if fell_back {
                telemetry.incr(TelemetryEvent::AllocFallback);
            }
        }
        self.telemetry = Some(telemetry);
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Attaches a deterministic fault-injection handle: target
    /// crash/hang storms fire on the executor path and worker panics at
    /// sync boundaries, per the handle's seeded schedule.
    pub fn set_faults(&mut self, faults: Arc<InstanceFaults>) {
        self.faults = Some(faults);
    }

    /// The attached fault-injection handle, if any.
    pub fn faults(&self) -> Option<&Arc<InstanceFaults>> {
        self.faults.as_ref()
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Test cases executed so far (live; checkpoint cadence keys on it).
    pub fn execs(&self) -> u64 {
        self.stats_execs
    }

    /// Cumulative campaign wall time: any time carried over from a
    /// resumed checkpoint plus the live fuzzing-loop clock.
    pub fn wall_so_far(&self) -> Duration {
        self.prior_wall
            + self
                .loop_started
                .map(|t| t.elapsed())
                .unwrap_or(Duration::ZERO)
    }

    /// Seeds the pool by executing the initial corpus (AFL's dry run).
    /// Every seed is admitted regardless of novelty, like AFL does.
    pub fn add_seeds<I: IntoIterator<Item = Vec<u8>>>(&mut self, seeds: I) {
        self.admit_depth = 0;
        for input in seeds {
            self.execute_and_judge(&input, true);
        }
    }

    /// Imports an externally discovered input (parallel corpus sync): it is
    /// admitted only if it still shows new coverage locally.
    pub fn import(&mut self, input: &[u8]) {
        // Inside the sync hook: the hook's work so far is sync time, the
        // import's execution is timed like any other test case's.
        self.span(Layer::Sync);
        self.admit_depth = 0;
        let verdict = self.execute_and_judge(input, false);
        if let Some(tel) = &self.telemetry {
            tel.incr(TelemetryEvent::SyncImport);
            if !verdict.is_interesting() {
                tel.incr(TelemetryEvent::ImportRejection);
            }
        }
    }

    /// Drains the inputs admitted since the last call (parallel sync
    /// export).
    pub fn take_fresh_finds(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.fresh_finds)
    }

    /// Crashing inputs collected so far (one per unique crash).
    pub fn crash_inputs(&self) -> &[Vec<u8>] {
        &self.crash_inputs
    }

    /// Hang-triggering inputs collected so far (one per novel hang).
    pub fn hang_inputs(&self) -> &[Vec<u8>] {
        &self.hang_inputs
    }

    /// The whole corpus (queue inputs), for replay-based coverage measures.
    pub fn corpus(&self) -> Vec<Vec<u8>> {
        self.queue
            .entries()
            .iter()
            .map(|e| e.input.clone())
            .collect()
    }

    /// Read access to the seed queue (scheduling state, favored flags,
    /// per-entry metadata) for diagnostics and corpus tooling.
    pub fn queue(&self) -> &Queue {
        &self.queue
    }

    /// Whether the next test case gets an untraced fast pass. In auto
    /// mode this also advances the traced-direct fallback window, so it
    /// must be called exactly once per test case that reaches the
    /// fast-pass decision; `Ok` full replays of the armed parent are
    /// dismissed before it and never count.
    fn fast_pass_active(&mut self) -> bool {
        if self.oracle.is_none() {
            return false;
        }
        if self.trace_mode == TraceMode::Auto && self.auto_direct_left > 0 {
            self.auto_direct_left -= 1;
            return false;
        }
        true
    }

    /// Feeds one fast-pass decision into the auto-mode window; when a
    /// window closes with ≥ 3/4 re-traces, the next `AUTO_DIRECT_RUN`
    /// test cases skip the fast pass entirely. Deterministic: the window
    /// advances on exec counts, never on wall time.
    fn note_auto_decision(&mut self, retraced: bool) {
        if self.trace_mode != TraceMode::Auto {
            return;
        }
        self.auto_tries += 1;
        if retraced {
            self.auto_retraces += 1;
        }
        if self.auto_tries >= AUTO_WINDOW {
            if self.auto_retraces * AUTO_RETRACE_DEN >= self.auto_tries * AUTO_RETRACE_NUM {
                self.auto_direct_left = AUTO_DIRECT_RUN;
            }
            self.auto_tries = 0;
            self.auto_retraces = 0;
        }
    }

    /// Executes one input and runs the full fitness pipeline. Returns the
    /// novelty verdict. `force_admit` bypasses the interestingness check
    /// (used for the initial seeds).
    ///
    /// Under selective tracing the input first runs untraced with only
    /// the novelty oracle watching; a provably-seen clean execution is
    /// counted and dismissed as `NoNew` without ever touching the
    /// coverage map. This is trajectory-equivalent to the always-traced
    /// pipeline: a provably-seen path was fully traced before and its
    /// novelty already consumed into the Ok virgin map (which only ever
    /// shrinks), so re-tracing it would verdict `NoNew` with zero state
    /// change.
    ///
    /// The same argument, with an exact witness, dismisses a child the
    /// snapshot engine would serve wholly from an armed parent recording
    /// that ended `Ok` (`ExecPlan::is_ok_full_replay`), before the fast
    /// pass, the reset, the trace and classify/compare. Every parent
    /// `run_loop` primes is a queue entry, admitted from an exec whose
    /// effective outcome was `Ok` and that was compared against the Ok
    /// virgin map (seed dry run, admission, import or restore replay). A
    /// step budget only truncates a run, so an `Ok` recording replays that
    /// admission's event stream, and the virgin map only shrinks: tracing
    /// the child again could only yield `NoNew` with no state change. A
    /// campaign that trims new entries is exempt, because the bytes it
    /// stores match the judged input's coverage only up to the CRC32 the
    /// trim stage compares.
    fn execute_and_judge(&mut self, input: &[u8], force_admit: bool) -> NewCoverage {
        // Fault-injection ordinals are consumed exactly once per test
        // case, *before* any execution: a selective-mode re-trace must
        // see the same fault schedule as an always-mode single pass.
        let (inject_crash, inject_hang) = match &self.faults {
            Some(faults) => (
                faults.fire(FaultSite::TargetCrash),
                faults.fire(FaultSite::TargetHang),
            ),
            None => (false, false),
        };
        // An injected crash/hang, a forced admission and a restore replay
        // must all run traced, whatever their trace would show.
        let skippable = !inject_crash && !inject_hang && !force_admit && !self.restoring;

        // The one resume-point search for this child.
        let plan = self.executor.plan(input);
        if skippable && !self.config.trim_new_entries && plan.is_ok_full_replay() {
            self.span(Layer::Executor);
            self.count_skipped(TelemetryEvent::ReplaySkip, EnginePath::SnapshotReplay);
            return NewCoverage::None;
        }

        // Two-speed fast pass: untraced exec, oracle verdict, maybe skip.
        let mut retraced = false;
        let mut fast_engine = None;
        if self.fast_pass_active() {
            let oracle = self.oracle.as_mut().expect("fast pass requires an oracle");
            let fast = self.executor.run_fast(plan, input, oracle);
            self.span(Layer::Executor);
            fast_engine = Some(fast.engine);
            // The *effective* outcome decides skippability: an injected
            // crash/hang must flow through the crash/hang pipeline even
            // though the underlying trace is a known-clean path.
            let skip = skippable && fast.outcome.is_ok() && fast.provably_seen;
            self.note_auto_decision(!skip);
            if skip {
                self.count_skipped(TelemetryEvent::FastPathExec, fast.engine);
                return NewCoverage::None;
            }
            retraced = true;
        } else {
            // The plan's search is executor work, not the reset's.
            self.span(Layer::Executor);
        }

        self.map.reset();
        self.span(Layer::MapReset);

        // Target execution, including bitmap updates.
        let mut execution = self.executor.run_planned(plan, input, self.map.as_mut());
        self.span(Layer::Executor);
        self.stats_execs += 1;
        if force_admit && !self.restoring {
            // Seed dry run: sample the step count for hang-budget
            // calibration.
            self.seed_steps.push(execution.steps);
        }

        // Apply the pre-drawn fault injections (one predicted branch when
        // no handle is attached).
        if inject_crash {
            execution.outcome = ExecOutcome::Crash {
                site: INJECTED_CRASH_SITE,
                stack: Vec::new(),
            };
        }
        if inject_hang && execution.outcome.is_ok() {
            execution.outcome = ExecOutcome::Hang;
        }

        // Classify + compare. Crashes and hangs diff against their own
        // virgin maps, like AFL. With the §IV-E merge (the default) both
        // steps run in one pass, accounted to `map.compare`; the split
        // pipeline times them separately, which is how the paper's
        // Figure 3 shows its bars.
        let split_pipeline = !self.config.merged_classify_compare;
        if split_pipeline {
            self.map.classify();
            self.span(Layer::MapClassify);
        }
        let virgin = match &execution.outcome {
            ExecOutcome::Ok => &mut self.virgin,
            ExecOutcome::Crash { .. } => &mut self.virgin_crash,
            ExecOutcome::Hang => &mut self.virgin_hang,
        };
        let verdict = if split_pipeline {
            self.map.compare(virgin)
        } else {
            self.map.classify_and_compare(virgin)
        };
        self.span(Layer::MapCompare);

        match &execution.outcome {
            ExecOutcome::Ok => {
                // Teach the oracle this path — only now that the traced
                // execution ran and its novelty (if any) was consumed
                // into the Ok virgin map. Committing a fault-injected
                // crash/hang would be unsound: its coverage was compared
                // against the crash/hang virgin map instead, leaving
                // Ok-virgin novelty unabsorbed.
                if retraced {
                    self.oracle
                        .as_mut()
                        .expect("retraced exec has an oracle")
                        .commit();
                }
                // During restore, only forced (checkpointed-queue) replays
                // are admitted: crash/hang warm-up replays rebuild virgin
                // state without minting queue entries the checkpoint never
                // had.
                if (verdict.is_interesting() && !self.restoring) || force_admit {
                    // Optional trim stage (AFL trims each new entry). The
                    // map afterwards holds the trimmed input's classified
                    // coverage, which is what gets hashed and scored.
                    // Trimming is skipped during restore: checkpointed
                    // entries were already final, and re-trimming would
                    // change their bytes.
                    let trimmed = if self.config.trim_new_entries && !self.restoring {
                        let result = trim_input(&mut self.executor, self.map.as_mut(), input);
                        self.stats_execs += result.execs;
                        self.span(Layer::QueueAdmit);
                        Some(result.input)
                    } else {
                        None
                    };

                    // Bitmap hash — interesting test cases only (§II-A2).
                    let hash = self.map.hash();
                    self.span(Layer::MapHash);

                    let stored = trimmed.unwrap_or_else(|| input.to_vec());
                    let mut slots = Vec::new();
                    self.map.for_each_nonzero(&mut |slot, _| slots.push(slot));
                    self.queue.add_with_depth(
                        stored.clone(),
                        execution.exec_time,
                        execution.steps,
                        hash,
                        &slots,
                        self.admit_depth,
                    );
                    self.fresh_finds.push(stored);
                    self.span(Layer::QueueAdmit);
                }
            }
            ExecOutcome::Crash { .. } => {
                self.total_crashes += 1;
                if verdict.is_interesting() {
                    self.coverage_unique_crashes += 1;
                }
                if self.crashwalk.observe(&execution.outcome) {
                    self.crash_inputs.push(input.to_vec());
                }
                self.span(Layer::Crashwalk);
            }
            ExecOutcome::Hang => {
                self.hangs += 1;
                if verdict.is_interesting() && !self.restoring {
                    // Novel hang coverage: keep the input (AFL's hangs/
                    // policy — deduplicated by the hang virgin map).
                    self.hang_inputs.push(input.to_vec());
                }
            }
        }

        // Timeline sampling: count NewEdge verdicts as discovery units and
        // sample the curve every 256 executions (cheap; no map scans).
        if verdict == NewCoverage::NewEdge {
            self.discovered_running += 1;
        }
        if self.stats_execs.is_multiple_of(256) {
            self.timeline
                .record(self.stats_execs, self.discovered_running);
        }

        // Live telemetry: a handful of relaxed atomic adds per test case,
        // all behind one branch. Restore replays are reconstruction, not
        // campaign work, so they stay out of the counters.
        if !self.restoring {
            if let Some(tel) = &self.telemetry {
                tel.incr(TelemetryEvent::Exec);
                tel.incr(TelemetryEvent::MapReset);
                tel.incr(TelemetryEvent::VirginCompare);
                // Attribute the map ops by dispatch path. Dense ops go
                // through whichever kernel the process dispatcher selected
                // (the merged pipeline is one fused kernel call, the split
                // pipeline is two); sparse ops are journal walks that never
                // enter the kernel table, so they count as sparse
                // dispatches instead.
                if split_pipeline {
                    tel.incr(TelemetryEvent::ClassifyPass);
                }
                match self.map.last_op_path() {
                    OpPath::Dense => {
                        tel.incr(TelemetryEvent::DenseDispatch);
                        let kernel_op =
                            TelemetryEvent::for_kernel(bigmap_core::kernels::active().kind);
                        tel.add(kernel_op, if split_pipeline { 2 } else { 1 });
                    }
                    OpPath::Sparse => tel.incr(TelemetryEvent::SparseDispatch),
                }
                if self.map.journal_overflowed() {
                    tel.incr(TelemetryEvent::JournalOverflow);
                }
                if retraced {
                    tel.incr(TelemetryEvent::RetraceExec);
                }
                // One engine-path record per executor dispatch: the fast
                // pass (when one ran) and the traced execution each went
                // through the engine once.
                if let Some(engine) = fast_engine {
                    note_engine(tel, engine);
                }
                note_engine(tel, execution.engine);
                tel.add(TelemetryEvent::MapUpdate, execution.map_updates);
                if verdict == NewCoverage::NewEdge {
                    tel.incr(TelemetryEvent::NewCoverage);
                }
                match &execution.outcome {
                    ExecOutcome::Ok => {}
                    ExecOutcome::Crash { .. } => tel.incr(TelemetryEvent::Crash),
                    ExecOutcome::Hang => {
                        tel.incr(TelemetryEvent::Hang);
                        if !execution.planted_hang && self.executor.step_budget().is_some() {
                            tel.incr(TelemetryEvent::HangBudgetExceeded);
                        }
                    }
                }
            }
        }
        verdict
    }

    /// Counts a child dismissed as `NoNew` without a traced run: the exec
    /// counter, timeline sampling, and its `Exec`, `event` and engine
    /// telemetry.
    fn count_skipped(&mut self, event: TelemetryEvent, engine: EnginePath) {
        self.stats_execs += 1;
        if self.stats_execs.is_multiple_of(256) {
            self.timeline
                .record(self.stats_execs, self.discovered_running);
        }
        if let Some(tel) = &self.telemetry {
            tel.incr(TelemetryEvent::Exec);
            tel.incr(event);
            note_engine(tel, engine);
        }
    }

    /// Closes the span running since the previous one as `layer`: one
    /// clock read, added once to [`CampaignStats::ops`] and to the
    /// attached telemetry. A no-op outside the fuzzing loop (seed dry
    /// runs, restore replays), which `wall_time` does not cover either.
    #[inline]
    fn span(&mut self, layer: Layer) {
        let Some(since) = self.span_start else {
            return;
        };
        let now = Instant::now();
        let nanos = now.duration_since(since).as_nanos() as u64;
        self.span_start = Some(now);
        self.ops.add(layer, nanos);
        if let Some(tel) = &self.telemetry {
            tel.add_nanos(layer, nanos);
        }
    }

    fn budget_left(&self, started: Instant) -> bool {
        match self.config.budget {
            Budget::Execs(n) => self.stats_execs < n,
            // Time budgets count from the original campaign start: a
            // resumed run only gets the remainder, not a fresh clock. The
            // loop's clock is the last span's end — no extra clock read.
            Budget::Time(d) => {
                let elapsed = self.span_start.map_or(Duration::ZERO, |t| t - started);
                self.prior_wall + elapsed < d
            }
        }
    }

    /// Runs the campaign to completion and reports statistics.
    ///
    /// # Panics
    ///
    /// Panics if no seeds were added (AFL refuses to start without a
    /// corpus too).
    pub fn run(mut self) -> CampaignStats {
        let started = Instant::now();
        self.run_loop(started, None::<HookState<fn(&mut Campaign<'p>)>>);
        self.finish(started)
    }

    /// Runs the campaign and also returns the final output corpus (queue
    /// inputs) — what the paper's edge-coverage experiments replay against
    /// an independent coverage build (§V-A3).
    ///
    /// # Panics
    ///
    /// Panics if no seeds were added.
    pub fn run_with_corpus(mut self) -> (CampaignStats, Vec<Vec<u8>>) {
        let started = Instant::now();
        self.run_loop(started, None::<HookState<fn(&mut Campaign<'p>)>>);
        let corpus = self.corpus();
        (self.finish(started), corpus)
    }

    /// Runs the campaign and returns everything: statistics, the output
    /// corpus, and one crashing input per unique crash (for triage /
    /// replay validation).
    ///
    /// # Panics
    ///
    /// Panics if no seeds were added.
    pub fn run_detailed(mut self) -> CampaignOutput {
        let started = Instant::now();
        self.run_loop(started, None::<HookState<fn(&mut Campaign<'p>)>>);
        let corpus = self.corpus();
        let crash_inputs = self.crash_inputs.clone();
        let hang_inputs = self.hang_inputs.clone();
        CampaignOutput {
            stats: self.finish(started),
            corpus,
            crash_inputs,
            hang_inputs,
        }
    }

    /// Runs the campaign, invoking `on_sync` at the first mutation-batch
    /// boundary at or past each `sync_every` cadence mark (parallel
    /// corpus exchange hook). Boundaries are batch-aligned so a
    /// checkpoint taken inside the hook captures complete, resumable
    /// state; the hook therefore fires every `sync_every` executions
    /// only approximately, rounded up to the end of the current batch.
    pub fn run_with_hook<F: FnMut(&mut Campaign<'p>)>(
        mut self,
        sync_every: u64,
        on_sync: F,
    ) -> CampaignStats {
        let started = Instant::now();
        self.run_loop(
            started,
            Some(HookState {
                every: sync_every,
                f: on_sync,
            }),
        );
        self.finish(started)
    }

    /// [`Campaign::run_with_hook`] that also returns the full
    /// [`CampaignOutput`] (corpus, crash and hang inputs) — for harness
    /// arms that both checkpoint periodically and replay their corpus
    /// afterwards.
    pub fn run_with_hook_detailed<F: FnMut(&mut Campaign<'p>)>(
        mut self,
        sync_every: u64,
        on_sync: F,
    ) -> CampaignOutput {
        let started = Instant::now();
        self.run_loop(
            started,
            Some(HookState {
                every: sync_every,
                f: on_sync,
            }),
        );
        let corpus = self.corpus();
        let crash_inputs = self.crash_inputs.clone();
        let hang_inputs = self.hang_inputs.clone();
        CampaignOutput {
            stats: self.finish(started),
            corpus,
            crash_inputs,
            hang_inputs,
        }
    }

    /// Fires the worker-panic fault if one is scheduled at the current
    /// sync-boundary ordinal.
    fn sync_boundary_faults(&self) {
        if let Some(faults) = &self.faults {
            if faults.fire(FaultSite::WorkerPanic) {
                panic!("injected worker panic (instance {})", faults.instance());
            }
        }
    }

    fn run_loop<F: FnMut(&mut Campaign<'p>)>(
        &mut self,
        started: Instant,
        mut hook: Option<HookState<F>>,
    ) {
        assert!(!self.queue.is_empty(), "campaign needs at least one seed");
        self.loop_started = Some(started);
        self.span_start = Some(started);
        let mut next_sync = hook.as_ref().map(|h| h.every).unwrap_or(u64::MAX);

        // Hang-budget calibration (AFL's timeout calibration, in steps):
        // derived once from the seed dry runs, unless a resumed checkpoint
        // already carries a budget.
        if let Some(policy) = self.config.hang_budget {
            if self.executor.step_budget().is_none() {
                self.executor
                    .set_step_budget(policy.derive(&self.seed_steps));
            }
        }

        let mut deterministic_done = 0usize;
        while self.budget_left(started) {
            let rng = &mut self.rng;
            let entry_id = self
                .queue
                .schedule(|| rng.gen::<f64>())
                .expect("non-empty queue");
            let parent = self.queue.entry(entry_id).input.clone();
            let parent_depth = self.queue.entry(entry_id).depth;
            self.admit_depth = parent_depth + 1;
            self.span(Layer::QueueSchedule);
            // Arm the snapshot engine on the freshly scheduled parent:
            // every deterministic and havoc child below is a mutation of
            // these bytes, so it can resume from the parent's memoized
            // trace prefix instead of re-executing from the start. The
            // priming run streams into a null sink — no map, oracle or
            // counter ever observes it — so it is trajectory-invisible.
            self.executor.prime_snapshot(&parent);
            self.span(Layer::SnapshotPrime);
            if let Some(tel) = &self.telemetry {
                tel.incr(TelemetryEvent::QueueCycle);
            }

            // Deterministic stages for newly scheduled seeds (master
            // instances only; capped so one long seed cannot eat the run).
            // The fuzzed-rounds gate keeps a resumed campaign from
            // re-grinding entries whose deterministic pass already ran
            // before the checkpoint.
            if self.config.deterministic
                && deterministic_done <= entry_id
                && self.queue.entry(entry_id).fuzzed_rounds <= 1
            {
                deterministic_done = entry_id + 1;
                let children = Mutator::deterministic(&parent, 512);
                self.span(Layer::MutateDet);
                for child in children {
                    if !self.budget_left(started) {
                        break;
                    }
                    self.execute_and_judge(&child, false);
                }
            }

            // AFL's `calculate_score` depth bonus: seeds far down a
            // derivation chain took real work to reach, so they get extra
            // havoc energy. This is what lets a campaign ride a laf-intel
            // compare ladder: the frontier entry is always the deepest and
            // gets up to 5x the children of the initial seeds.
            let energy_factor = match parent_depth {
                0..=3 => 1,
                4..=7 => 2,
                8..=13 => 3,
                14..=25 => 4,
                _ => 5,
            };
            for _ in 0..self.config.mutations_per_seed * energy_factor {
                if !self.budget_left(started) {
                    break;
                }
                let splice_with = if self.queue.len() > 1 && self.rng.gen_bool(0.2) {
                    let other = self.rng.gen_range(0..self.queue.len());
                    Some(self.queue.entry(other).input.clone())
                } else {
                    None
                };
                let child = self.mutator.havoc(&parent, splice_with.as_deref());
                self.span(Layer::MutateHavoc);

                self.execute_and_judge(&child, false);
            }

            // Sync boundaries fire only here, between mutation batches,
            // where the checkpointable state — queue, both RNG streams,
            // counters — is complete. A mid-batch boundary would let a
            // checkpoint capture a campaign that is half-way through a
            // scheduled parent's children; resuming from it re-schedules
            // a fresh parent and the trajectory diverges from the
            // uninterrupted run. Batch alignment is what makes
            // kill/restore cycles bit-identical.
            if self.stats_execs >= next_sync {
                self.sync_boundary_faults();
                if let Some(h) = hook.as_mut() {
                    (h.f)(self);
                    next_sync = self.stats_execs + h.every;
                }
                self.span(Layer::Sync);
            }
        }
    }

    /// Captures the campaign's resumable state: queue entries with their
    /// scheduling metadata, crash/hang corpora, counters and both RNG
    /// stream positions. See [`crate::checkpoint`] for persistence.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            execs: self.stats_execs,
            wall_nanos: u64::try_from(self.wall_so_far().as_nanos()).unwrap_or(u64::MAX),
            total_crashes: self.total_crashes,
            hangs: self.hangs,
            coverage_unique_crashes: self.coverage_unique_crashes as u64,
            discovered_running: self.discovered_running,
            rng: self.rng.state(),
            mutator_rng: self.mutator.rng_state(),
            hang_budget: self.executor.step_budget(),
            queue_cursor: self.queue.cursor() as u64,
            queue: self
                .queue
                .entries()
                .iter()
                .map(|e| CheckpointQueueEntry {
                    depth: e.depth,
                    fuzzed_rounds: e.fuzzed_rounds,
                    input: e.input.clone(),
                })
                .collect(),
            crashes: self
                .crashwalk
                .buckets()
                .into_iter()
                .zip(self.crash_inputs.iter().cloned())
                .collect(),
            hang_inputs: self.hang_inputs.clone(),
            oracle: self
                .oracle
                .as_ref()
                .and_then(|o| (!o.is_empty()).then(|| o.snapshot())),
        }
    }

    /// Rebuilds campaign state from a [`Checkpoint`]: replays the
    /// checkpointed queue (re-deriving coverage, favored culling and the
    /// virgin map), warms the crash/hang virgin maps, then restores the
    /// counters, Crashwalk buckets and RNG stream positions exactly. Call
    /// on a freshly constructed campaign *instead of*
    /// [`Campaign::add_seeds`]; the queue must be empty.
    ///
    /// The replay costs one execution per checkpointed input but none of
    /// them count against the budget, telemetry, or exec statistics —
    /// the restored campaign continues from the checkpoint's counters.
    ///
    /// # Panics
    ///
    /// Panics if seeds were already added.
    pub fn restore(&mut self, checkpoint: &Checkpoint) {
        assert!(
            self.queue.is_empty(),
            "restore requires a freshly constructed campaign"
        );
        self.restoring = true;
        // The queue replays under the default step budget, as the seeds'
        // dry runs did: a seed longer than the calibrated budget must be
        // re-admitted, not hang. Every later entry finished within that
        // budget, so it runs the same under either.
        for (id, entry) in checkpoint.queue.iter().enumerate() {
            self.admit_depth = entry.depth;
            self.execute_and_judge(&entry.input, true);
            self.queue.set_fuzzed_rounds(id, entry.fuzzed_rounds);
        }
        self.queue.set_cursor(checkpoint.queue_cursor as usize);
        // Warm the crash/hang virgin maps so post-resume novelty verdicts
        // match the checkpointed campaign's. Admission is suppressed (see
        // execute_and_judge), so fault-injected crash inputs that run
        // clean cannot mint queue entries here. They replay under the
        // checkpointed budget: an input it cut off must hang again, not
        // run to completion into the Ok virgin map.
        self.executor.set_step_budget(checkpoint.hang_budget);
        self.admit_depth = 0;
        for input in checkpoint
            .crashes
            .iter()
            .map(|(_, input)| input)
            .chain(checkpoint.hang_inputs.iter())
        {
            self.execute_and_judge(input, false);
        }

        // Re-arm the novelty oracle with the checkpointed committed state.
        // The replay above already committed the queue entries' own paths;
        // the snapshot is a superset (it also remembers traced-but-NoNew
        // mutants), so installing it restores the full fast-path hit rate.
        // An absent or size-mismatched snapshot leaves whatever the replay
        // committed — sound either way, the oracle only ever under-skips.
        if let (Some(oracle), Some(snap)) = (self.oracle.as_mut(), checkpoint.oracle.as_ref()) {
            oracle.install(snap);
        }

        self.stats_execs = checkpoint.execs;
        self.total_crashes = checkpoint.total_crashes;
        self.hangs = checkpoint.hangs;
        self.coverage_unique_crashes = checkpoint.coverage_unique_crashes as usize;
        self.discovered_running = checkpoint.discovered_running;
        self.rng = SmallRng::from_state(checkpoint.rng);
        self.mutator.set_rng_state(checkpoint.mutator_rng);
        self.crashwalk = CrashWalk::restore(
            &checkpoint
                .crashes
                .iter()
                .map(|(b, _)| *b)
                .collect::<Vec<_>>(),
        );
        self.crash_inputs = checkpoint
            .crashes
            .iter()
            .map(|(_, input)| input.clone())
            .collect();
        self.hang_inputs = checkpoint.hang_inputs.clone();
        self.fresh_finds.clear();
        self.seed_steps.clear();
        self.prior_wall = Duration::from_nanos(checkpoint.wall_nanos);
        let mut timeline = CoverageTimeline::new();
        if checkpoint.execs > 0 {
            timeline.record(checkpoint.execs, checkpoint.discovered_running);
        }
        self.timeline = timeline;
        self.restoring = false;
    }

    fn finish(self, started: Instant) -> CampaignStats {
        let wall_time = self.prior_wall + started.elapsed();
        CampaignStats {
            execs: self.stats_execs,
            wall_time,
            unique_crashes: self.crashwalk.unique_count(),
            coverage_unique_crashes: self.coverage_unique_crashes,
            total_crashes: self.total_crashes,
            hangs: self.hangs,
            discovered_slots: self.virgin.discovered_in(self.map.used_len()),
            used_len: self.map.used_len(),
            queue_len: self.queue.len(),
            ops: self.ops,
            crash_buckets: self.crashwalk.buckets(),
            timeline: {
                let mut timeline = self.timeline;
                if self.stats_execs > 0 {
                    timeline.record(self.stats_execs, self.discovered_running);
                }
                timeline
            },
            telemetry: self.telemetry.as_ref().map(|t| t.snapshot()),
            calibrated_hang_budget: self.executor.step_budget(),
        }
    }
}

struct HookState<F> {
    every: u64,
    f: F,
}

/// Everything a finished campaign produced (see
/// [`Campaign::run_detailed`]).
#[derive(Debug, Clone)]
pub struct CampaignOutput {
    /// Campaign statistics.
    pub stats: CampaignStats,
    /// The output corpus (queue inputs).
    pub corpus: Vec<Vec<u8>>,
    /// One crashing input per unique crash.
    pub crash_inputs: Vec<Vec<u8>>,
    /// One hang-triggering input per novel hang.
    pub hang_inputs: Vec<Vec<u8>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigmap_target::{BenchmarkSpec, GeneratorConfig, ProgramBuilder};

    fn instrument(program: &bigmap_target::Program, size: MapSize) -> Instrumentation {
        Instrumentation::assign(program.block_count(), program.call_sites, size, 77)
    }

    fn quick_config(scheme: MapScheme, execs: u64) -> CampaignConfig {
        CampaignConfig {
            scheme,
            budget: Budget::Execs(execs),
            mutations_per_seed: 32,
            ..Default::default()
        }
    }

    #[test]
    fn campaign_discovers_coverage() {
        let program = GeneratorConfig {
            seed: 11,
            ..Default::default()
        }
        .generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(quick_config(MapScheme::TwoLevel, 2_000), &interp, &inst);
        campaign.add_seeds(vec![vec![0u8; 32]]);
        let stats = campaign.run();
        assert_eq!(stats.execs, 2_000);
        assert!(stats.queue_len > 1, "mutation should find new coverage");
        assert!(stats.discovered_slots > 0);
        assert!(stats.used_len > 0);
        assert!(stats.throughput() > 0.0);
    }

    #[test]
    fn both_schemes_make_comparable_progress() {
        let program = GeneratorConfig {
            seed: 21,
            ..Default::default()
        }
        .generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);

        let run = |scheme| {
            // Deterministic stages off: their trigger depends on the exact
            // schedule, which drifts on timing noise (see below) and would
            // compound the divergence this test bounds.
            let config = CampaignConfig {
                deterministic: false,
                ..quick_config(scheme, 3_000)
            };
            let mut c = Campaign::new(config, &interp, &inst);
            c.add_seeds(vec![vec![7u8; 40]]);
            c.run()
        };
        let flat = run(MapScheme::Flat);
        let big = run(MapScheme::TwoLevel);
        // Identical configuration and RNG seeds. Novelty verdicts are
        // deterministic and equivalent across schemes (see the
        // tests/equivalence.rs property suite) and queue scores are
        // deterministic step counts, but favored culling keys on
        // *scheme-local* slot indices, so the favored sets — and hence the
        // exact schedule — can legitimately differ between schemes and the
        // difference compounds over the run. The bound is generous: it
        // exists to catch a scheme-level coverage collapse, not schedule
        // divergence. Exact scheme equivalence is covered by the
        // deterministic tests/equivalence.rs property suite.
        assert_eq!(flat.execs, big.execs);
        let close = |a: usize, b: usize, what: &str| {
            let (lo, hi) = (a.min(b) as f64, a.max(b) as f64);
            assert!(hi <= lo * 1.6 + 8.0, "{what} diverged: {a} vs {b}");
        };
        close(flat.queue_len, big.queue_len, "queue_len");
        close(
            flat.discovered_slots,
            big.discovered_slots,
            "discovered_slots",
        );
    }

    #[test]
    fn crashes_found_and_deduplicated() {
        // A shallow single-byte gate guards the crash: havoc will hit it.
        let program = ProgramBuilder::new("crashy")
            .gate(0, b'X', true)
            .gate(1, b'Y', false)
            .build()
            .unwrap();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(
            CampaignConfig {
                budget: Budget::Execs(5_000),
                mutations_per_seed: 64,
                ..Default::default()
            },
            &interp,
            &inst,
        );
        campaign.add_seeds(vec![b"abcd".to_vec()]);
        let stats = campaign.run();
        assert!(stats.total_crashes > 0, "the X gate must be hit");
        assert_eq!(stats.unique_crashes, 1, "one crash site, one unique crash");
        assert!(stats.total_crashes >= stats.unique_crashes as u64);
    }

    #[test]
    fn hangs_counted_without_stalling() {
        let program = GeneratorConfig {
            seed: 33,
            hang_sites: 3,
            crash_guard_width: 2,
            ..Default::default()
        }
        .generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(quick_config(MapScheme::TwoLevel, 3_000), &interp, &inst);
        campaign.add_seeds(vec![vec![0u8; 48]]);
        let stats = campaign.run();
        assert_eq!(stats.execs, 3_000); // hangs must not wedge the loop
    }

    #[test]
    fn time_budget_respected() {
        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(
            CampaignConfig {
                budget: Budget::Time(Duration::from_millis(200)),
                ..Default::default()
            },
            &interp,
            &inst,
        );
        campaign.add_seeds(vec![vec![1u8; 16]]);
        let started = Instant::now();
        let stats = campaign.run();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(stats.execs > 0);
        assert!(stats.wall_time >= Duration::from_millis(200));
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_corpus_panics() {
        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let campaign = Campaign::new(quick_config(MapScheme::TwoLevel, 100), &interp, &inst);
        campaign.run();
    }

    #[test]
    #[should_panic(expected = "different map size")]
    fn mismatched_instrumentation_panics() {
        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::M2); // compiled for 2M
        let interp = Interpreter::new(&program);
        let _ = Campaign::new(
            quick_config(MapScheme::TwoLevel, 100), // map is 64k
            &interp,
            &inst,
        );
    }

    #[test]
    fn op_stats_populated() {
        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(quick_config(MapScheme::Flat, 1_000), &interp, &inst);
        campaign.add_seeds(vec![vec![3u8; 24]]);
        let stats = campaign.run();
        assert!(stats.ops.get(Layer::Executor) > Duration::ZERO);
        assert!(stats.ops.get(Layer::MapReset) > Duration::ZERO);
        assert!(stats.ops.get(Layer::MapCompare) > Duration::ZERO);
        assert!(stats.ops.total() > Duration::ZERO);
    }

    #[test]
    fn deterministic_stage_runs_on_master() {
        let program = ProgramBuilder::new("det")
            .gate(3, 0x42, false)
            .build()
            .unwrap();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(
            CampaignConfig {
                deterministic: true,
                budget: Budget::Execs(2_000),
                ..Default::default()
            },
            &interp,
            &inst,
        );
        // Seed differs from 0x42 at offset 3 by one bit-flippable bit:
        // the deterministic bitflip stage must find the gate.
        campaign.add_seeds(vec![vec![0x40u8; 8]]);
        let stats = campaign.run();
        assert!(
            stats.queue_len >= 2,
            "deterministic stage should solve the gate"
        );
    }

    #[test]
    fn sync_hook_fires() {
        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        // Havoc-only batches: boundaries fire between mutation batches,
        // so a 512-child deterministic sweep would collapse a 1000-exec
        // budget into two boundaries no matter the cadence.
        let config = CampaignConfig {
            deterministic: false,
            ..quick_config(MapScheme::TwoLevel, 1_000)
        };
        let mut campaign = Campaign::new(config, &interp, &inst);
        campaign.add_seeds(vec![vec![9u8; 16]]);
        let mut fired = 0;
        let stats = campaign.run_with_hook(100, |c| {
            fired += 1;
            let _ = c.take_fresh_finds();
        });
        assert!(fired >= 5, "hook fired only {fired} times");
        assert_eq!(stats.execs, 1_000);
    }

    #[test]
    fn telemetry_counters_match_stats() {
        use crate::telemetry::{Telemetry, TelemetryEvent};

        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(
            CampaignConfig {
                interp: Some(InterpMode::Auto),
                ..quick_config(MapScheme::TwoLevel, 1_000)
            },
            &interp,
            &inst,
        );
        let tel = Arc::new(Telemetry::new(0));
        campaign.set_telemetry(Arc::clone(&tel));
        assert!(campaign.telemetry().is_some());
        campaign.add_seeds(vec![vec![5u8; 24]]);
        let stats = campaign.run();

        let snap = stats.telemetry.as_ref().expect("telemetry attached");
        assert_eq!(snap.get(TelemetryEvent::Exec), stats.execs);
        // Full replays of the scheduled parent are dismissed before the
        // reset; every other exec resets and compares once.
        let skips = snap.get(TelemetryEvent::ReplaySkip);
        assert!(skips > 0, "no full replay was skipped");
        let traced = stats.execs - skips;
        assert_eq!(snap.get(TelemetryEvent::MapReset), traced);
        assert_eq!(snap.get(TelemetryEvent::VirginCompare), traced);
        assert_eq!(snap.get(TelemetryEvent::ClassifyPass), 0); // merged pipeline
        assert_eq!(
            snap.get(TelemetryEvent::NewCoverage),
            stats.timeline.final_coverage()
        );
        assert!(snap.get(TelemetryEvent::QueueCycle) > 0);
        assert!(snap.get(TelemetryEvent::MapUpdate) > 0);
        assert!(snap.layer_time(Layer::Executor) > Duration::ZERO);
        assert!(snap.layer_time(Layer::MapReset) > Duration::ZERO);
        // Deterministic stages ran (default config), so mutation time was
        // attributed to both mutation layers.
        assert!(snap.layer_time(Layer::MutateDet) > Duration::ZERO);
        assert!(snap.layer_time(Layer::MutateHavoc) > Duration::ZERO);
        // The merged pipeline has no standalone classify pass.
        assert_eq!(snap.layer_time(Layer::MapClassify), Duration::ZERO);
        // No sync traffic in a plain single-instance run.
        assert_eq!(snap.get(TelemetryEvent::SyncImport), 0);
        assert_eq!(snap.get(TelemetryEvent::ImportRejection), 0);
        // Kernel dispatch: selection recorded once. Every traced exec
        // dispatches its post-exec ops exactly once — to the dense kernel
        // path or to the sparse journal walk — so the two dispatch
        // counters partition the traced execs, and with the merged
        // pipeline each dense exec is one fused kernel op attributed to
        // the kernel the process dispatcher actually picked.
        assert_eq!(snap.get(TelemetryEvent::KernelSelect), 1);
        let sparse = snap.get(TelemetryEvent::SparseDispatch);
        let dense = snap.get(TelemetryEvent::DenseDispatch);
        assert_eq!(sparse + dense, traced, "dispatch counters partition execs");
        let active = TelemetryEvent::for_kernel(bigmap_core::kernels::active().kind);
        assert_eq!(snap.get(active), dense);
        let kernel_total =
            snap.get(TelemetryEvent::KernelScalarOp) + snap.get(TelemetryEvent::KernelAvx2Op);
        assert_eq!(kernel_total, dense, "only the active kernel counts");
        // The default journal capacity is far above anything these
        // simulated targets touch per exec.
        assert_eq!(snap.get(TelemetryEvent::JournalOverflow), 0);
    }

    #[test]
    fn one_layer_clock_tiles_the_loop_for_ops_and_telemetry() {
        use crate::telemetry::Telemetry;

        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let config = quick_config(MapScheme::TwoLevel, 3_000);
        let same_split = |stats: &CampaignStats| {
            let snap = stats.telemetry.as_ref().expect("telemetry attached");
            for layer in Layer::ALL {
                assert_eq!(snap.layer_time(layer), stats.ops.get(layer), "{layer}");
            }
        };

        let mut campaign = Campaign::new(config.clone(), &interp, &inst);
        campaign.set_telemetry(Arc::new(Telemetry::new(0)));
        campaign.add_seeds(vec![vec![5u8; 24]]);
        let mut ckpt = None;
        let stats = campaign.run_with_hook(500, |c| {
            if ckpt.is_none() && c.execs() >= 1_500 {
                ckpt = Some(c.checkpoint());
            }
        });
        same_split(&stats);
        for layer in [
            Layer::QueueSchedule,
            Layer::SnapshotPrime,
            Layer::MutateDet,
            Layer::MutateHavoc,
            Layer::MapReset,
            Layer::Executor,
            Layer::MapCompare,
            Layer::MapHash,
            Layer::QueueAdmit,
            Layer::Sync,
        ] {
            assert!(stats.ops.get(layer) > Duration::ZERO, "{layer} never timed");
        }
        // The layers tile the loop: only the tail after the last span
        // falls outside them.
        let layers = stats.ops.total();
        assert!(
            layers <= stats.wall_time,
            "{layers:?} > {:?}",
            stats.wall_time
        );
        assert!(
            layers.as_secs_f64() >= 0.95 * stats.wall_time.as_secs_f64(),
            "layers {layers:?} cover under 95% of {:?}",
            stats.wall_time
        );

        // Restore replays rebuild state; they are no loop work, so no
        // layer is charged for them.
        let ckpt = ckpt.expect("hook must fire before the budget runs out");
        let resume = |execs: u64| {
            let mut resumed = Campaign::new(
                CampaignConfig {
                    budget: Budget::Execs(execs),
                    ..config.clone()
                },
                &interp,
                &inst,
            );
            resumed.set_telemetry(Arc::new(Telemetry::new(1)));
            resumed.restore(&ckpt);
            resumed.run()
        };
        let replay_only = resume(ckpt.execs);
        same_split(&replay_only);
        assert_eq!(replay_only.ops.total(), Duration::ZERO);
        let short = resume(ckpt.execs + 200);
        same_split(&short);
        let loop_wall = short.wall_time - Duration::from_nanos(ckpt.wall_nanos);
        assert!(short.ops.total() > Duration::ZERO);
        assert!(short.ops.total() <= loop_wall);
    }

    #[test]
    fn telemetry_counts_split_classify_passes() {
        use crate::telemetry::{Telemetry, TelemetryEvent};

        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(
            CampaignConfig {
                merged_classify_compare: false,
                interp: Some(InterpMode::Auto),
                ..quick_config(MapScheme::TwoLevel, 500)
            },
            &interp,
            &inst,
        );
        campaign.set_telemetry(Arc::new(Telemetry::new(0)));
        campaign.add_seeds(vec![vec![5u8; 24]]);
        let stats = campaign.run();
        let snap = stats.telemetry.as_ref().unwrap();
        // Skipped full replays never reach classify/compare.
        let skips = snap.get(TelemetryEvent::ReplaySkip);
        assert!(skips > 0, "no full replay was skipped");
        let traced = stats.execs - skips;
        assert_eq!(snap.get(TelemetryEvent::ClassifyPass), traced);
        assert_eq!(snap.get(TelemetryEvent::VirginCompare), traced);
        // Split pipeline: a dense-dispatched exec runs classify and
        // compare through the kernel table, so the per-kernel op counter
        // sees two per dense exec (sparse execs are journal walks).
        let dense = snap.get(TelemetryEvent::DenseDispatch);
        assert_eq!(dense + snap.get(TelemetryEvent::SparseDispatch), traced);
        let active = TelemetryEvent::for_kernel(bigmap_core::kernels::active().kind);
        assert_eq!(snap.get(active), 2 * dense);
    }

    #[test]
    fn sparse_override_forces_journal_dispatch_and_matches_dense() {
        use crate::telemetry::{Telemetry, TelemetryEvent};

        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let run = |mode: Option<SparseMode>| {
            let mut campaign = Campaign::new(
                CampaignConfig {
                    sparse: mode,
                    interp: Some(InterpMode::Auto),
                    ..quick_config(MapScheme::TwoLevel, 600)
                },
                &interp,
                &inst,
            );
            let tel = Arc::new(Telemetry::new(0));
            campaign.set_telemetry(Arc::clone(&tel));
            campaign.add_seeds(vec![vec![5u8; 24]]);
            (campaign.run(), tel)
        };
        let (on, on_tel) = run(Some(SparseMode::On));
        let (off, off_tel) = run(Some(SparseMode::Off));
        // Forced modes dispatch every traced exec to their path (the
        // default journal capacity never overflows on these targets);
        // skipped full replays dispatch nothing...
        let traced = |execs: u64, tel: &Telemetry| {
            let skips = tel.get(TelemetryEvent::ReplaySkip);
            assert!(skips > 0, "no full replay was skipped");
            execs - skips
        };
        assert_eq!(
            on_tel.get(TelemetryEvent::SparseDispatch),
            traced(on.execs, &on_tel)
        );
        assert_eq!(on_tel.get(TelemetryEvent::DenseDispatch), 0);
        assert_eq!(
            off_tel.get(TelemetryEvent::DenseDispatch),
            traced(off.execs, &off_tel)
        );
        assert_eq!(off_tel.get(TelemetryEvent::SparseDispatch), 0);
        // ...and the campaign trajectory must be bit-identical either way.
        assert_eq!(on.execs, off.execs);
        assert_eq!(on.queue_len, off.queue_len);
        assert_eq!(on.used_len, off.used_len);
        assert_eq!(
            on.timeline.points(),
            off.timeline.points(),
            "sparse pipeline changed the coverage trajectory"
        );
    }

    #[test]
    fn trace_modes_share_one_bit_identical_trajectory() {
        use crate::telemetry::{Telemetry, TelemetryEvent};

        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let run = |mode: TraceMode| {
            let mut campaign = Campaign::new(
                CampaignConfig {
                    trace: Some(mode),
                    ..quick_config(MapScheme::TwoLevel, 3_000)
                },
                &interp,
                &inst,
            );
            let tel = Arc::new(Telemetry::new(0));
            campaign.set_telemetry(Arc::clone(&tel));
            campaign.add_seeds(vec![vec![5u8; 24]]);
            (campaign.run(), tel)
        };
        let (always, always_tel) = run(TraceMode::Always);
        for mode in [TraceMode::Selective, TraceMode::Auto] {
            let (stats, tel) = run(mode);
            // The whole campaign trajectory must be bit-identical to the
            // always-traced run: selective tracing may only change *how*
            // coverage is observed, never what the campaign does with it.
            assert_eq!(stats.execs, always.execs, "{mode:?}");
            assert_eq!(stats.queue_len, always.queue_len, "{mode:?}");
            assert_eq!(stats.used_len, always.used_len, "{mode:?}");
            assert_eq!(stats.discovered_slots, always.discovered_slots, "{mode:?}");
            assert_eq!(stats.total_crashes, always.total_crashes, "{mode:?}");
            assert_eq!(stats.unique_crashes, always.unique_crashes, "{mode:?}");
            assert_eq!(stats.hangs, always.hangs, "{mode:?}");
            assert_eq!(
                stats.timeline.points(),
                always.timeline.points(),
                "{mode:?} changed the coverage trajectory"
            );
            // The fast path must actually fire (most mutants replay known
            // paths), and every exec is either dismissed as a full replay
            // of the scheduled parent before the fast pass, skipped by it,
            // re-traced or — in auto mode — run traced-direct.
            let fast = tel.get(TelemetryEvent::FastPathExec);
            let retraced = tel.get(TelemetryEvent::RetraceExec);
            let replayed = tel.get(TelemetryEvent::ReplaySkip);
            assert!(fast > 0, "{mode:?}: fast path never skipped anything");
            if mode == TraceMode::Selective {
                assert_eq!(fast + retraced + replayed, tel.get(TelemetryEvent::Exec));
            } else {
                assert!(fast + retraced + replayed <= tel.get(TelemetryEvent::Exec));
            }
        }
        assert_eq!(always_tel.get(TelemetryEvent::FastPathExec), 0);
        assert_eq!(always_tel.get(TelemetryEvent::RetraceExec), 0);
    }

    #[test]
    fn interp_modes_share_one_bit_identical_trajectory() {
        use crate::telemetry::{Telemetry, TelemetryEvent};

        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let run = |mode: InterpMode| {
            let mut campaign = Campaign::new(
                CampaignConfig {
                    interp: Some(mode),
                    ..quick_config(MapScheme::TwoLevel, 3_000)
                },
                &interp,
                &inst,
            );
            assert_eq!(campaign.interp_mode(), mode);
            let tel = Arc::new(Telemetry::new(0));
            campaign.set_telemetry(Arc::clone(&tel));
            campaign.add_seeds(vec![vec![5u8; 24]]);
            (campaign.run(), tel)
        };
        let (tree, tree_tel) = run(InterpMode::Tree);
        let (stats, tel) = run(InterpMode::Auto);
        // The engine is pure dispatch: the whole campaign trajectory must
        // be bit-identical to the tree walker's.
        assert_eq!(stats.execs, tree.execs);
        assert_eq!(stats.queue_len, tree.queue_len);
        assert_eq!(stats.used_len, tree.used_len);
        assert_eq!(stats.discovered_slots, tree.discovered_slots);
        assert_eq!(stats.total_crashes, tree.total_crashes);
        assert_eq!(stats.unique_crashes, tree.unique_crashes);
        assert_eq!(stats.hangs, tree.hangs);
        assert_eq!(
            stats.timeline.points(),
            tree.timeline.points(),
            "auto changed the coverage trajectory"
        );
        // Non-vacuousness: the compiled engine actually served execs and
        // reused parent snapshots.
        assert_eq!(
            tel.get(TelemetryEvent::CompiledExec),
            tel.get(TelemetryEvent::Exec),
            "every exec should be compiled"
        );
        assert!(
            tel.get(TelemetryEvent::SnapshotHit) > 0,
            "auto mode never reused a parent snapshot"
        );
        assert_eq!(tree_tel.get(TelemetryEvent::CompiledExec), 0);
        assert_eq!(tree_tel.get(TelemetryEvent::SnapshotHit), 0);
    }

    #[test]
    fn selective_resume_restores_oracle_state() {
        use crate::telemetry::{Telemetry, TelemetryEvent};

        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let config = CampaignConfig {
            trace: Some(TraceMode::Selective),
            ..quick_config(MapScheme::TwoLevel, 2_000)
        };

        // An always-trace campaign has no oracle to checkpoint.
        let mut plain = Campaign::new(
            CampaignConfig {
                trace: Some(TraceMode::Always),
                ..config.clone()
            },
            &interp,
            &inst,
        );
        plain.add_seeds(vec![vec![5u8; 24]]);
        assert_eq!(plain.checkpoint().oracle, None);

        // Interrupted run: snapshot at ~1 000 execs, resume in a fresh
        // campaign, finish the budget there.
        let mut first = Campaign::new(config.clone(), &interp, &inst);
        first.add_seeds(vec![vec![5u8; 24]]);
        let mut ckpt = None;
        first.run_with_hook(250, |c| {
            if c.execs() >= 1_000 && ckpt.is_none() {
                ckpt = Some(c.checkpoint());
            }
        });
        let ckpt = ckpt.expect("hook must fire before the budget runs out");
        assert!(
            ckpt.oracle.as_ref().is_some_and(|o| !o.paths.is_empty()),
            "a selective campaign's checkpoint must carry oracle state"
        );
        // The text codec round-trips it (what CheckpointManager persists).
        let ckpt = Checkpoint::from_text(&ckpt.to_text()).unwrap();

        let mut resumed = Campaign::new(config, &interp, &inst);
        let tel = Arc::new(Telemetry::new(0));
        resumed.set_telemetry(Arc::clone(&tel));
        resumed.restore(&ckpt);

        // Every checkpointed path hash survived the install (the restored
        // oracle may hold more — the replay commits too, never less).
        let reinstalled = resumed
            .checkpoint()
            .oracle
            .expect("oracle state must survive restore");
        let persisted = ckpt.oracle.as_ref().unwrap();
        assert!(
            persisted
                .paths
                .iter()
                .all(|p| reinstalled.paths.binary_search(p).is_ok()),
            "restore dropped committed path hashes"
        );
        assert_eq!(reinstalled.buckets.len(), persisted.buckets.len());

        // The resumed campaign finishes its budget with the fast path hot
        // (replay itself stays out of telemetry, so every skip counted
        // here happened after the resume).
        let stats = resumed.run();
        assert_eq!(stats.execs, 2_000);
        assert!(stats.queue_len >= ckpt.queue.len());
        assert!(
            tel.get(TelemetryEvent::FastPathExec) > 0,
            "resumed campaign never skipped: oracle state was lost"
        );
    }

    /// A snapshot-engine campaign with telemetry whose only seed,
    /// `parent`, has been dry-run and then armed as the scheduled parent.
    fn primed_campaign<'p>(
        interp: &'p Interpreter<'p>,
        inst: &'p Instrumentation,
        parent: &[u8],
        faults: Option<crate::faults::FaultPlan>,
    ) -> (Campaign<'p>, Arc<Telemetry>) {
        let mut campaign = Campaign::new(
            CampaignConfig {
                interp: Some(InterpMode::Auto),
                ..quick_config(MapScheme::TwoLevel, 1_000)
            },
            interp,
            inst,
        );
        let tel = Arc::new(Telemetry::new(0));
        campaign.set_telemetry(Arc::clone(&tel));
        if let Some(plan) = faults {
            campaign.set_faults(Arc::new(InstanceFaults::new(Arc::new(plan), 0)));
        }
        campaign.add_seeds(vec![parent.to_vec()]);
        assert!(campaign.executor.prime_snapshot(parent));
        (campaign, tel)
    }

    #[test]
    fn first_full_replay_of_a_queue_entry_is_skipped_untouched() {
        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let parent = vec![5u8; 24];
        let (mut campaign, tel) = primed_campaign(&interp, &inst, &parent, None);
        assert!(campaign.executor.plan(&parent).is_ok_full_replay());

        // The first full replay of the primed seed is dismissed without
        // touching the map: a byte no trace of the parent writes survives.
        campaign.map.record(0xDEAD_BEEF);
        let region = campaign.map.active_region().to_vec();
        let execs = campaign.execs();
        let count = |event| tel.get(event);
        let before = TelemetryEvent::ALL.map(count);
        assert_eq!(
            campaign.execute_and_judge(&parent, false),
            NewCoverage::None
        );
        assert_eq!(campaign.map.active_region(), &region[..]);
        assert_eq!(campaign.execs(), execs + 1);
        // Counted like any exec on the snapshot engine, and as nothing
        // else: no reset, compare or map update.
        let moved: Vec<_> = TelemetryEvent::ALL
            .into_iter()
            .zip(before)
            .filter(|&(event, was)| count(event) != was)
            .map(|(event, was)| (event, count(event) - was))
            .collect();
        assert_eq!(
            moved,
            [
                (TelemetryEvent::Exec, 1),
                (TelemetryEvent::CompiledExec, 1),
                (TelemetryEvent::SnapshotHit, 1),
                (TelemetryEvent::ReplaySkip, 1),
            ]
        );
        assert_eq!(tel.get(TelemetryEvent::Exec), campaign.execs());

        // A child resumed mid-tape still runs traced.
        let resumed = {
            let mut probe = Executor::new(&interp, &inst, build_metric(MetricKind::Edge));
            probe.set_interp_mode(InterpMode::Auto);
            probe.prime_snapshot(&parent);
            let mut map = build_map(MapScheme::TwoLevel, MapSize::K64);
            (0..parent.len())
                .flat_map(|i| {
                    (0..=255u8).map(move |byte| {
                        let mut child = vec![5u8; 24];
                        child[i] = byte;
                        child
                    })
                })
                .find(|child| {
                    map.reset();
                    probe.run(child, map.as_mut()).engine == EnginePath::SnapshotResume
                })
                .expect("some one-byte mutant resumes mid-tape")
        };
        let resets = tel.get(TelemetryEvent::MapReset);
        campaign.execute_and_judge(&resumed, false);
        assert_eq!(tel.get(TelemetryEvent::MapReset), resets + 1);
        assert_eq!(tel.get(TelemetryEvent::ReplaySkip), 1);
    }

    #[test]
    fn a_hang_recording_is_never_settled_or_skipped() {
        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let parent = vec![5u8; 24];
        let (mut campaign, tel) = primed_campaign(&interp, &inst, &parent, None);
        // A budget below the parent's steps: the recording ends in a hang.
        let steps = campaign.seed_steps[0];
        campaign.executor.set_step_budget(Some(steps - 1));
        assert!(campaign.executor.prime_snapshot(&parent));
        assert!(!campaign.executor.plan(&parent).is_ok_full_replay());
        for round in 1..=3 {
            campaign.execute_and_judge(&parent, false);
            assert_eq!(campaign.hangs, round, "every replay is traced as a hang");
        }
        assert_eq!(tel.get(TelemetryEvent::ReplaySkip), 0);
        assert_eq!(tel.get(TelemetryEvent::SnapshotHit), 3);
    }

    #[test]
    fn an_injected_crash_on_a_settled_replay_reaches_crashwalk() {
        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let parent = vec![5u8; 24];
        // Ordinal 0 is the seed's dry run; the full replays follow.
        let plan = crate::faults::FaultPlan::new()
            .inject(FaultSite::TargetCrash, 0, 1)
            .inject(FaultSite::TargetCrash, 0, 3);
        let (mut campaign, tel) = primed_campaign(&interp, &inst, &parent, Some(plan));
        assert!(campaign.executor.plan(&parent).is_ok_full_replay());
        // A full replay carrying an injected crash is traced against the
        // crash virgin map and reaches Crashwalk; the clean replays around
        // it are skipped.
        assert!(campaign.execute_and_judge(&parent, false).is_interesting());
        assert_eq!(tel.get(TelemetryEvent::ReplaySkip), 0);
        campaign.execute_and_judge(&parent, false);
        assert_eq!(tel.get(TelemetryEvent::ReplaySkip), 1);
        campaign.execute_and_judge(&parent, false);
        assert_eq!(tel.get(TelemetryEvent::ReplaySkip), 1);
        assert_eq!(campaign.total_crashes, 2);
        assert_eq!(campaign.crashwalk.unique_count(), 1);
        assert_eq!(campaign.crash_inputs(), &[parent.clone()][..]);
        campaign.execute_and_judge(&parent, false);
        assert_eq!(tel.get(TelemetryEvent::ReplaySkip), 2);
    }

    #[test]
    fn seed_dry_runs_and_restore_replays_never_skip_or_settle() {
        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let parent = vec![5u8; 24];
        let (mut campaign, tel) = primed_campaign(&interp, &inst, &parent, None);
        assert!(campaign.executor.plan(&parent).is_ok_full_replay());
        // A forced admission of the armed parent's bytes is traced and
        // admitted.
        campaign.add_seeds(vec![parent.clone()]);
        assert_eq!(campaign.queue.len(), 2);
        assert_eq!(tel.get(TelemetryEvent::ReplaySkip), 0);

        // Restore replays the queue (forced) and warms the crash/hang maps
        // with a clean input, all under an armed recording of that input:
        // none of it skips.
        let mut ckpt = campaign.checkpoint();
        ckpt.hang_inputs = vec![parent.clone()];
        let (mut restored, tel) = primed_campaign(&interp, &inst, &parent, None);
        restored.queue = Queue::new();
        restored.restore(&ckpt);
        assert_eq!(tel.get(TelemetryEvent::ReplaySkip), 0);
        assert_eq!(restored.queue.len(), 2);
    }

    #[test]
    fn trimming_campaigns_trace_every_full_replay() {
        let program = GeneratorConfig::default().generate();
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let seed = vec![5u8; 64];
        let run = |mode: InterpMode| {
            let mut campaign = Campaign::new(
                CampaignConfig {
                    trim_new_entries: true,
                    interp: Some(mode),
                    ..quick_config(MapScheme::TwoLevel, 3_000)
                },
                &interp,
                &inst,
            );
            let tel = Arc::new(Telemetry::new(0));
            campaign.set_telemetry(Arc::clone(&tel));
            campaign.add_seeds(vec![seed.clone()]);
            (campaign.run_detailed(), tel)
        };
        let (tree, _) = run(InterpMode::Tree);
        let (snapshot, tel) = run(InterpMode::Auto);
        assert!(
            snapshot.corpus.iter().any(|entry| entry.len() < seed.len()),
            "nothing was trimmed"
        );
        assert!(tel.get(TelemetryEvent::SnapshotHit) > 0);
        assert_eq!(tel.get(TelemetryEvent::ReplaySkip), 0);
        assert_eq!(snapshot.corpus, tree.corpus);
        assert_eq!(
            snapshot.stats.timeline.points(),
            tree.stats.timeline.points()
        );
    }

    #[test]
    fn import_counts_rejections() {
        use crate::telemetry::{Telemetry, TelemetryEvent};

        let program = BenchmarkSpec::by_name("zlib").unwrap().build(0.05);
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(quick_config(MapScheme::TwoLevel, 10), &interp, &inst);
        let tel = Arc::new(Telemetry::new(0));
        campaign.set_telemetry(Arc::clone(&tel));
        campaign.add_seeds(vec![vec![1u8; 16]]);
        campaign.import(&[1u8; 16]); // identical coverage: rejected
        assert_eq!(tel.get(TelemetryEvent::SyncImport), 1);
        assert_eq!(tel.get(TelemetryEvent::ImportRejection), 1);
        campaign.import(&[0xFFu8; 64]); // different path: admitted
        assert_eq!(tel.get(TelemetryEvent::SyncImport), 2);
        assert_eq!(tel.get(TelemetryEvent::ImportRejection), 1);
    }

    #[test]
    fn import_admits_only_novel_inputs() {
        let program = BenchmarkSpec::by_name("zlib").unwrap().build(0.05);
        let inst = instrument(&program, MapSize::K64);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(quick_config(MapScheme::TwoLevel, 10), &interp, &inst);
        campaign.add_seeds(vec![vec![1u8; 16]]);
        let before = campaign.queue.len();
        campaign.import(&[1u8; 16]); // identical coverage: rejected
        assert_eq!(campaign.queue.len(), before);
        campaign.import(&[0xFFu8; 64]); // different path: likely admitted
                                        // (If the path happens to be identical this would be flaky; the
                                        // 0xFF pattern differs from 0x01 across every gate, so it is not.)
        assert!(campaign.queue.len() > before);
    }
}
