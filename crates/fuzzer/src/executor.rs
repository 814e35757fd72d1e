//! The executor: one test case through the instrumented target into the
//! coverage map.
//!
//! Binds together the four moving parts — interpreter, instrumentation ID
//! tables, coverage metric, coverage map — exactly the way AFL's forkserver
//! plus shared-memory bitmap does: the *bitmap update* happens inside
//! target execution (so its cost is accounted to `Execution`, as in the
//! paper's Figure 3), and the post-execution pipeline (classify, compare,
//! hash) is driven by the campaign, which times each stage separately.

use std::any::Any;
use std::time::{Duration, Instant};

use bigmap_core::{BigMap, CoverageMap, FlatBitmap, InterpMode, Recorder};
use bigmap_coverage::{CoverageMetric, EdgeHitCount, Instrumentation, NGram, TraceEvent};
use bigmap_target::{
    BoundedRun, ExecOutcome, ExecRecording, Interpreter, NoveltyOracle, NullSink, ResumePlan,
    SnapshotOutcome, TraceSink,
};

/// Adapter: structural interpreter events → instrumented IDs → metric keys
/// → map updates.
///
/// Generic over the metric and the map's `record` so that, for the
/// concrete types [`Engine::trace`] resolves, the engine's exec loop and
/// tape replay inline the whole chain from block ID to hit count. Every
/// other (metric, map) pair runs the same code with
/// `M = dyn CoverageMetric` and a `record` through `dyn CoverageMap`.
struct MappingSink<'a, M: ?Sized, R> {
    instrumentation: &'a Instrumentation,
    metric: &'a mut M,
    record: R,
    /// Map `record` calls this execution (telemetry; local non-atomic
    /// counting keeps the per-event cost at one increment).
    updates: u64,
}

impl<M: CoverageMetric + ?Sized, R: FnMut(u32)> MappingSink<'_, M, R> {
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        let MappingSink {
            metric,
            record,
            updates,
            ..
        } = self;
        metric.on_event(event, &mut |key| {
            *updates += 1;
            record(key)
        });
    }
}

impl<M: CoverageMetric + ?Sized, R: FnMut(u32)> TraceSink for MappingSink<'_, M, R> {
    #[inline]
    fn on_block(&mut self, global_block: usize) {
        let id = self.instrumentation.block_id(global_block);
        self.emit(TraceEvent::Block(id));
    }

    #[inline]
    fn on_call(&mut self, call_site: usize) {
        let id = self.instrumentation.call_site_id(call_site);
        self.emit(TraceEvent::Call(id));
    }

    #[inline]
    fn on_return(&mut self) {
        self.emit(TraceEvent::Return);
    }
}

/// Which engine path satisfied one execution — the executor-level view
/// the campaign folds into `CompiledExec`/`SnapshotHit`/`SnapshotMiss`
/// telemetry. Purely observational: every path produces bit-identical
/// outcomes, traces and step counts for the same input and budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePath {
    /// The tree-walking interpreter (`BIGMAP_INTERP=tree`, or a program
    /// whose compiled lowering is unusable).
    Tree,
    /// The compiled bytecode engine, executed front to back with no
    /// snapshot armed.
    Compiled,
    /// A parent snapshot was armed and the whole run was served from its
    /// memoized trace (no live execution).
    SnapshotReplay,
    /// A parent snapshot was armed and execution resumed mid-run after
    /// replaying the memoized prefix.
    SnapshotResume,
    /// A parent snapshot was armed but could not be reused; the run
    /// re-executed from scratch on the compiled engine.
    SnapshotMiss,
}

impl EnginePath {
    /// True for any path through the compiled bytecode engine.
    pub fn is_compiled(self) -> bool {
        !matches!(self, EnginePath::Tree)
    }

    /// True when any part of a parent snapshot was reused.
    pub fn is_snapshot_hit(self) -> bool {
        matches!(
            self,
            EnginePath::SnapshotReplay | EnginePath::SnapshotResume
        )
    }
}

/// Result of executing one test case (before the fitness pipeline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// The target's outcome.
    pub outcome: ExecOutcome,
    /// Wall-clock time of the execution (including map updates, per the
    /// paper's accounting).
    pub exec_time: Duration,
    /// Coverage-map updates (`record` calls) the execution performed —
    /// the telemetry layer's measure of instrumentation traffic.
    pub map_updates: u64,
    /// Interpreter steps (executed blocks) the run consumed — the raw
    /// observation hang-budget calibration averages over seed runs.
    pub steps: u64,
    /// For [`ExecOutcome::Hang`] outcomes: `true` when a planted hang
    /// site fired, `false` when ordinary execution exhausted the step
    /// budget (the case a calibrated budget is responsible for).
    pub planted_hang: bool,
    /// Which engine path satisfied this execution.
    pub engine: EnginePath,
}

/// Executes test cases against one instrumented target.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::{BigMap, CoverageMap, MapSize};
/// use bigmap_coverage::{EdgeHitCount, Instrumentation};
/// use bigmap_fuzzer::Executor;
/// use bigmap_target::{Interpreter, ProgramBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = ProgramBuilder::new("demo").gate(0, b'!', false).build()?;
/// let instrumentation =
///     Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 7);
/// let interp = Interpreter::new(&program);
/// let mut executor = Executor::new(&interp, &instrumentation, Box::new(EdgeHitCount::new()));
///
/// let mut map = BigMap::new(MapSize::K64)?;
/// let result = executor.run(b"!", &mut map);
/// assert!(!result.outcome.is_crash());
/// assert!(map.used_len() > 0, "execution must record coverage");
/// # Ok(())
/// # }
/// ```
pub struct Executor<'p> {
    interpreter: &'p Interpreter<'p>,
    instrumentation: &'p Instrumentation,
    metric: Box<dyn CoverageMetric>,
    /// Calibrated step budget overriding `ExecConfig::max_steps` when set,
    /// never above it. Lives here (not on the interpreter) because the
    /// campaign shares one immutable interpreter across executors but
    /// calibrates per campaign.
    step_budget: Option<u64>,
    /// Effective engine mode. Initialized from the interpreter's own mode;
    /// the campaign overrides it from its config / `BIGMAP_INTERP`.
    interp_mode: InterpMode,
    /// The scheduled parent's memoized run, when snapshots are armed
    /// ([`Executor::prime_snapshot`]). Mutated children resume from it.
    armed: Option<ExecRecording>,
}

/// One child's engine decision ([`Executor::plan`]): the resume point
/// against the armed recording, searched once and then handed to
/// [`Executor::run_planned`] and [`Executor::run_fast`]. Valid for the
/// input it was made for until the armed recording changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExecPlan {
    /// `None` when no recording is armed: the child runs front to back.
    resume: Option<ResumePlan>,
    ok_full_replay: bool,
}

impl ExecPlan {
    /// True when the child would be served wholly from the armed
    /// recording and that recording's run ended `Ok`: the child's outcome
    /// and event stream are the parent's.
    pub(crate) fn is_ok_full_replay(self) -> bool {
        self.ok_full_replay
    }
}

impl std::fmt::Debug for Executor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("metric", &self.metric.kind())
            .field("map_size", &self.instrumentation.map_size())
            .finish()
    }
}

impl<'p> Executor<'p> {
    /// Creates an executor for one (target, instrumentation, metric)
    /// combination.
    pub fn new(
        interpreter: &'p Interpreter<'p>,
        instrumentation: &'p Instrumentation,
        metric: Box<dyn CoverageMetric>,
    ) -> Self {
        let interp_mode = interpreter.mode();
        Executor {
            interpreter,
            instrumentation,
            metric,
            step_budget: None,
            interp_mode,
            armed: None,
        }
    }

    /// Sets (or clears) a calibrated step budget, capped at
    /// `ExecConfig::max_steps`. When set, it replaces the configured
    /// budget for every subsequent [`Executor::run`]; an execution
    /// exhausting it reports [`ExecOutcome::Hang`] exactly as if the
    /// configured budget had run out. The cap keeps every run the campaign
    /// admits replayable under `max_steps`, which is how
    /// `Campaign::restore` replays the queue. Any armed snapshot is
    /// dropped — a recording is only reusable under the exact budget it
    /// ran with.
    pub fn set_step_budget(&mut self, budget: Option<u64>) {
        let budget = budget.map(|steps| steps.min(self.interpreter.config().max_steps));
        if self.step_budget != budget {
            self.armed = None;
        }
        self.step_budget = budget;
    }

    /// Overrides the engine mode for this executor (the campaign's
    /// `CampaignConfig` / `BIGMAP_INTERP` resolution). Leaving snapshot
    /// mode drops any armed recording.
    pub fn set_interp_mode(&mut self, mode: InterpMode) {
        self.interp_mode = mode;
        if !mode.uses_compiled() {
            self.armed = None;
        }
    }

    /// The effective engine mode.
    pub fn interp_mode(&self) -> InterpMode {
        self.interp_mode
    }

    /// Memoizes a run of `parent` so subsequent [`Executor::run`] /
    /// `Executor::run_fast` calls on mutated children can resume from
    /// its snapshot. No-op unless the mode arms snapshots and the program
    /// has a runnable compiled lowering. Returns whether a snapshot is
    /// now armed.
    ///
    /// The priming run streams into a null sink and touches no coverage
    /// state, no oracle and no counters — it is invisible to the campaign
    /// trajectory.
    pub fn prime_snapshot(&mut self, parent: &[u8]) -> bool {
        if !self.interp_mode.uses_compiled() {
            return false;
        }
        // Skip re-priming for the parent already armed (the deterministic
        // and havoc stages share one scheduled parent).
        if let Some(recording) = &self.armed {
            if recording.input() == parent && recording.budget() == self.effective_budget() {
                return true;
            }
        }
        let Some(compiled) = self.interpreter.compiled() else {
            self.armed = None;
            return false;
        };
        let budget = self.effective_budget();
        let work = self.interpreter.config().work_per_block;
        let (_, recording) = compiled.record(parent, &mut NullSink, budget, work);
        self.armed = Some(recording);
        true
    }

    fn effective_budget(&self) -> u64 {
        self.step_budget
            .unwrap_or(self.interpreter.config().max_steps)
    }

    /// The calibrated step budget, if one is active.
    pub fn step_budget(&self) -> Option<u64> {
        self.step_budget
    }

    /// Runs `input`, recording coverage into `map` (which the caller must
    /// have `reset()` beforehand — the campaign owns that step so it can
    /// time it separately). `Executor::plan` then
    /// `Executor::run_planned`.
    pub fn run(&mut self, input: &[u8], map: &mut dyn CoverageMap) -> Execution {
        let plan = self.plan(input);
        self.run_planned(plan, input, map)
    }

    /// Decides how `input` will run: the one resume-point search against
    /// the armed recording (none when no recording is armed), and whether
    /// the child is a full replay of a recording that ended `Ok`.
    pub(crate) fn plan(&self, input: &[u8]) -> ExecPlan {
        // A recording is armed only in a compiled mode (see
        // `set_interp_mode` and `prime_snapshot`).
        let (Some(recording), Some(compiled)) = (&self.armed, self.interpreter.compiled()) else {
            return ExecPlan {
                resume: None,
                ok_full_replay: false,
            };
        };
        let resume = compiled.plan_resume(recording, input, self.effective_budget());
        ExecPlan {
            resume: Some(resume),
            ok_full_replay: resume.is_full_replay() && recording.outcome().is_ok(),
        }
    }

    /// [`Executor::run`] for a child already planned by
    /// [`Executor::plan`] on this input, with no recording change since.
    pub(crate) fn run_planned(
        &mut self,
        plan: ExecPlan,
        input: &[u8],
        map: &mut dyn CoverageMap,
    ) -> Execution {
        self.metric.begin_execution();
        let (engine, metric) = self.engine(plan);
        let start = Instant::now();
        let (run, path, map_updates) = engine.trace(input, metric, map);
        Execution {
            outcome: run.outcome,
            exec_time: start.elapsed(),
            map_updates,
            steps: run.steps,
            planted_hang: run.planted_hang,
            engine: path,
        }
    }

    /// Runs `input`, planned by [`Executor::plan`], on the untraced fast
    /// path: no coverage metric, no map updates — only the novelty
    /// `oracle` observes the trace. Step budgeting mirrors
    /// [`Executor::run`] exactly (same calibrated budget, same hang
    /// classification), so a fast exec and its traced re-execution
    /// always agree on outcome and step count.
    pub(crate) fn run_fast(
        &mut self,
        plan: ExecPlan,
        input: &[u8],
        oracle: &mut NoveltyOracle,
    ) -> FastExecution {
        oracle.begin_exec();
        let (run, engine) = self.engine(plan).0.run(input, oracle);
        FastExecution {
            outcome: run.outcome,
            steps: run.steps,
            planted_hang: run.planted_hang,
            provably_seen: oracle.provably_seen(),
            engine,
        }
    }

    /// The instrumentation tables in use.
    pub fn instrumentation(&self) -> &Instrumentation {
        self.instrumentation
    }

    /// This execution's engine arguments, next to the metric they run.
    fn engine(&mut self, plan: ExecPlan) -> (Engine<'_>, &mut dyn CoverageMetric) {
        let engine = Engine {
            interpreter: self.interpreter,
            instrumentation: self.instrumentation,
            mode: self.interp_mode,
            resume: self.armed.as_ref().zip(plan.resume),
            budget: self.effective_budget(),
        };
        (engine, self.metric.as_mut())
    }
}

/// One execution's engine arguments, shared by the traced and fast paths.
#[derive(Clone, Copy)]
struct Engine<'a> {
    interpreter: &'a Interpreter<'a>,
    instrumentation: &'a Instrumentation,
    mode: InterpMode,
    /// The armed recording and this child's plan against it.
    resume: Option<(&'a ExecRecording, ResumePlan)>,
    budget: u64,
}

impl Engine<'_> {
    /// Runs `input` into `sink` on the engine path the mode and the armed
    /// recording select.
    ///
    /// Dispatch is purely mechanical — every path yields the bit-identical
    /// [`BoundedRun`] and event stream, so the returned [`EnginePath`] is
    /// observational telemetry, never a semantic fork.
    fn run<S: TraceSink + ?Sized>(self, input: &[u8], sink: &mut S) -> (BoundedRun, EnginePath) {
        if self.mode.uses_compiled() {
            if let (Some((recording, plan)), Some(compiled)) =
                (self.resume, self.interpreter.compiled())
            {
                let work = self.interpreter.config().work_per_block;
                let (run, snapshot) =
                    compiled.run_planned(recording, plan, input, sink, self.budget, work);
                let path = match snapshot {
                    SnapshotOutcome::Miss => EnginePath::SnapshotMiss,
                    SnapshotOutcome::FullReplay { .. } => EnginePath::SnapshotReplay,
                    SnapshotOutcome::Resumed { .. } => EnginePath::SnapshotResume,
                };
                return (run, path);
            }
        }
        let run = self
            .interpreter
            .run_bounded_mode(input, sink, self.budget, self.mode);
        let path = if self.mode.uses_compiled() && self.interpreter.compiled().is_some() {
            EnginePath::Compiled
        } else {
            EnginePath::Tree
        };
        (run, path)
    }

    /// Runs `input` traced into `metric` and `map`, returning the run, its
    /// engine path and the number of map updates.
    ///
    /// The concrete metric and map are found here, once per execution, by
    /// type (never by [`CoverageMetric::kind`], which a user metric may
    /// share with a shipped one). `EdgeHitCount` and `NGram`, each paired
    /// with a shipped map, get their own [`MappingSink`] instantiation —
    /// on `BigMap`, one per `record` path the exec uses
    /// ([`BigMap::recorder`]); any other pair, `ContextSensitive` and
    /// `BlockCoverage` included, runs through the trait objects.
    fn trace(
        self,
        input: &[u8],
        metric: &mut dyn CoverageMetric,
        map: &mut dyn CoverageMap,
    ) -> (BoundedRun, EnginePath, u64) {
        let any = metric as &mut dyn Any;
        if let Some(metric) = any.downcast_mut::<EdgeHitCount>() {
            return self.trace_map(input, metric, map);
        }
        if let Some(metric) = any.downcast_mut::<NGram>() {
            return self.trace_map(input, metric, map);
        }
        self.traced(input, metric, move |key| map.record(key))
    }

    /// [`Engine::trace`]'s second step, for a concrete metric `M`.
    fn trace_map<M: CoverageMetric>(
        self,
        input: &[u8],
        metric: &mut M,
        map: &mut dyn CoverageMap,
    ) -> (BoundedRun, EnginePath, u64) {
        let any = map as &mut dyn Any;
        if let Some(map) = any.downcast_mut::<BigMap>() {
            return match map.recorder() {
                Recorder::Plain(mut r) => self.traced(input, metric, move |key| r.record(key)),
                Recorder::Journaled(mut r) => self.traced(input, metric, move |key| r.record(key)),
            };
        }
        if let Some(map) = any.downcast_mut::<FlatBitmap>() {
            return self.traced(input, metric, move |key| map.record(key));
        }
        self.traced(input, metric as &mut dyn CoverageMetric, move |key| {
            map.record(key)
        })
    }

    /// The one traced code path, monomorphized per (metric, `record`)
    /// pair.
    fn traced<M: CoverageMetric + ?Sized, R: FnMut(u32)>(
        self,
        input: &[u8],
        metric: &mut M,
        record: R,
    ) -> (BoundedRun, EnginePath, u64) {
        let mut sink = MappingSink {
            instrumentation: self.instrumentation,
            metric,
            record,
            updates: 0,
        };
        let (run, path) = self.run(input, &mut sink);
        (run, path, sink.updates)
    }
}

/// Result of one untraced fast-path execution (`Executor::run_fast`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastExecution {
    /// The target's outcome.
    pub outcome: ExecOutcome,
    /// Interpreter steps consumed — identical to what the traced path
    /// would charge for the same input and budget.
    pub steps: u64,
    /// See [`Execution::planted_hang`].
    pub planted_hang: bool,
    /// The oracle's verdict: `true` means this execution is provably
    /// identical in coverage effect to an already-committed traced run,
    /// so (if it also completed `Ok`) the traced re-execution can be
    /// skipped without changing the campaign trajectory.
    pub provably_seen: bool,
    /// Which engine path satisfied this execution.
    pub engine: EnginePath,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigmap_core::{BigMap, FlatBitmap, MapSize};
    use bigmap_coverage::{ContextSensitive, EdgeHitCount, NGram};
    use bigmap_target::{GeneratorConfig, ProgramBuilder};

    fn setup() -> (bigmap_target::Program, Instrumentation) {
        let program = GeneratorConfig {
            seed: 5,
            functions: 4,
            gates_per_function: 6,
            ..Default::default()
        }
        .generate();
        let instrumentation =
            Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 42);
        (program, instrumentation)
    }

    #[test]
    fn identical_inputs_identical_coverage() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut executor = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut a = BigMap::new(MapSize::K64).unwrap();
        let mut b = BigMap::new(MapSize::K64).unwrap();
        executor.run(b"input-x", &mut a);
        // Fresh map for the second run to compare raw counts.
        executor.run(b"input-x", &mut b);
        assert_eq!(a.active_region(), b.active_region());
    }

    #[test]
    fn different_inputs_usually_differ() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut executor = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut a = BigMap::new(MapSize::K64).unwrap();
        let mut b = BigMap::new(MapSize::K64).unwrap();
        executor.run(&[0x11; 48], &mut a);
        executor.run(&[0xEE; 48], &mut b);
        assert_ne!(a.active_region(), b.active_region());
    }

    #[test]
    fn flat_and_bigmap_see_equivalent_coverage() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let input = b"equivalence-check".to_vec();

        let mut flat_exec = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut flat = FlatBitmap::new(MapSize::K64).unwrap();
        flat_exec.run(&input, &mut flat);

        let mut big_exec = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut big = BigMap::new(MapSize::K64).unwrap();
        big_exec.run(&input, &mut big);

        // Same multiset of non-zero hit counts.
        let mut flat_counts: Vec<u8> = Vec::new();
        flat.for_each_nonzero(&mut |_, v| flat_counts.push(v));
        let mut big_counts: Vec<u8> = Vec::new();
        big.for_each_nonzero(&mut |_, v| big_counts.push(v));
        flat_counts.sort_unstable();
        big_counts.sort_unstable();
        assert_eq!(flat_counts, big_counts);
    }

    #[test]
    fn metric_begin_execution_isolates_runs() {
        // An N-gram metric carries a window across blocks; run() must reset
        // it so back-to-back identical runs produce identical coverage.
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut executor = Executor::new(&interp, &inst, Box::new(NGram::new(3).unwrap()));
        let mut a = BigMap::new(MapSize::K64).unwrap();
        executor.run(b"zzz", &mut a);
        let first: Vec<u8> = a.active_region().to_vec();
        a.reset();
        executor.run(b"zzz", &mut a);
        assert_eq!(a.active_region(), &first[..]);
    }

    #[test]
    fn context_metric_uses_call_events() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut edge_exec = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut ctx_exec = Executor::new(&interp, &inst, Box::new(ContextSensitive::new()));
        let mut edge_map = BigMap::new(MapSize::M2).unwrap();
        let mut ctx_map = BigMap::new(MapSize::M2).unwrap();
        edge_exec.run(&[5; 64], &mut edge_map);
        ctx_exec.run(&[5; 64], &mut ctx_map);
        // Context sensitivity can only split keys, never merge them.
        assert!(ctx_map.used_len() >= edge_map.used_len());
    }

    #[test]
    fn crash_propagates_from_target() {
        let program = ProgramBuilder::new("c")
            .gate(0, b'X', true)
            .build()
            .unwrap();
        let inst =
            Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 1);
        let interp = Interpreter::new(&program);
        let mut executor = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut map = BigMap::new(MapSize::K64).unwrap();
        assert!(executor.run(b"X", &mut map).outcome.is_crash());
        map.reset();
        assert!(!executor.run(b"?", &mut map).outcome.is_crash());
    }

    #[test]
    fn map_updates_counted_and_deterministic() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut executor = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut map = BigMap::new(MapSize::K64).unwrap();
        let first = executor.run(b"count me", &mut map);
        assert!(first.map_updates > 0, "execution must record coverage");
        map.reset();
        let again = executor.run(b"count me", &mut map);
        assert_eq!(first.map_updates, again.map_updates);
    }

    #[test]
    fn fast_path_agrees_with_traced_on_outcome_and_steps() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut executor = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut oracle = NoveltyOracle::new(program.block_count());
        let mut map = BigMap::new(MapSize::K64).unwrap();
        for input in [&b"abc"[..], &[0x11; 48], b""] {
            let fast = executor.run_fast(executor.plan(input), input, &mut oracle);
            map.reset();
            let traced = executor.run(input, &mut map);
            assert_eq!(fast.outcome, traced.outcome);
            assert_eq!(fast.steps, traced.steps);
            assert_eq!(fast.planted_hang, traced.planted_hang);
        }
    }

    #[test]
    fn fast_path_respects_calibrated_budget() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut executor = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut oracle = NoveltyOracle::new(program.block_count());
        let full = executor.run_fast(executor.plan(b"budget"), b"budget", &mut oracle);
        assert!(full.outcome.is_ok());
        executor.set_step_budget(Some(full.steps - 1));
        let cut = executor.run_fast(executor.plan(b"budget"), b"budget", &mut oracle);
        assert!(cut.outcome.is_hang(), "calibrated budget must bind");
        assert!(!cut.provably_seen);
    }

    #[test]
    fn oracle_verdict_flips_after_commit() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut executor = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut oracle = NoveltyOracle::new(program.block_count());
        let first = executor.run_fast(executor.plan(b"repeat"), b"repeat", &mut oracle);
        assert!(!first.provably_seen, "fresh path must be suspicious");
        oracle.commit();
        let second = executor.run_fast(executor.plan(b"repeat"), b"repeat", &mut oracle);
        assert!(second.provably_seen, "committed replay is skippable");
    }

    #[test]
    fn debug_shows_metric() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let executor = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        assert!(format!("{executor:?}").contains("Edge"));
    }

    #[test]
    fn engine_path_tracks_mode() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut executor = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut map = BigMap::new(MapSize::K64).unwrap();

        executor.set_interp_mode(InterpMode::Tree);
        assert_eq!(executor.run(b"mode", &mut map).engine, EnginePath::Tree);
        map.reset();
        // Auto without a primed snapshot still runs compiled front-to-back.
        executor.set_interp_mode(InterpMode::Auto);
        assert_eq!(executor.run(b"mode", &mut map).engine, EnginePath::Compiled);
    }

    #[test]
    fn snapshot_paths_are_trajectory_neutral() {
        // The load-bearing invariant: with a primed parent snapshot,
        // children run through replay/resume paths yet produce coverage,
        // steps and outcomes identical to a cold executor.
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut snap = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut cold = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        // `cold` is never primed, so it runs compiled front to back.
        snap.set_interp_mode(InterpMode::Auto);
        cold.set_interp_mode(InterpMode::Auto);

        let parent = [0x41u8; 48];
        assert!(snap.prime_snapshot(&parent));

        let mut child = parent;
        child[7] ^= 0xFF;
        for input in [&parent[..], &child[..], b"totally different"] {
            let mut a = BigMap::new(MapSize::K64).unwrap();
            let mut b = BigMap::new(MapSize::K64).unwrap();
            let hot = snap.run(input, &mut a);
            let ref_exec = cold.run(input, &mut b);
            assert_eq!(hot.outcome, ref_exec.outcome);
            assert_eq!(hot.steps, ref_exec.steps);
            assert_eq!(hot.map_updates, ref_exec.map_updates);
            assert_eq!(a.active_region(), b.active_region());
            assert!(hot.engine.is_compiled());
        }

        // The identical parent replays wholesale; a mutated child either
        // resumes or (conservatively) misses — never a tree fallback.
        let mut map = BigMap::new(MapSize::K64).unwrap();
        assert_eq!(
            snap.run(&parent, &mut map).engine,
            EnginePath::SnapshotReplay
        );
    }

    #[test]
    fn priming_is_idempotent_and_budget_sensitive() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut executor = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        executor.set_interp_mode(InterpMode::Auto);
        assert!(executor.prime_snapshot(b"parent"));
        assert!(executor.prime_snapshot(b"parent"), "re-prime is a no-op");

        // Budget changes invalidate the recording (it memoized the old
        // budget's exhaustion behaviour); the next child must not hit.
        executor.set_step_budget(Some(10));
        let mut map = BigMap::new(MapSize::K64).unwrap();
        let run = executor.run(b"parent", &mut map);
        assert_eq!(run.engine, EnginePath::Compiled, "stale snapshot dropped");

        // Tree mode refuses to arm and drops any armed snapshot.
        executor.set_step_budget(None);
        assert!(executor.prime_snapshot(b"parent"));
        executor.set_interp_mode(InterpMode::Tree);
        assert!(!executor.prime_snapshot(b"parent"));
        map.reset();
        assert_eq!(executor.run(b"parent", &mut map).engine, EnginePath::Tree);
    }

    #[test]
    fn ok_full_replay_is_reported_for_the_armed_parent_only() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut executor = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        executor.set_interp_mode(InterpMode::Auto);
        let parent = [0x41u8; 48];
        let ok_replay =
            |executor: &Executor<'_>, input: &[u8]| executor.plan(input).is_ok_full_replay();

        assert!(!ok_replay(&executor, &parent), "nothing armed");
        assert!(executor.prime_snapshot(&parent));
        assert!(ok_replay(&executor, &parent));

        // A child resumed mid-tape runs past the parent's decisions.
        let mut map = BigMap::new(MapSize::K64).unwrap();
        let resumed = (0..parent.len())
            .flat_map(|i| {
                (0..=255u8).map(move |byte| {
                    let mut child = parent;
                    child[i] = byte;
                    child
                })
            })
            .find(|child| {
                map.reset();
                executor.run(child, &mut map).engine == EnginePath::SnapshotResume
            })
            .expect("some one-byte mutant resumes mid-tape");
        assert!(!ok_replay(&executor, &resumed));

        // A recording that hangs (budget below the parent's steps).
        map.reset();
        let steps = executor.run(&parent, &mut map).steps;
        executor.set_step_budget(Some(steps - 1));
        assert!(executor.prime_snapshot(&parent));
        assert!(!ok_replay(&executor, &parent));

        // A dropped recording: leaving for the tree engine disarms.
        executor.set_step_budget(None);
        assert!(executor.prime_snapshot(&parent));
        assert!(ok_replay(&executor, &parent));
        executor.set_interp_mode(InterpMode::Tree);
        assert!(!ok_replay(&executor, &parent));
    }

    #[test]
    fn fast_path_snapshot_agrees_with_oracle_state() {
        let (program, inst) = setup();
        let interp = Interpreter::new(&program);
        let mut snap = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        let mut cold = Executor::new(&interp, &inst, Box::new(EdgeHitCount::new()));
        // `cold` is never primed, so it runs compiled front to back.
        snap.set_interp_mode(InterpMode::Auto);
        cold.set_interp_mode(InterpMode::Auto);

        let parent = [0x33u8; 48];
        snap.prime_snapshot(&parent);
        let mut child = parent;
        child[0] = 0x44;

        let mut snap_oracle = NoveltyOracle::new(program.block_count());
        let mut cold_oracle = NoveltyOracle::new(program.block_count());
        for input in [&parent[..], &child[..]] {
            let hot = snap.run_fast(snap.plan(input), input, &mut snap_oracle);
            let ref_exec = cold.run_fast(cold.plan(input), input, &mut cold_oracle);
            assert_eq!(hot.outcome, ref_exec.outcome);
            assert_eq!(hot.steps, ref_exec.steps);
            assert_eq!(hot.provably_seen, ref_exec.provably_seen);
            assert_eq!(snap_oracle.path_hash(), cold_oracle.path_hash());
            assert!(hot.engine.is_compiled());
        }
    }
}
