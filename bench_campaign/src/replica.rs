//! The traced replica: `Campaign`'s fuzzing loop re-driven through the
//! layers' public calls, each call timed from outside.
//!
//! The replica owns the same parts a `bigmap_fuzzer::Campaign` does —
//! executor, coverage map, virgin maps, queue, mutator, Crashwalk, both
//! RNG streams — seeded exactly as `campaign.rs` seeds them, and calls
//! them in the same order, so it walks the same trajectory; its
//! fingerprint must equal the untraced campaign's or the run fails. It
//! mirrors the configuration the benchmark runs (always-trace, merged
//! classify+compare, no trimming, no calibrated hang budget, no
//! dictionary, no fault injection), which it asserts.
//!
//! Spans are taken with chained `Instant` reads: where one call follows
//! another with nothing in between, one read ends the first span and
//! starts the next. Work between calls that belongs to no layer (bench
//! bookkeeping) falls between spans and counts against `trace.closure`.

use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bigmap_core::{build_map, CoverageMap, NewCoverage, OpPath, VirginState};
use bigmap_fuzzer::checkpoint::CheckpointQueueEntry;
use bigmap_fuzzer::{
    build_metric, Campaign, CampaignConfig, Checkpoint, CheckpointManager, CoverageTimeline,
    CrashWalk, EnginePath, Executor, Mutator, Queue,
};
use bigmap_target::{ExecOutcome, Interpreter};

use crate::fingerprint::{corpus_crc, Fingerprint};
use crate::stats::Histogram;
use crate::workloads::{Target, Workload, CHECKPOINT_EVERY, CHECKPOINT_FLOOR};

/// Deterministic children generated per newly scheduled entry, as in
/// `campaign.rs`.
const DETERMINISTIC_CHILDREN: usize = 512;

/// Raw spans are kept for one test case in this many.
pub const RAW_SPAN_EVERY: u64 = 1024;

/// The layers a test case passes through, one per public call timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Queue::schedule`.
    Schedule,
    /// `Executor::prime_snapshot`.
    Prime,
    /// `Mutator::deterministic`.
    MutateDet,
    /// `Mutator::havoc`, with the splice partner's selection.
    MutateHavoc,
    /// `CoverageMap::reset`.
    Reset,
    /// `Executor::run`: engine, coverage metric and map `record`.
    Executor,
    /// `CoverageMap::classify_and_compare`.
    ClassifyCompare,
    /// `CoverageMap::hash`.
    Hash,
    /// `CoverageMap::for_each_nonzero`.
    Scan,
    /// `Queue::add_with_depth`.
    Admit,
    /// `CrashWalk::observe`.
    CrashWalk,
    /// `CheckpointManager::maybe_checkpoint`, fsync included.
    Checkpoint,
}

/// Every layer, in loop order.
pub const LAYERS: [Layer; 12] = [
    Layer::Schedule,
    Layer::Prime,
    Layer::MutateDet,
    Layer::MutateHavoc,
    Layer::Reset,
    Layer::Executor,
    Layer::ClassifyCompare,
    Layer::Hash,
    Layer::Scan,
    Layer::Admit,
    Layer::CrashWalk,
    Layer::Checkpoint,
];

impl Layer {
    /// Span name in the raw-span JSONL.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Schedule => "queue.schedule",
            Layer::Prime => "snapshot.prime",
            Layer::MutateDet => "mutate.det",
            Layer::MutateHavoc => "mutate.havoc",
            Layer::Reset => "map.reset",
            Layer::Executor => "executor",
            Layer::ClassifyCompare => "map.classify_compare",
            Layer::Hash => "map.hash",
            Layer::Scan => "map.scan",
            Layer::Admit => "queue.admit",
            Layer::CrashWalk => "crashwalk",
            Layer::Checkpoint => "checkpoint",
        }
    }
}

/// One raw span, kept for sampled test cases.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// Test case the span belongs to (batch-level spans carry the id of
    /// the batch's first test case).
    pub test_case: u64,
    /// The layer.
    pub layer: Layer,
    /// Start, in nanoseconds since the fuzzing loop began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Everything the tracer recorded over one or more campaigns.
#[derive(Clone, Default)]
pub struct Trace {
    /// Span durations per layer, indexed like [`LAYERS`].
    pub layers: [Histogram; 12],
    /// Whole test cases: mutation (or the start of a deterministic
    /// child) through the last fitness-pipeline call.
    pub test_cases: Histogram,
    /// Traced fuzzing-loop wall time, without the replica's checkpoint
    /// state reconstruction.
    pub loop_ns: u64,
    /// Fuzzing-loop execs.
    pub execs: u64,
    /// Interpreter steps over all execs.
    pub steps: u64,
    /// Map `record` calls over all execs.
    pub map_updates: u64,
    /// Execs served wholly from a parent snapshot.
    pub snapshot_replays: u64,
    /// Execs resumed mid-run from a parent snapshot.
    pub snapshot_resumes: u64,
    /// Execs whose armed snapshot could not be used.
    pub snapshot_misses: u64,
    /// Sum of the active map region over classify calls.
    pub active_bytes: u64,
    /// Classify calls that took the sparse path.
    pub sparse_ops: u64,
    /// Classify calls whose touch journal overflowed.
    pub journal_overflows: u64,
    /// Children generated (deterministic and havoc).
    pub children: u64,
    /// Sum of children's lengths.
    pub child_bytes: u64,
    /// Queue admissions in the fuzzing loop.
    pub admissions: u64,
    /// Crashwalk-unique crashes.
    pub unique_crashes: u64,
    /// Final queue lengths, one per campaign.
    pub queue_lens: Vec<f64>,
    /// Sampled raw spans, with the campaign seed they came from.
    pub raw: Vec<(u64, RawSpan)>,
}

impl Trace {
    /// The histogram of `layer`.
    pub fn layer(&self, layer: Layer) -> &Histogram {
        &self.layers[layer as usize]
    }

    /// Adds every record of `other`.
    pub fn merge(&mut self, other: &Trace) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.merge(b);
        }
        self.test_cases.merge(&other.test_cases);
        self.loop_ns += other.loop_ns;
        self.execs += other.execs;
        self.steps += other.steps;
        self.map_updates += other.map_updates;
        self.snapshot_replays += other.snapshot_replays;
        self.snapshot_resumes += other.snapshot_resumes;
        self.snapshot_misses += other.snapshot_misses;
        self.active_bytes += other.active_bytes;
        self.sparse_ops += other.sparse_ops;
        self.journal_overflows += other.journal_overflows;
        self.children += other.children;
        self.child_bytes += other.child_bytes;
        self.admissions += other.admissions;
        self.unique_crashes += other.unique_crashes;
        self.queue_lens.extend_from_slice(&other.queue_lens);
        self.raw.extend_from_slice(&other.raw);
    }
}

/// A traced campaign's outcome.
pub struct TracedCampaign {
    /// The replica's fingerprint.
    pub fingerprint: Fingerprint,
    /// What the tracer recorded.
    pub trace: Trace,
    /// Problems found (a checkpoint the manager declined to write, I/O
    /// errors); empty for a correct run.
    pub problems: Vec<String>,
}

/// Replays one campaign of `workload` (same arguments as
/// [`crate::measure::run_campaign`]) with every layer call traced.
pub fn run_traced(
    workload: &Workload,
    campaign_seed: u64,
    execs: u64,
    scale: f64,
    out_dir: &Path,
) -> TracedCampaign {
    let config = workload.config(campaign_seed, execs);
    let target = workload.build_target(scale);
    let interpreter = Interpreter::new(&target.program);
    let mut replica = Replica::new(&config, &interpreter, &target);
    for seed in &target.seeds {
        replica.judge(seed, true, Instant::now());
    }
    replica.trace = Trace::default();

    let ckpt_dir = out_dir.join(format!("trace-ckpt-{}-{campaign_seed:016x}", workload.name));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut checkpoints = workload.checkpoint.then(|| CheckpointState {
        manager: CheckpointManager::new(&ckpt_dir, CHECKPOINT_EVERY)
            .with_min_interval(CHECKPOINT_FLOOR),
        next_at: CHECKPOINT_EVERY,
        last_write: None,
        reconstruction_ns: 0,
    });
    let mut problems = Vec::new();
    replica.fuzz(&config, |replica| {
        if let Some(state) = checkpoints.as_mut() {
            if let Err(problem) = state.maybe_checkpoint(replica, &config, &interpreter, &target) {
                problems.push(problem);
            }
        }
    });
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if let Some(state) = &checkpoints {
        replica.trace.loop_ns -= state.reconstruction_ns;
    }

    replica.timeline.record(replica.execs, replica.discovered);
    let fingerprint = Fingerprint {
        execs: replica.execs,
        queue_len: replica.queue.len(),
        discovered_slots: replica.virgin.discovered_in(replica.map.used_len()),
        used_len: replica.map.used_len(),
        unique_crashes: replica.crashwalk.unique_count(),
        total_crashes: replica.total_crashes,
        hangs: replica.hangs,
        coverage: replica.timeline.final_coverage(),
        corpus_crc: corpus_crc(replica.queue.entries().iter().map(|e| e.input.as_slice())),
    };
    let mut trace = std::mem::take(&mut replica.trace);
    trace.unique_crashes = replica.crashwalk.unique_count() as u64;
    trace.queue_lens.push(replica.queue.len() as f64);
    TracedCampaign {
        fingerprint,
        trace,
        problems,
    }
}

/// The campaign state `campaign.rs` keeps, minus what the benchmark's
/// configuration never uses.
struct Replica<'p> {
    executor: Executor<'p>,
    map: Box<dyn CoverageMap>,
    virgin: VirginState,
    virgin_crash: VirginState,
    virgin_hang: VirginState,
    queue: Queue,
    mutator: Mutator,
    crashwalk: CrashWalk,
    rng: SmallRng,
    execs: u64,
    total_crashes: u64,
    hangs: u64,
    coverage_unique_crashes: u64,
    discovered: u64,
    crash_inputs: Vec<Vec<u8>>,
    hang_inputs: Vec<Vec<u8>>,
    timeline: CoverageTimeline,
    admit_depth: usize,
    trace: Trace,
    /// Start of the fuzzing loop: the origin of raw-span timestamps.
    origin: Instant,
    /// Id of the next test case.
    test_case: u64,
    /// Tags this campaign's raw spans.
    campaign_seed: u64,
}

impl<'p> Replica<'p> {
    fn new(config: &CampaignConfig, interpreter: &'p Interpreter<'p>, target: &'p Target) -> Self {
        assert!(
            config.merged_classify_compare
                && !config.trim_new_entries
                && config.hang_budget.is_none()
                && config.dictionary.is_empty()
                && config.trace.is_none(),
            "the replica mirrors the benchmark's campaign configuration only"
        );
        let mut map = build_map(config.scheme, config.map_size);
        map.set_sparse_override(config.sparse);
        let mut executor = Executor::new(
            interpreter,
            &target.instrumentation,
            build_metric(config.metric),
        );
        executor.set_interp_mode(
            config
                .interp
                .unwrap_or_else(bigmap_core::env::interp_request),
        );
        Replica {
            executor,
            map,
            virgin: VirginState::new(config.map_size),
            virgin_crash: VirginState::new(config.map_size),
            virgin_hang: VirginState::new(config.map_size),
            queue: Queue::new(),
            mutator: Mutator::with_dictionary(config.seed ^ 0x5EED, Vec::new()),
            crashwalk: CrashWalk::new(),
            rng: SmallRng::seed_from_u64(config.seed ^ 0xD1CE),
            execs: 0,
            total_crashes: 0,
            hangs: 0,
            coverage_unique_crashes: 0,
            discovered: 0,
            crash_inputs: Vec::new(),
            hang_inputs: Vec::new(),
            timeline: CoverageTimeline::new(),
            admit_depth: 0,
            trace: Trace::default(),
            origin: Instant::now(),
            test_case: 0,
            campaign_seed: config.seed,
        }
    }

    fn span(&mut self, layer: Layer, start: Instant, end: Instant) {
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        self.trace.layers[layer as usize].record(dur_ns);
        if self.test_case.is_multiple_of(RAW_SPAN_EVERY) {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.trace.raw.push((
                self.campaign_seed,
                RawSpan {
                    test_case: self.test_case,
                    layer,
                    start_ns,
                    dur_ns,
                },
            ));
        }
    }

    /// `Campaign::run_loop` with a sync hook at every batch boundary.
    fn fuzz(&mut self, config: &CampaignConfig, mut on_batch: impl FnMut(&mut Self)) {
        let budget = match config.budget {
            bigmap_fuzzer::Budget::Execs(n) => n,
            bigmap_fuzzer::Budget::Time(_) => panic!("the benchmark runs exec budgets only"),
        };
        assert!(!self.queue.is_empty(), "campaign needs at least one seed");
        let seed_execs = self.execs;
        self.origin = Instant::now();
        let mut deterministic_done = 0usize;
        while self.execs < budget {
            let t0 = Instant::now();
            let rng = &mut self.rng;
            let entry_id = self
                .queue
                .schedule(|| rng.gen::<f64>())
                .expect("non-empty queue");
            let t1 = Instant::now();
            self.span(Layer::Schedule, t0, t1);
            let parent = self.queue.entry(entry_id).input.clone();
            let parent_depth = self.queue.entry(entry_id).depth;
            self.admit_depth = parent_depth + 1;
            let t2 = Instant::now();
            self.executor.prime_snapshot(&parent);
            let t3 = Instant::now();
            self.span(Layer::Prime, t2, t3);

            if config.deterministic
                && deterministic_done <= entry_id
                && self.queue.entry(entry_id).fuzzed_rounds <= 1
            {
                deterministic_done = entry_id + 1;
                let t = Instant::now();
                let children = Mutator::deterministic(&parent, DETERMINISTIC_CHILDREN);
                self.span(Layer::MutateDet, t, Instant::now());
                for child in children {
                    if self.execs >= budget {
                        break;
                    }
                    self.trace.children += 1;
                    self.trace.child_bytes += child.len() as u64;
                    self.judge(&child, false, Instant::now());
                }
            }

            let energy_factor = match parent_depth {
                0..=3 => 1,
                4..=7 => 2,
                8..=13 => 3,
                14..=25 => 4,
                _ => 5,
            };
            for _ in 0..config.mutations_per_seed * energy_factor {
                if self.execs >= budget {
                    break;
                }
                let t0 = Instant::now();
                let splice_with = if self.queue.len() > 1 && self.rng.gen_bool(0.2) {
                    let other = self.rng.gen_range(0..self.queue.len());
                    Some(self.queue.entry(other).input.clone())
                } else {
                    None
                };
                let child = self.mutator.havoc(&parent, splice_with.as_deref());
                let t1 = Instant::now();
                self.span(Layer::MutateHavoc, t0, t1);
                self.trace.children += 1;
                self.trace.child_bytes += child.len() as u64;
                self.judge_from(&child, false, t0, t1);
            }
            on_batch(self);
        }
        self.trace.loop_ns = self.origin.elapsed().as_nanos() as u64;
        self.trace.execs = self.execs - seed_execs;
    }

    fn judge(&mut self, input: &[u8], force_admit: bool, start: Instant) {
        self.judge_from(input, force_admit, start, start);
    }

    /// `Campaign::execute_and_judge` for always-trace campaigns: a test
    /// case that began at `test_case_start` and reaches the map reset at
    /// `reset_start`.
    fn judge_from(
        &mut self,
        input: &[u8],
        force_admit: bool,
        test_case_start: Instant,
        reset_start: Instant,
    ) {
        self.map.reset();
        let t1 = Instant::now();
        self.span(Layer::Reset, reset_start, t1);
        let execution = self.executor.run(input, self.map.as_mut());
        let t2 = Instant::now();
        self.span(Layer::Executor, t1, t2);
        self.execs += 1;

        let virgin = match &execution.outcome {
            ExecOutcome::Ok => &mut self.virgin,
            ExecOutcome::Crash { .. } => &mut self.virgin_crash,
            ExecOutcome::Hang => &mut self.virgin_hang,
        };
        let verdict = self.map.classify_and_compare(virgin);
        let t3 = Instant::now();
        self.span(Layer::ClassifyCompare, t2, t3);
        let mut end = t3;

        match &execution.outcome {
            ExecOutcome::Ok => {
                if verdict.is_interesting() || force_admit {
                    let hash = self.map.hash();
                    let t4 = Instant::now();
                    self.span(Layer::Hash, t3, t4);
                    let mut slots = Vec::new();
                    self.map.for_each_nonzero(&mut |slot, _| slots.push(slot));
                    let t5 = Instant::now();
                    self.span(Layer::Scan, t4, t5);
                    self.queue.add_with_depth(
                        input.to_vec(),
                        execution.exec_time,
                        execution.steps,
                        hash,
                        &slots,
                        self.admit_depth,
                    );
                    end = Instant::now();
                    self.span(Layer::Admit, t5, end);
                    self.trace.admissions += 1;
                }
            }
            ExecOutcome::Crash { .. } => {
                self.total_crashes += 1;
                if verdict.is_interesting() {
                    self.coverage_unique_crashes += 1;
                }
                let fresh = self.crashwalk.observe(&execution.outcome);
                end = Instant::now();
                self.span(Layer::CrashWalk, t3, end);
                if fresh {
                    self.crash_inputs.push(input.to_vec());
                }
            }
            ExecOutcome::Hang => {
                self.hangs += 1;
                if verdict.is_interesting() {
                    self.hang_inputs.push(input.to_vec());
                }
            }
        }
        self.trace
            .test_cases
            .record(end.duration_since(test_case_start).as_nanos() as u64);
        self.test_case += 1;

        if verdict == NewCoverage::NewEdge {
            self.discovered += 1;
        }
        if self.execs.is_multiple_of(256) {
            self.timeline.record(self.execs, self.discovered);
        }
        self.trace.steps += execution.steps;
        self.trace.map_updates += execution.map_updates;
        match execution.engine {
            EnginePath::SnapshotReplay => self.trace.snapshot_replays += 1,
            EnginePath::SnapshotResume => self.trace.snapshot_resumes += 1,
            EnginePath::SnapshotMiss => self.trace.snapshot_misses += 1,
            EnginePath::Tree | EnginePath::Compiled => {}
        }
        self.trace.active_bytes += self.map.used_len() as u64;
        self.trace.sparse_ops += u64::from(self.map.last_op_path() == OpPath::Sparse);
        self.trace.journal_overflows += u64::from(self.map.journal_overflowed());
    }

    /// The state `Campaign::checkpoint` would capture at this point.
    fn checkpoint(&self, wall_nanos: u64) -> Checkpoint {
        Checkpoint {
            execs: self.execs,
            wall_nanos,
            total_crashes: self.total_crashes,
            hangs: self.hangs,
            coverage_unique_crashes: self.coverage_unique_crashes,
            discovered_running: self.discovered,
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
            oracle: None,
        }
    }
}

/// The replica's side of the checkpoint cadence.
///
/// `CheckpointManager::maybe_checkpoint` takes a `Campaign`, so at each
/// write the replica's state is restored into a fresh one (that
/// reconstruction is excluded from the traced wall time) and the manager
/// writes from it. `next_at` and `last_write` mirror the manager's own
/// cadence; `last_write` is read after the manager returns, so whenever
/// the mirror says a write is due, the manager agrees.
struct CheckpointState {
    manager: CheckpointManager,
    next_at: u64,
    last_write: Option<Instant>,
    reconstruction_ns: u64,
}

impl CheckpointState {
    fn maybe_checkpoint(
        &mut self,
        replica: &mut Replica<'_>,
        config: &CampaignConfig,
        interpreter: &Interpreter<'_>,
        target: &Target,
    ) -> Result<(), String> {
        let due = replica.execs >= self.next_at
            && self
                .last_write
                .is_none_or(|last| last.elapsed() >= CHECKPOINT_FLOOR);
        if !due {
            return Ok(());
        }
        let rebuild = Instant::now();
        let wall =
            rebuild.duration_since(replica.origin).as_nanos() as u64 - self.reconstruction_ns;
        let mut campaign = Campaign::new(config.clone(), interpreter, &target.instrumentation);
        campaign.restore(&replica.checkpoint(wall));
        let t0 = Instant::now();
        self.reconstruction_ns += t0.duration_since(rebuild).as_nanos() as u64;
        let wrote = self.manager.maybe_checkpoint(&campaign);
        let t1 = Instant::now();
        replica.span(Layer::Checkpoint, t0, t1);
        self.next_at = replica.execs + CHECKPOINT_EVERY;
        self.last_write = Some(t1);
        match wrote {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!(
                "checkpoint manager declined a due write at {} execs",
                replica.execs
            )),
            Err(err) => Err(format!("checkpoint write failed: {err}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::run_campaign;
    use bigmap_core::MapScheme;

    /// The replica must walk `Campaign`'s trajectory exactly; any drift
    /// between this file and `campaign.rs` fails here.
    #[test]
    fn replica_walks_the_campaign_trajectory() {
        let zlib = *crate::workloads::by_name("zlib-havoc-ckpt").expect("zlib workload");
        let out_dir =
            std::env::temp_dir().join(format!("bench-campaign-drift-{}", std::process::id()));
        for scheme in [MapScheme::Flat, MapScheme::TwoLevel] {
            for deterministic in [true, false] {
                let workload = Workload {
                    scheme,
                    deterministic,
                    checkpoint: true,
                    ..zlib
                };
                for seed in [1, 2] {
                    let campaign = run_campaign(&workload, seed, 5_000, 0.01, &out_dir, true);
                    let traced = run_traced(&workload, seed, 5_000, 0.01, &out_dir);
                    let label = format!("{scheme:?} deterministic={deterministic} seed={seed}");
                    assert!(
                        campaign.problems.is_empty(),
                        "{label}: {:?}",
                        campaign.problems
                    );
                    assert!(traced.problems.is_empty(), "{label}: {:?}", traced.problems);
                    assert_eq!(traced.fingerprint, campaign.fingerprint, "{label}");
                    assert!(
                        campaign.fingerprint.queue_len > 1,
                        "{label}: nothing admitted"
                    );
                    assert_eq!(traced.trace.execs + 1, campaign.fingerprint.execs);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
