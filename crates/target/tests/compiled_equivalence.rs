//! Compiled-vs-tree engine equivalence.
//!
//! The compiled bytecode engine and the snapshot-resume path must be
//! observationally identical to the tree walker: same [`ExecOutcome`],
//! same full trace-event sequence (blocks, calls, returns), same step
//! counts — at every budget boundary. The campaign's bit-identical
//! trajectory guarantee across engine modes rests on exactly
//! this property, so it is proven here over random generated programs ×
//! random inputs × random mutations, plus pinned adversarial boundary
//! cases (budget exhausted on a `LoopHead` back-edge, `MagicGuard`
//! spanning the input end).

use bigmap_target::{
    CompiledProgram, ExecConfig, GeneratorConfig, Interpreter, NoveltyOracle, NullSink, Program,
    ProgramBuilder, TraceSink,
};
use proptest::prelude::*;

/// Records the full event stream for sequence equality assertions.
/// Events: `(0, block)`, `(1, call_site)`, `(2, 0)` for returns.
#[derive(Default, Debug, PartialEq, Eq)]
struct Recorder {
    events: Vec<(u8, usize)>,
}

impl TraceSink for Recorder {
    fn on_block(&mut self, global_block: usize) {
        self.events.push((0, global_block));
    }
    fn on_call(&mut self, call_site: usize) {
        self.events.push((1, call_site));
    }
    fn on_return(&mut self) {
        self.events.push((2, 0));
    }
}

fn generated(seed: u64, functions: usize, gates: usize) -> Program {
    GeneratorConfig {
        seed,
        functions: functions.max(1),
        gates_per_function: gates.max(1),
        magic_gate_ratio: 0.3,
        switch_ratio: 0.3,
        loop_ratio: 0.3,
        ..Default::default()
    }
    .generate()
}

/// Asserts tree and compiled agree on outcome, event stream and steps at
/// the given budget; returns the agreed run for boundary derivation.
fn assert_equivalent_at(program: &Program, input: &[u8], budget: u64) -> bigmap_target::BoundedRun {
    let tree = Interpreter::new(program);
    let compiled = CompiledProgram::compile(program);
    assert!(compiled.is_lowered());

    let mut tree_events = Recorder::default();
    let walked = tree.run_tree(input, &mut tree_events, budget);

    let mut compiled_events = Recorder::default();
    let fast = compiled.run_bounded(input, &mut compiled_events, budget, 0);

    assert_eq!(walked, fast, "BoundedRun diverged at budget {budget}");
    assert_eq!(
        tree_events, compiled_events,
        "trace-event sequence diverged at budget {budget}"
    );
    walked
}

/// Full equivalence sweep for one (program, input): unbounded run plus
/// the exact-exhaustion boundaries `steps - 1`, `steps`, `steps + 1`.
fn assert_equivalent(program: &Program, input: &[u8]) {
    let full = assert_equivalent_at(program, input, ExecConfig::default().max_steps);
    for boundary in [full.steps.saturating_sub(1), full.steps, full.steps + 1] {
        assert_equivalent_at(program, input, boundary);
    }
}

/// Asserts a snapshot-resumed child run is bit-identical to a cold run:
/// same `BoundedRun`, same event stream, and the same novelty-oracle
/// rolling path hash (the state the two-speed campaign keys on).
fn assert_resume_equivalent(program: &Program, parent: &[u8], child: &[u8], budget: u64) {
    let compiled = CompiledProgram::compile(program);
    let (_, recording) = compiled.record(parent, &mut NullSink, budget, 0);

    let mut cold_events = Recorder::default();
    let cold = compiled.run_bounded(child, &mut cold_events, budget, 0);
    let mut resumed_events = Recorder::default();
    let (resumed, plan) = compiled.run_resumed(&recording, child, &mut resumed_events, budget, 0);

    assert_eq!(cold, resumed, "resumed BoundedRun diverged");
    assert_eq!(cold_events, resumed_events, "resumed event stream diverged");
    // The plan is the campaign's skip decision: a full replay must be a
    // child whose cold run is the parent's, event for event, and the
    // steps it claims to serve from the tape must be steps the run took.
    let skipped = plan.skipped_steps(&recording);
    if plan.is_full_replay() {
        let mut parent_events = Recorder::default();
        let parent_run = compiled.run_bounded(parent, &mut parent_events, budget, 0);
        assert_eq!(
            cold, parent_run,
            "full replay of a diverging child at budget {budget}"
        );
        assert_eq!(
            cold_events, parent_events,
            "full replay event stream at budget {budget}"
        );
        assert_eq!(skipped, cold.steps);
    } else if plan.is_miss() {
        assert_eq!(skipped, 0);
    } else {
        assert!(
            (1..=cold.steps).contains(&skipped),
            "resume skipped {skipped} steps"
        );
    }

    // The tree walker agrees too (transitivity, but pin it directly).
    let mut tree_events = Recorder::default();
    let walked = Interpreter::new(program).run_tree(child, &mut tree_events, budget);
    assert_eq!(walked, resumed);
    assert_eq!(tree_events, resumed_events);

    // Rolling path hash: replaying the memoized prefix into the oracle
    // must leave it in the same state as a cold traced run.
    let mut cold_oracle = NoveltyOracle::new(program.block_count());
    cold_oracle.begin_exec();
    compiled.run_bounded(child, &mut cold_oracle, budget, 0);
    let mut resumed_oracle = NoveltyOracle::new(program.block_count());
    resumed_oracle.begin_exec();
    compiled.run_resumed(&recording, child, &mut resumed_oracle, budget, 0);
    assert_eq!(cold_oracle.path_hash(), resumed_oracle.path_hash());
    assert_eq!(cold_oracle.provably_seen(), resumed_oracle.provably_seen());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random programs × random inputs: identical outcomes, event
    /// sequences and step counts, including at exact budget boundaries.
    #[test]
    fn compiled_matches_tree_on_random_programs(
        seed in 0u64..10_000,
        functions in 1usize..6,
        gates in 1usize..10,
        input in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let program = generated(seed, functions, gates);
        assert_equivalent(&program, &input);
    }

    /// Random parent/child pairs through the snapshot path: resumes and
    /// replays are bit-identical to cold executions, for mutations,
    /// truncations and extensions alike, at the parent's exact-exhaustion
    /// budget boundaries and a roomy budget.
    #[test]
    fn snapshot_resume_matches_cold_run(
        seed in 0u64..10_000,
        functions in 1usize..5,
        gates in 1usize..8,
        parent in prop::collection::vec(any::<u8>(), 0..64),
        flips in prop::collection::vec((0usize..64, any::<u8>()), 0..4),
        resize in -8isize..8,
    ) {
        let program = generated(seed, functions, gates);
        let mut child = parent.clone();
        for (pos, byte) in flips {
            if !child.is_empty() {
                let pos = pos % child.len();
                child[pos] = byte;
            }
        }
        if resize < 0 {
            child.truncate(child.len().saturating_sub(resize.unsigned_abs()));
        } else {
            child.extend(std::iter::repeat_n(0xA5, resize as usize));
        }
        let steps = CompiledProgram::compile(&program)
            .run_bounded(&parent, &mut NullSink, 100_000, 0)
            .steps;
        for budget in [steps.saturating_sub(1), steps, steps + 1, 100_000] {
            assert_resume_equivalent(&program, &parent, &child, budget);
        }
    }

    /// Budgets below the natural step count exercise mid-run exhaustion
    /// (including inside loop iterations and nested calls) on both
    /// engines and through the snapshot path.
    #[test]
    fn tight_budgets_agree_everywhere(
        seed in 0u64..5_000,
        input in prop::collection::vec(any::<u8>(), 0..48),
        budget in 1u64..200,
    ) {
        let program = generated(seed, 3, 6);
        assert_equivalent_at(&program, &input, budget);
        assert_resume_equivalent(&program, &input, &input, budget);
    }
}

#[test]
fn budget_exhausted_on_loop_back_edge() {
    // loop_gate(0, 16): input byte 5 → 5 iterations. The trace is
    // head, (body, head) × 5, … — steps: 1 + 2·5 = 11 to clear the loop.
    // Sweep every budget through the loop region so exhaustion lands on
    // the body step and the back-edge (head) step of every iteration.
    let program = ProgramBuilder::new("loop")
        .loop_gate(0, 16)
        .gate(1, b'z', false)
        .build()
        .unwrap();
    let input = [5u8, b'z'];
    for budget in 0..16 {
        assert_equivalent_at(&program, &input, budget);
    }
    assert_equivalent(&program, &input);
}

#[test]
fn magic_guard_spanning_input_end() {
    let program = ProgramBuilder::new("magic")
        .magic_gate(2, b"MAGIC", false)
        .build()
        .unwrap();
    // Inputs that end mid-magic: the guard's out-of-range reads must
    // classify identically, and a recording of the short parent must
    // treat an extension that completes the magic as affecting the read.
    for input in [
        &b""[..],
        b"xy",
        b"xyM",
        b"xyMA",
        b"xyMAGI",
        b"xyMAGIC",
        b"xyMAGICtail",
    ] {
        assert_equivalent(&program, input);
    }
    assert_resume_equivalent(&program, b"xyMAG", b"xyMAGIC", 10_000);
    assert_resume_equivalent(&program, b"xyMAGIC", b"xyMAG", 10_000);
}

#[test]
fn exact_budget_completion_stays_ok_on_both_engines() {
    // Mirrors the tree walker's pinned boundary semantics: a budget
    // exactly equal to the step count completes Ok, one less hangs.
    let program = ProgramBuilder::new("exact")
        .gate(0, b'a', false)
        .gate(1, b'b', false)
        .build()
        .unwrap();
    let full = assert_equivalent_at(&program, b"ab", ExecConfig::default().max_steps);
    let exact = assert_equivalent_at(&program, b"ab", full.steps);
    assert!(exact.outcome.is_ok());
    let starved = assert_equivalent_at(&program, b"ab", full.steps - 1);
    assert!(starved.outcome.is_hang());
    assert!(!starved.planted_hang);
}

#[test]
fn planted_hang_drains_budget_identically() {
    let program = ProgramBuilder::new("hang")
        .hang_gate(0, b'H')
        .gate(1, b'x', false)
        .build()
        .unwrap();
    let hang = assert_equivalent_at(&program, b"H", 1_000);
    assert!(hang.outcome.is_hang());
    assert!(hang.planted_hang);
    assert_eq!(hang.steps, 1_000, "planted hang drains the whole budget");
    assert_equivalent(&program, b"x");
}

#[test]
fn crash_stacks_agree_through_nested_calls() {
    // Generated programs plant crash sites behind guarded calls; sweep
    // seeds until both engines report a crash and compare the stacks.
    let mut crashes = 0;
    for seed in 0..200u64 {
        // Single-byte crash guards so a uniform input can reach the
        // planted sites; several sites spread across the call graph.
        let program = GeneratorConfig {
            seed,
            functions: 5,
            gates_per_function: 8,
            crash_sites: 3,
            crash_guard_width: 1,
            ..Default::default()
        }
        .generate();
        for byte in 0..=255u8 {
            let input = [byte; 48];
            let walked = Interpreter::new(&program).run_tree(&input, &mut NullSink, 100_000);
            if walked.outcome.is_crash() {
                assert_equivalent(&program, &input);
                crashes += 1;
                break;
            }
        }
        if crashes >= 5 {
            return;
        }
    }
    panic!("no crashing (program, input) pairs found in the sweep");
}
