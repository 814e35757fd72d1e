//! Deterministic program interpreter with trace-sink instrumentation.
//!
//! The interpreter is the stand-in for running an AFL-instrumented binary:
//! each executed basic block is reported to a [`TraceSink`] exactly the way
//! `afl-clang-fast`'s shim writes to the shared-memory map. Execution is a
//! pure function of `(program, input, config)` — there is no RNG and no
//! wall clock — so replaying an input always reproduces the identical
//! trace, and hang detection is *step-bounded* rather than time-bounded,
//! keeping exec budgets exact.

use crate::compile::CompiledProgram;
use crate::ir::{BlockKind, Program};

/// Receives the dynamic trace of one execution.
///
/// Implementations map these events onto coverage metrics: `on_block`
/// drives edge/block/N-gram metrics, `on_call`/`on_return` drive
/// context-sensitive metrics.
pub trait TraceSink {
    /// A basic block (global index) was executed.
    fn on_block(&mut self, global_block: usize);
    /// A call site (dense index) transferred control to a callee.
    fn on_call(&mut self, call_site: usize);
    /// Control returned from the most recent call.
    fn on_return(&mut self);
}

/// A [`TraceSink`] that discards every event — useful for crash
/// reproduction and throughput probes where only the
/// [`ExecOutcome`] matters.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    // inline(always): cross-crate callers monomorphize the engines over
    // this sink; the no-ops must vanish there too (without LTO the
    // un-annotated empty bodies can survive as real calls on the replay
    // and dispatch hot paths).
    #[inline(always)]
    fn on_block(&mut self, _global_block: usize) {}
    #[inline(always)]
    fn on_call(&mut self, _call_site: usize) {}
    #[inline(always)]
    fn on_return(&mut self) {}
}

/// Execution limits and cost model for the interpreter.
///
/// Construct with struct-update syntax over [`Default`]:
///
/// ```
/// use bigmap_target::ExecConfig;
/// let exec = ExecConfig { max_steps: 50_000, ..Default::default() };
/// assert!(exec.max_steps < ExecConfig::default().max_steps);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Step budget per execution; one step is charged per executed block.
    /// A program that exhausts it — in particular any planted hang site,
    /// which drains the budget immediately — reports [`ExecOutcome::Hang`].
    /// Step-bounding (instead of a wall-clock timeout) keeps campaigns
    /// deterministic and lets exec-count budgets stay exact.
    pub max_steps: u64,
    /// Synthetic extra work units burned per executed block, for modelling
    /// slower targets in throughput experiments. 0 disables the spin.
    pub work_per_block: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_steps: 1_000_000,
            work_per_block: 0,
        }
    }
}

/// Result of one interpreted execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecOutcome {
    /// The program ran to completion.
    Ok,
    /// A planted crash site fired.
    Crash {
        /// Dense crash-site index (`0..Program::crash_sites`).
        site: usize,
        /// Call-site indices active when the crash fired, outermost first —
        /// the synthetic call stack crash triage deduplicates on.
        stack: Vec<usize>,
    },
    /// The step budget was exhausted (planted hang site or runaway loop).
    Hang,
}

impl ExecOutcome {
    /// True for [`ExecOutcome::Crash`].
    pub fn is_crash(&self) -> bool {
        matches!(self, ExecOutcome::Crash { .. })
    }

    /// True for [`ExecOutcome::Hang`].
    pub fn is_hang(&self) -> bool {
        matches!(self, ExecOutcome::Hang)
    }

    /// True for [`ExecOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, ExecOutcome::Ok)
    }
}

/// Executes a [`Program`] over concrete inputs, reporting each executed
/// block to a [`TraceSink`].
///
/// The interpreter borrows the program for its own lifetime; it holds no
/// mutable state, so one interpreter can serve an entire campaign.
///
/// Construction lowers the program into the flattened bytecode engine
/// ([`CompiledProgram`]) and precomputes the tree walker's `Switch`
/// lookup tables. [`Interpreter::run`] and [`Interpreter::run_bounded`]
/// run the compiled engine whenever the lowering is runnable and the tree
/// walker otherwise; [`Interpreter::run_tree`] always walks the tree and
/// is the reference the compiled engine is proven against — same
/// outcomes, same trace-event sequences, same step counts. Which engine a
/// campaign runs, and whether it resumes children from a parent
/// snapshot, is its executor's choice.
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    config: ExecConfig,
    compiled: CompiledProgram,
    switch_lut: SwitchLut,
}

impl<'p> Interpreter<'p> {
    /// Interpreter with the default [`ExecConfig`].
    pub fn new(program: &'p Program) -> Self {
        Self::with_config(program, ExecConfig::default())
    }

    /// Interpreter with an explicit [`ExecConfig`].
    pub fn with_config(program: &'p Program, config: ExecConfig) -> Self {
        Interpreter {
            program,
            config,
            compiled: CompiledProgram::compile(program),
            switch_lut: SwitchLut::build(program),
        }
    }

    /// The program being interpreted.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The active execution configuration.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// The compiled bytecode engine, when the lowering is runnable
    /// (`None` only for programs whose indices or offsets overflow the
    /// bytecode's 30-bit payload — those run on the tree walker).
    pub fn compiled(&self) -> Option<&CompiledProgram> {
        self.compiled.is_lowered().then_some(&self.compiled)
    }

    /// Execute `input`, streaming the block trace into `sink`.
    ///
    /// Deterministic: the same program, config and input always produce the
    /// identical event sequence and outcome.
    pub fn run<S: TraceSink + ?Sized>(&self, input: &[u8], sink: &mut S) -> ExecOutcome {
        self.run_bounded(input, sink, self.config.max_steps).outcome
    }

    /// [`Interpreter::run`] with an explicit step budget overriding the
    /// configured `max_steps`, reporting the steps actually consumed —
    /// the entry point for AFL-style hang-budget calibration, where the
    /// fuzzer measures seed step counts and then tightens the budget.
    pub fn run_bounded<S: TraceSink + ?Sized>(
        &self,
        input: &[u8],
        sink: &mut S,
        max_steps: u64,
    ) -> BoundedRun {
        match self.compiled() {
            Some(compiled) => {
                compiled.run_bounded(input, sink, max_steps, self.config.work_per_block)
            }
            None => self.run_tree(input, sink, max_steps),
        }
    }

    /// [`Interpreter::run_bounded`] on the tree walker, whatever the
    /// lowering: the reference engine.
    pub fn run_tree<S: TraceSink + ?Sized>(
        &self,
        input: &[u8],
        sink: &mut S,
        max_steps: u64,
    ) -> BoundedRun {
        let mut state = ExecState {
            program: self.program,
            input,
            switch_lut: &self.switch_lut,
            steps_left: max_steps,
            work_per_block: self.config.work_per_block,
            call_stack: Vec::new(),
        };
        let (outcome, planted_hang) = match state.exec_function(0, sink) {
            Flow::Done => (ExecOutcome::Ok, false),
            Flow::Crash { site, stack } => (ExecOutcome::Crash { site, stack }, false),
            Flow::Hang { planted } => (ExecOutcome::Hang, planted),
        };
        BoundedRun {
            outcome,
            steps: max_steps - state.steps_left,
            planted_hang,
        }
    }
}

/// Per-block `Switch` jump tables for the tree walker, precomputed once
/// at [`Interpreter`] construction: `base[block]` indexes a 256-entry
/// window in `targets` (first arm wins on duplicate values, non-switch
/// blocks keep the `usize::MAX` sentinel and never consult it).
#[derive(Debug)]
struct SwitchLut {
    base: Vec<usize>,
    targets: Vec<usize>,
}

impl SwitchLut {
    fn build(program: &Program) -> SwitchLut {
        let mut lut = SwitchLut {
            base: vec![usize::MAX; program.blocks.len()],
            targets: Vec::new(),
        };
        for (index, block) in program.blocks.iter().enumerate() {
            if let BlockKind::Switch { arms, default, .. } = &block.kind {
                let start = lut.targets.len();
                lut.base[index] = start;
                lut.targets.resize(start + 256, *default);
                let mut filled = [false; 256];
                for (value, target) in arms {
                    let slot = usize::from(*value);
                    if !filled[slot] {
                        filled[slot] = true;
                        lut.targets[start + slot] = *target;
                    }
                }
            }
        }
        lut
    }
}

/// Result of a [`Interpreter::run_bounded`] execution: the outcome plus
/// the interpreter steps consumed. A planted hang site drains the whole
/// budget, so `steps == max_steps` for those; ordinary completions report
/// the true block count executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedRun {
    /// The target's outcome.
    pub outcome: ExecOutcome,
    /// Interpreter steps (executed blocks) charged against the budget.
    pub steps: u64,
    /// When the outcome is [`ExecOutcome::Hang`]: `true` if a planted
    /// hang site fired, `false` if ordinary execution ran the step budget
    /// dry — the signal hang-budget calibration telemetry keys on.
    pub planted_hang: bool,
}

enum Flow {
    Done,
    Crash { site: usize, stack: Vec<usize> },
    Hang { planted: bool },
}

struct ExecState<'a> {
    program: &'a Program,
    input: &'a [u8],
    switch_lut: &'a SwitchLut,
    steps_left: u64,
    work_per_block: u32,
    call_stack: Vec<usize>,
}

impl ExecState<'_> {
    fn byte_at(&self, offset: usize) -> Option<u8> {
        self.input.get(offset).copied()
    }

    /// Charge one step (plus the configured per-block work). Returns false
    /// when the budget is exhausted.
    fn step(&mut self) -> bool {
        if self.steps_left == 0 {
            return false;
        }
        self.steps_left -= 1;
        if self.work_per_block > 0 {
            let mut acc = 0u64;
            for unit in 0..self.work_per_block {
                acc = acc
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(unit as u64);
            }
            std::hint::black_box(acc);
        }
        true
    }

    fn exec_function<S: TraceSink + ?Sized>(&mut self, function: usize, sink: &mut S) -> Flow {
        let mut pc = self.program.functions[function].entry;
        loop {
            if !self.step() {
                return Flow::Hang { planted: false };
            }
            sink.on_block(pc);
            match &self.program.blocks[pc].kind {
                BlockKind::Jump { next } => pc = *next,
                BlockKind::ByteGuard {
                    offset,
                    value,
                    taken,
                    fallthrough,
                } => {
                    pc = if self.byte_at(*offset) == Some(*value) {
                        *taken
                    } else {
                        *fallthrough
                    };
                }
                BlockKind::MaskGuard {
                    offset,
                    mask,
                    value,
                    taken,
                    fallthrough,
                } => {
                    pc = match self.byte_at(*offset) {
                        Some(byte) if byte & *mask == *value => *taken,
                        _ => *fallthrough,
                    };
                }
                BlockKind::MagicGuard {
                    offset,
                    values,
                    taken,
                    fallthrough,
                } => {
                    let matched = values
                        .iter()
                        .enumerate()
                        .all(|(i, v)| self.byte_at(offset + i) == Some(*v));
                    pc = if matched { *taken } else { *fallthrough };
                }
                BlockKind::Switch {
                    offset, default, ..
                } => {
                    // Arms were lowered into a per-block 256-entry table at
                    // construction; out-of-range reads take the default.
                    pc = match self.byte_at(*offset) {
                        Some(byte) => {
                            self.switch_lut.targets[self.switch_lut.base[pc] + usize::from(byte)]
                        }
                        None => *default,
                    };
                }
                BlockKind::LoopHead {
                    offset,
                    max_iters,
                    body,
                    exit,
                } => {
                    // Unrolled inline: trace is head, (body, head) per
                    // iteration, then the exit — so the back edge's hit
                    // count carries the trip count into the coverage map.
                    let iters = match (self.byte_at(*offset), *max_iters) {
                        (Some(byte), m) if m > 0 => (byte % m) as u32,
                        _ => 0,
                    };
                    for _ in 0..iters {
                        if !self.step() {
                            return Flow::Hang { planted: false };
                        }
                        sink.on_block(*body);
                        if !self.step() {
                            return Flow::Hang { planted: false };
                        }
                        sink.on_block(pc);
                    }
                    pc = *exit;
                }
                BlockKind::Call {
                    function: callee,
                    call_site,
                    next,
                } => {
                    sink.on_call(*call_site);
                    self.call_stack.push(*call_site);
                    match self.exec_function(*callee, sink) {
                        Flow::Done => {}
                        other => return other,
                    }
                    self.call_stack.pop();
                    sink.on_return();
                    pc = *next;
                }
                BlockKind::Crash { site } => {
                    // The crash unwinds straight out of the run, so the
                    // stack moves out of the drained state instead of
                    // cloning on every crash.
                    return Flow::Crash {
                        site: *site,
                        stack: std::mem::take(&mut self.call_stack),
                    };
                }
                BlockKind::Hang => {
                    // A planted hang models an unbounded loop: it drains
                    // the remaining step budget at once so campaigns count
                    // the hang without actually stalling.
                    self.steps_left = 0;
                    return Flow::Hang { planted: true };
                }
                BlockKind::Return => return Flow::Done,
            }
        }
    }
}
