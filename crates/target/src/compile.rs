//! Compiled threaded-bytecode engine with snapshot/dirty-state resets.
//!
//! The tree-walking interpreter ([`crate::Interpreter`]) matches on
//! [`BlockKind`] enum nodes scattered across the heap: every step chases
//! a `Vec<Block>` pointer, loads a discriminant, and (for `Switch` and
//! `MagicGuard`) walks further heap allocations. This module lowers a
//! [`Program`] once into a flattened, cache-dense bytecode:
//!
//! * **flattened ops** — one dense `Op` record (tag + four `u32`
//!   operands) per block, indexed by the global block index, so the
//!   dispatch loop costs a single bounds-checked load per step instead of
//!   pointer-chasing enum nodes;
//! * **dense jump targets** — every successor is a `u32` program counter
//!   equal to the global block index (trace events need no translation);
//! * **`Switch` jump tables** — arms are lowered to 256-entry tables in
//!   one shared arena, replacing the per-step linear arm scan with a
//!   single indexed load;
//! * **`MagicGuard` side arena** — magic byte sequences live in one
//!   contiguous byte arena, compared with a single slice comparison on
//!   the non-recording path;
//! * **bulk-charged loops** — when the step budget provably survives a
//!   whole unrolled `LoopHead` (the common case), its `2 × iters` steps
//!   are charged with one subtraction and the per-iteration exhaustion
//!   checks vanish; with a no-op sink the iteration body compiles away
//!   entirely.
//!
//! The execution loop is monomorphized over the [`TraceSink`] (and over
//! an internal recording hook that compiles to nothing for plain runs),
//! so the untraced fast path (the novelty oracle as the sink) and the
//! fully traced path each get their own specialized dispatch loop from
//! one engine.
//!
//! # Snapshot/dirty-state resets
//!
//! Fuzzing campaigns execute long streams of children mutated from one
//! scheduled parent. [`CompiledProgram::record`] memoizes a parent run:
//! the full trace-event tape plus the *input read-set* as
//! `(step, offset-span)` watchpoints — one watchpoint per input-reading
//! op, recording exactly which bytes that op's control-flow decision
//! depended on. [`CompiledProgram::run_resumed`] then executes a mutated
//! child by diffing its bytes against the parent input and finding the
//! first watchpoint whose op *decides differently* on the child's bytes
//! — a differing byte whose guard still fails (or whose switch still
//! lands on the same target, or whose loop still runs the same iteration
//! count) is provably a non-event, since the engine carries no
//! input-dependent state besides pc, call frames and the step counter.
//! The memoized trace prefix before the diverging step is replayed into
//! the sink (restoring pc, step counter, call stack and — through the
//! sink — any rolling path hash), and the engine resumes live execution
//! from the watchpoint. If no watchpoint's decision diverges the entire
//! recorded run replays. The search and the run are two steps
//! ([`CompiledProgram::plan_resume`], [`CompiledProgram::run_planned`]),
//! so a caller can act on the decision before executing the child.
//!
//! The tape is engineered so serving a child from it is drastically
//! cheaper than re-executing it:
//!
//! * events are single tagged `u32` words (two tag bits + a 30-bit
//!   payload), so replay is a branch-predictable scan of one dense array
//!   — and a no-op sink erases the scan altogether;
//! * call/return positions are mirrored into side arrays, so the resume
//!   point's call-frame stack is rebuilt from the (rare) call events
//!   only, never by walking the whole tape;
//! * the read-set is inverted into per-byte watchpoint lists (CSR), so
//!   finding the resume point walks only the lists of genuinely
//!   *differing* bytes instead of scanning every recorded read.
//!
//! **Conservativeness invariant**: execution is a pure function of the
//! read bytes; a prefix is reused only when *every* watchpoint in it
//! provably decides identically on parent and child bytes (an exact
//! re-evaluation of the op's decision, not just span overlap). Budget
//! mismatches, recording overflow and step-0 divergence all fall back to
//! full re-execution ([`ResumePlan::is_miss`]). False skips are
//! therefore impossible:
//! resumed and replayed runs produce bit-identical outcomes, trace-event
//! sequences and step counts versus a cold run — campaigns keep exact
//! trajectories regardless of hit rate.

use crate::interp::{BoundedRun, ExecOutcome, TraceSink};
use crate::ir::{BlockKind, Program};

/// Recording stops growing past this many trace events; the recording is
/// then flagged overflowed and every resume attempt misses. Bounds
/// snapshot memory at 4 MiB of event words for pathological step-budget
/// programs.
const EVENT_CAP: usize = 1 << 20;

/// Event words use the top two bits as a tag; payloads (block pcs and
/// call sites) must fit in the remaining 30 bits, enforced by [`Narrow`].
const EV_PAYLOAD: u32 = (1 << 30) - 1;
/// Tag of a call event word (payload = call site).
const EV_CALL: u32 = 1 << 30;
/// Tag of a return event word (no payload).
const EV_RET: u32 = 2 << 30;

/// Read-set inversion covers byte offsets below this; a program reading
/// beyond it (absurd for the generated targets) falls back to the linear
/// watchpoint scan.
const READ_INDEX_CAP: usize = 4096;

/// One lowered op's tag; the payload lives in the same [`Op`] record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum OpTag {
    /// Unconditional jump to `a`.
    Jump,
    /// `input[a] == d as u8` ? goto `b` : goto `c`.
    ByteGuard,
    /// `input[a] & (d >> 8) == d & 0xff` ? goto `b` : goto `c`.
    MaskGuard,
    /// Magic span `magic_spans[d]` matches at offset `a` ? `b` : `c`.
    MagicGuard,
    /// Indexed jump through table `b` on `input[a]`; out-of-range → `c`.
    Switch,
    /// Loop head at offset `a`: body `b`, exit `c`, max iters `d`.
    LoopHead,
    /// Call: callee entry `a`, call site `b`, return pc `c`.
    Call,
    /// Planted crash site `a`.
    Crash,
    /// Planted hang: drains the step budget.
    Hang,
    /// Return to the calling frame (or finish at depth 0).
    Return,
}

/// One lowered op: tag plus four dense operands whose meaning depends on
/// the tag. One 20-byte record per block keeps dispatch at a single
/// bounds-checked load.
#[derive(Debug, Clone, Copy)]
struct Op {
    tag: OpTag,
    a: u32,
    b: u32,
    c: u32,
    d: u32,
}

/// One live call frame of the compiled engine.
#[derive(Debug, Clone, Copy)]
struct Frame {
    ret_pc: u32,
    site: u32,
}

/// One input-read watchpoint: at `steps_before` consumed steps, the op at
/// `pc` (whose own Block event sits at `ev_cursor` on the tape) read the
/// byte span `[offset, offset + len)`.
#[derive(Debug, Clone, Copy)]
struct ReadPoint {
    steps_before: u64,
    ev_cursor: usize,
    pc: u32,
    offset: u32,
    len: u32,
}

/// How a raw engine run ended (crash stacks are assembled by the caller
/// from the live frames).
enum RawEnd {
    Done,
    Crash(u32),
    Hang { planted: bool },
}

/// Mutable engine registers threaded through the dispatch loop.
struct EngineState {
    budget: u64,
    steps_left: u64,
    work_per_block: u32,
    frames: Vec<Frame>,
}

/// Internal recording hook; [`NoTape`] compiles to nothing, so plain runs
/// pay zero recording overhead. `ACTIVE` lets ops skip work that exists
/// only to feed the recorder (e.g. `MagicGuard`'s exact-dependency
/// bookkeeping) at monomorphization time.
trait Record {
    const ACTIVE: bool;
    fn block(&mut self, pc: u32);
    fn call(&mut self, site: u32, ret_pc: u32);
    fn ret(&mut self);
    fn read(&mut self, st: &EngineState, pc: u32, offset: u32, len: u32);
}

/// The no-op recorder for plain (non-memoizing) runs.
struct NoTape;

impl Record for NoTape {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn block(&mut self, _pc: u32) {}
    #[inline(always)]
    fn call(&mut self, _site: u32, _ret_pc: u32) {}
    #[inline(always)]
    fn ret(&mut self) {}
    #[inline(always)]
    fn read(&mut self, _st: &EngineState, _pc: u32, _offset: u32, _len: u32) {}
}

/// The live recorder behind [`CompiledProgram::record`].
struct Tape {
    events: Vec<u32>,
    call_frames: Vec<Frame>,
    call_pos: Vec<u32>,
    ret_pos: Vec<u32>,
    reads: Vec<ReadPoint>,
    overflowed: bool,
}

impl Tape {
    /// Appends one event word; returns `false` (and poisons the tape)
    /// once the cap is hit — an overflowed recording never resumes, so
    /// the side arrays may simply stop growing with it.
    #[inline]
    fn push(&mut self, word: u32) -> bool {
        if self.events.len() >= EVENT_CAP {
            self.overflowed = true;
            false
        } else {
            self.events.push(word);
            true
        }
    }
}

impl Record for Tape {
    const ACTIVE: bool = true;
    #[inline]
    fn block(&mut self, pc: u32) {
        self.push(pc);
    }
    #[inline]
    fn call(&mut self, site: u32, ret_pc: u32) {
        if self.push(EV_CALL | site) {
            self.call_pos.push((self.events.len() - 1) as u32);
            self.call_frames.push(Frame { ret_pc, site });
        }
    }
    #[inline]
    fn ret(&mut self) {
        if self.push(EV_RET) {
            self.ret_pos.push((self.events.len() - 1) as u32);
        }
    }
    #[inline]
    fn read(&mut self, st: &EngineState, pc: u32, offset: u32, len: u32) {
        if self.overflowed {
            return;
        }
        self.reads.push(ReadPoint {
            // The op's own step is already charged: consumed-before-op is
            // budget minus (what's left plus this op's step).
            steps_before: st.budget - st.steps_left - 1,
            // The op's own Block event was just pushed; the replay prefix
            // for a resume at this op excludes it.
            ev_cursor: self.events.len() - 1,
            pc,
            offset,
            len,
        });
    }
}

/// A memoized execution of one input ([`CompiledProgram::record`]): the
/// full trace-event tape, the input read-set watchpoints (plus their
/// per-byte inversion), and the final [`BoundedRun`] — everything
/// [`CompiledProgram::run_resumed`] needs to execute a mutated child from
/// the last provably unaffected step.
#[derive(Debug, Clone)]
pub struct ExecRecording {
    input: Vec<u8>,
    budget: u64,
    events: Vec<u32>,
    call_frames: Vec<Frame>,
    call_pos: Vec<u32>,
    ret_pos: Vec<u32>,
    reads: Vec<ReadPoint>,
    /// CSR inversion of the read-set: the watchpoints covering byte `o`,
    /// in step order, are `read_csr_data[read_csr_idx[o]..read_csr_idx[o
    /// + 1]]` (indices into `reads`).
    read_csr_idx: Vec<u32>,
    read_csr_data: Vec<u32>,
    /// False when some read lies beyond [`READ_INDEX_CAP`]; resume-point
    /// search then falls back to the linear watchpoint scan.
    read_index_ok: bool,
    outcome: ExecOutcome,
    steps: u64,
    planted_hang: bool,
    overflowed: bool,
}

impl ExecRecording {
    /// The step budget the recording ran under; resumes require an exact
    /// match (a different budget changes hang classification).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Steps the recorded run consumed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether the trace tape overflowed the event cap (every resume
    /// attempt against an overflowed recording misses).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The input the recording executed.
    pub fn input(&self) -> &[u8] {
        &self.input
    }

    /// How the recorded run ended — what a full replay reports.
    pub fn outcome(&self) -> &ExecOutcome {
        &self.outcome
    }
}

/// How [`CompiledProgram::run_planned`] will serve one child from one
/// recording: the result of the resume-point search
/// ([`CompiledProgram::plan_resume`]), valid only for the recording,
/// input and budget it was made for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumePlan(Plan);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    Miss,
    FullReplay,
    /// Resume at `reads[i]` after replaying the tape before it.
    Resume(usize),
}

impl ResumePlan {
    /// True when the recording cannot be reused (budget mismatch,
    /// overflowed recording, or divergence before the first step): the
    /// child re-executes from scratch.
    pub fn is_miss(self) -> bool {
        self.0 == Plan::Miss
    }

    /// True when no recorded read decides differently on the child: its
    /// event stream is the recording's, replayed whole with no live
    /// execution. A plan that is neither a miss nor a full replay resumes
    /// live execution at the first diverging read.
    pub fn is_full_replay(self) -> bool {
        self.0 == Plan::FullReplay
    }

    /// Steps served from `recording` (the one this plan was made against)
    /// instead of re-executed: the whole recorded run for a full replay,
    /// the memoized prefix for a resume, 0 for a miss.
    pub fn skipped_steps(self, recording: &ExecRecording) -> u64 {
        match self.0 {
            Plan::Miss => 0,
            Plan::FullReplay => recording.steps,
            Plan::Resume(read) => recording.reads[read].steps_before,
        }
    }
}

/// The byte range over which two inputs can differ, as a half-open
/// interval in the index space of the longer input. `None` means the
/// inputs are identical.
struct DiffRange {
    lo: usize,
    hi: usize,
}

/// Length of the common prefix of `a` and `b`, compared a word at a time
/// (the per-byte scan would cost as much as a whole raw exec on the
/// cheap suite targets).
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let wa = u64::from_le_bytes(a[i..i + 8].try_into().unwrap());
        let wb = u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        if wa != wb {
            return i + ((wa ^ wb).trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the common suffix of `a[lo..]` and `b[lo..]`, word-wise.
fn common_suffix(a: &[u8], b: &[u8], lo: usize) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut i = a.len();
    while i >= lo + 8 {
        let wa = u64::from_le_bytes(a[i - 8..i].try_into().unwrap());
        let wb = u64::from_le_bytes(b[i - 8..i].try_into().unwrap());
        if wa != wb {
            return a.len() - i + ((wa ^ wb).leading_zeros() / 8) as usize;
        }
        i -= 8;
    }
    while i > lo && a[i - 1] == b[i - 1] {
        i -= 1;
    }
    a.len() - i
}

impl DiffRange {
    fn between(parent: &[u8], child: &[u8]) -> Option<DiffRange> {
        let min_len = parent.len().min(child.len());
        let lo = common_prefix(parent, child);
        if lo == min_len && parent.len() == child.len() {
            return None;
        }
        let hi = if parent.len() == child.len() {
            parent.len() - common_suffix(parent, child, lo)
        } else {
            parent.len().max(child.len())
        };
        Some(DiffRange { lo, hi })
    }

    /// Exact test: does any byte in `[offset, offset + len)` differ
    /// between parent and child? The `[lo, hi)` bracket is a fast
    /// rejection; inside it the bytes are compared individually
    /// (out-of-range reads compare as `None`, so truncation counts as a
    /// difference exactly like the interpreter's `byte_at` would see it).
    fn affects(&self, parent: &[u8], child: &[u8], offset: usize, len: usize) -> bool {
        if len == 0 {
            return false;
        }
        let end = offset.saturating_add(len);
        if end <= self.lo || offset >= self.hi {
            return false;
        }
        let start = offset.max(self.lo);
        let stop = end.min(self.hi);
        (start..stop).any(|i| parent.get(i) != child.get(i))
    }
}

/// A [`Program`] lowered to flattened threaded bytecode.
///
/// Ops are indexed by the global block index, so the program counter *is*
/// the trace-event block id — no translation on the hot path. Build one
/// with [`CompiledProgram::compile`]; it holds no borrow of the source
/// program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    ops: Vec<Op>,
    magic_arena: Vec<u8>,
    magic_spans: Vec<(u32, u32)>,
    switch_tables: Vec<u32>,
    entry: u32,
    lowered: bool,
}

/// Running accumulator for [`CompiledProgram::compile`]'s `usize → u32`
/// narrowing: any value that does not fit in the 30 payload bits of an
/// event word marks the whole lowering unusable (the interpreter then
/// stays on the tree walker).
struct Narrow {
    ok: bool,
}

impl Narrow {
    fn fit(&mut self, value: usize) -> u32 {
        match u32::try_from(value) {
            Ok(v) if v <= EV_PAYLOAD => v,
            _ => {
                self.ok = false;
                0
            }
        }
    }
}

impl CompiledProgram {
    /// Lowers `program` into flattened bytecode. Always succeeds
    /// structurally; if any index or offset exceeds the bytecode's 30-bit
    /// payload space (possible only for absurd synthetic programs), the
    /// result reports [`CompiledProgram::is_lowered`] `== false` and must
    /// not be run.
    pub fn compile(program: &Program) -> CompiledProgram {
        let mut narrow = Narrow { ok: true };
        let mut ops = Vec::with_capacity(program.blocks.len());
        let mut magic_arena = Vec::new();
        let mut magic_spans = Vec::new();
        let mut switch_tables: Vec<u32> = Vec::new();

        for block in &program.blocks {
            let op = match &block.kind {
                BlockKind::Jump { next } => Op {
                    tag: OpTag::Jump,
                    a: narrow.fit(*next),
                    b: 0,
                    c: 0,
                    d: 0,
                },
                BlockKind::ByteGuard {
                    offset,
                    value,
                    taken,
                    fallthrough,
                } => Op {
                    tag: OpTag::ByteGuard,
                    a: narrow.fit(*offset),
                    b: narrow.fit(*taken),
                    c: narrow.fit(*fallthrough),
                    d: u32::from(*value),
                },
                BlockKind::MaskGuard {
                    offset,
                    mask,
                    value,
                    taken,
                    fallthrough,
                } => Op {
                    tag: OpTag::MaskGuard,
                    a: narrow.fit(*offset),
                    b: narrow.fit(*taken),
                    c: narrow.fit(*fallthrough),
                    d: (u32::from(*mask) << 8) | u32::from(*value),
                },
                BlockKind::MagicGuard {
                    offset,
                    values,
                    taken,
                    fallthrough,
                } => {
                    let start = narrow.fit(magic_arena.len());
                    magic_arena.extend_from_slice(values);
                    let span = narrow.fit(magic_spans.len());
                    magic_spans.push((start, narrow.fit(values.len())));
                    Op {
                        tag: OpTag::MagicGuard,
                        a: narrow.fit(*offset),
                        b: narrow.fit(*taken),
                        c: narrow.fit(*fallthrough),
                        d: span,
                    }
                }
                BlockKind::Switch {
                    offset,
                    arms,
                    default,
                } => {
                    let table = narrow.fit(switch_tables.len() / 256);
                    let base = switch_tables.len();
                    switch_tables.resize(base + 256, narrow.fit(*default));
                    let mut filled = [false; 256];
                    for (value, target) in arms {
                        // First arm wins on duplicate values, matching the
                        // tree walker's linear scan.
                        let slot = usize::from(*value);
                        if !filled[slot] {
                            filled[slot] = true;
                            switch_tables[base + slot] = narrow.fit(*target);
                        }
                    }
                    Op {
                        tag: OpTag::Switch,
                        a: narrow.fit(*offset),
                        b: table,
                        c: narrow.fit(*default),
                        d: 0,
                    }
                }
                BlockKind::LoopHead {
                    offset,
                    max_iters,
                    body,
                    exit,
                } => Op {
                    tag: OpTag::LoopHead,
                    a: narrow.fit(*offset),
                    b: narrow.fit(*body),
                    c: narrow.fit(*exit),
                    d: u32::from(*max_iters),
                },
                BlockKind::Call {
                    function,
                    call_site,
                    next,
                } => Op {
                    tag: OpTag::Call,
                    a: narrow.fit(program.functions[*function].entry),
                    b: narrow.fit(*call_site),
                    c: narrow.fit(*next),
                    d: 0,
                },
                BlockKind::Crash { site } => Op {
                    tag: OpTag::Crash,
                    a: narrow.fit(*site),
                    b: 0,
                    c: 0,
                    d: 0,
                },
                BlockKind::Hang => Op {
                    tag: OpTag::Hang,
                    a: 0,
                    b: 0,
                    c: 0,
                    d: 0,
                },
                BlockKind::Return => Op {
                    tag: OpTag::Return,
                    a: 0,
                    b: 0,
                    c: 0,
                    d: 0,
                },
            };
            ops.push(op);
        }

        let entry = narrow.fit(program.functions[0].entry);
        CompiledProgram {
            ops,
            magic_arena,
            magic_spans,
            switch_tables,
            entry,
            lowered: narrow.ok,
        }
    }

    /// Whether the lowering is complete and runnable. `false` only when
    /// some index or offset exceeded the bytecode's payload space during
    /// [`CompiledProgram::compile`].
    pub fn is_lowered(&self) -> bool {
        self.lowered
    }

    /// Executes `input` front to back, streaming the trace into `sink` —
    /// the compiled equivalent of [`crate::Interpreter::run_bounded`]:
    /// same outcomes, same event sequence, same step accounting.
    ///
    /// # Panics
    ///
    /// Panics if [`CompiledProgram::is_lowered`] is `false`.
    pub fn run_bounded<S: TraceSink + ?Sized>(
        &self,
        input: &[u8],
        sink: &mut S,
        max_steps: u64,
        work_per_block: u32,
    ) -> BoundedRun {
        let mut st = EngineState {
            budget: max_steps,
            steps_left: max_steps,
            work_per_block,
            frames: Vec::new(),
        };
        let end = self.exec_loop(input, &mut st, self.entry, sink, &mut NoTape);
        finish(end, &st)
    }

    /// [`CompiledProgram::run_bounded`], additionally memoizing the run
    /// into an [`ExecRecording`] for later [`CompiledProgram::run_resumed`]
    /// calls against mutated variants of `input`.
    ///
    /// # Panics
    ///
    /// Panics if [`CompiledProgram::is_lowered`] is `false`.
    pub fn record<S: TraceSink + ?Sized>(
        &self,
        input: &[u8],
        sink: &mut S,
        max_steps: u64,
        work_per_block: u32,
    ) -> (BoundedRun, ExecRecording) {
        let mut st = EngineState {
            budget: max_steps,
            steps_left: max_steps,
            work_per_block,
            frames: Vec::new(),
        };
        let mut tape = Tape {
            events: Vec::new(),
            call_frames: Vec::new(),
            call_pos: Vec::new(),
            ret_pos: Vec::new(),
            reads: Vec::new(),
            overflowed: false,
        };
        let end = self.exec_loop(input, &mut st, self.entry, sink, &mut tape);
        let run = finish(end, &st);

        // Invert the read-set into per-byte watchpoint lists (CSR), so
        // the resume-point search walks only the lists of the child's
        // differing bytes instead of the whole read-set.
        let mut read_index_ok = true;
        let mut max_end = 0usize;
        for read in &tape.reads {
            let end = read.offset as usize + read.len as usize;
            if end > READ_INDEX_CAP {
                read_index_ok = false;
                break;
            }
            max_end = max_end.max(end);
        }
        let mut read_csr_idx: Vec<u32> = Vec::new();
        let mut read_csr_data: Vec<u32> = Vec::new();
        if read_index_ok {
            read_csr_idx = vec![0u32; max_end + 1];
            for read in &tape.reads {
                for o in read.offset as usize..read.offset as usize + read.len as usize {
                    read_csr_idx[o + 1] += 1;
                }
            }
            for o in 0..max_end {
                read_csr_idx[o + 1] += read_csr_idx[o];
            }
            read_csr_data = vec![0u32; read_csr_idx[max_end] as usize];
            let mut cursor = read_csr_idx.clone();
            for (i, read) in tape.reads.iter().enumerate() {
                for o in read.offset as usize..read.offset as usize + read.len as usize {
                    read_csr_data[cursor[o] as usize] = i as u32;
                    cursor[o] += 1;
                }
            }
        }

        let recording = ExecRecording {
            input: input.to_vec(),
            budget: max_steps,
            events: tape.events,
            call_frames: tape.call_frames,
            call_pos: tape.call_pos,
            ret_pos: tape.ret_pos,
            reads: tape.reads,
            read_csr_idx,
            read_csr_data,
            read_index_ok,
            outcome: run.outcome.clone(),
            steps: run.steps,
            planted_hang: run.planted_hang,
            overflowed: tape.overflowed,
        };
        (run, recording)
    }

    /// Executes `input` using `recording` (a memoized run of a related
    /// input, typically the mutation parent) as a snapshot: the memoized
    /// trace prefix up to the first input read whose *decision* genuinely
    /// diverges is replayed into `sink`, and live execution resumes from
    /// there. Falls back to [`CompiledProgram::run_bounded`] when the
    /// snapshot cannot be reused ([`ResumePlan::is_miss`]). Returns the run
    /// with the plan that served it.
    ///
    /// The returned [`BoundedRun`] is bit-identical to what a cold
    /// [`CompiledProgram::run_bounded`] of `input` would produce, and
    /// `sink` observes the identical event sequence — the conservativeness
    /// invariant this module's docs spell out. It is
    /// [`CompiledProgram::plan_resume`] followed by
    /// [`CompiledProgram::run_planned`].
    ///
    /// # Panics
    ///
    /// Panics if [`CompiledProgram::is_lowered`] is `false`.
    pub fn run_resumed<S: TraceSink + ?Sized>(
        &self,
        recording: &ExecRecording,
        input: &[u8],
        sink: &mut S,
        max_steps: u64,
        work_per_block: u32,
    ) -> (BoundedRun, ResumePlan) {
        let plan = self.plan_resume(recording, input, max_steps);
        let run = self.run_planned(recording, plan, input, sink, max_steps, work_per_block);
        (run, plan)
    }

    /// The resume-point search of [`CompiledProgram::run_resumed`], on
    /// its own: how `input` would be served from `recording` under
    /// `max_steps`, decided without executing anything. A caller that
    /// wants to act on the decision before running the child (the
    /// campaign dismisses full replays of an `Ok` run) searches once here and
    /// hands the plan to [`CompiledProgram::run_planned`].
    pub fn plan_resume(
        &self,
        recording: &ExecRecording,
        input: &[u8],
        max_steps: u64,
    ) -> ResumePlan {
        if recording.overflowed || recording.budget != max_steps {
            return ResumePlan(Plan::Miss);
        }
        let first_diverging = DiffRange::between(&recording.input, input)
            .and_then(|diff| first_diverging_read(self, recording, input, &diff));
        ResumePlan(match first_diverging {
            // Identical input, a mutation only in bytes the run never
            // read, or one that left every read's decision unchanged.
            None => Plan::FullReplay,
            // Divergence before the first step: nothing to reuse.
            Some(read) if recording.reads[read].steps_before == 0 => Plan::Miss,
            Some(read) => Plan::Resume(read),
        })
    }

    /// Executes `input` as `plan` ([`CompiledProgram::plan_resume`] of the
    /// same `recording`, `input` and `max_steps`) says: re-executed from
    /// scratch, served wholly from the tape, or resumed at the first
    /// diverging read. Same results and guarantees as
    /// [`CompiledProgram::run_resumed`].
    ///
    /// # Panics
    ///
    /// Panics if [`CompiledProgram::is_lowered`] is `false`, or may panic
    /// if `plan` was made against a different recording.
    pub fn run_planned<S: TraceSink + ?Sized>(
        &self,
        recording: &ExecRecording,
        plan: ResumePlan,
        input: &[u8],
        sink: &mut S,
        max_steps: u64,
        work_per_block: u32,
    ) -> BoundedRun {
        match plan.0 {
            Plan::Miss => self.run_bounded(input, sink, max_steps, work_per_block),
            Plan::FullReplay => {
                replay_events(&recording.events, sink);
                BoundedRun {
                    outcome: recording.outcome.clone(),
                    steps: recording.steps,
                    planted_hang: recording.planted_hang,
                }
            }
            Plan::Resume(read) => {
                let read = &recording.reads[read];
                let mut st = EngineState {
                    budget: max_steps,
                    steps_left: max_steps - read.steps_before,
                    work_per_block,
                    frames: frames_at(recording, read.ev_cursor),
                };
                replay_events(&recording.events[..read.ev_cursor], sink);
                let end = self.exec_loop(input, &mut st, read.pc, sink, &mut NoTape);
                finish(end, &st)
            }
        }
    }

    /// The control-relevant decision the input-reading op at `pc` makes
    /// on `input`: the chosen successor pc for guards and switches, the
    /// iteration count for loop heads. Two inputs on which every
    /// recorded read's decision agrees drive byte-identical traces —
    /// the engine has no other input-dependent state — which is what
    /// lets [`first_diverging_read`] treat byte differences that leave
    /// the decision unchanged as non-events. Must mirror the
    /// corresponding [`CompiledProgram::exec_loop`] arms exactly.
    fn read_decision(&self, pc: u32, input: &[u8]) -> u64 {
        let op = self.ops[pc as usize];
        match op.tag {
            OpTag::ByteGuard => {
                u64::from(if input.get(op.a as usize).copied() == Some(op.d as u8) {
                    op.b
                } else {
                    op.c
                })
            }
            OpTag::MaskGuard => {
                let mask = (op.d >> 8) as u8;
                let value = op.d as u8;
                u64::from(match input.get(op.a as usize) {
                    Some(&byte) if byte & mask == value => op.b,
                    _ => op.c,
                })
            }
            OpTag::MagicGuard => {
                let (start, len) = self.magic_spans[op.d as usize];
                let magic = &self.magic_arena[start as usize..(start + len) as usize];
                let matched = input
                    .get(op.a as usize..op.a as usize + magic.len())
                    .is_some_and(|window| window == magic);
                u64::from(if matched { op.b } else { op.c })
            }
            OpTag::Switch => u64::from(match input.get(op.a as usize) {
                Some(&byte) => self.switch_tables[(op.b as usize) * 256 + usize::from(byte)],
                None => op.c,
            }),
            OpTag::LoopHead => match input.get(op.a as usize) {
                Some(&byte) if op.d > 0 => u64::from(byte % op.d as u8),
                _ => 0,
            },
            _ => unreachable!("reads are recorded only at input-reading ops"),
        }
    }

    /// The threaded dispatch loop. Monomorphized per (sink, recorder)
    /// pair; `NoTape` erases all recording code. Semantics mirror the
    /// tree walker op for op — step charging, event order, loop
    /// unrolling, budget-boundary behaviour.
    fn exec_loop<S: TraceSink + ?Sized, R: Record>(
        &self,
        input: &[u8],
        st: &mut EngineState,
        mut pc: u32,
        sink: &mut S,
        rec: &mut R,
    ) -> RawEnd {
        assert!(self.lowered, "cannot execute an incomplete lowering");
        loop {
            if st.steps_left == 0 {
                return RawEnd::Hang { planted: false };
            }
            st.steps_left -= 1;
            burn_work(st.work_per_block);
            sink.on_block(pc as usize);
            rec.block(pc);
            let op = self.ops[pc as usize];
            match op.tag {
                OpTag::Jump => pc = op.a,
                OpTag::ByteGuard => {
                    rec.read(st, pc, op.a, 1);
                    pc = if input.get(op.a as usize).copied() == Some(op.d as u8) {
                        op.b
                    } else {
                        op.c
                    };
                }
                OpTag::MaskGuard => {
                    rec.read(st, pc, op.a, 1);
                    let mask = (op.d >> 8) as u8;
                    let value = op.d as u8;
                    pc = match input.get(op.a as usize) {
                        Some(&byte) if byte & mask == value => op.b,
                        _ => op.c,
                    };
                }
                OpTag::MagicGuard => {
                    let (start, len) = self.magic_spans[op.d as usize];
                    let magic = &self.magic_arena[start as usize..(start + len) as usize];
                    let matched = if R::ACTIVE {
                        // The run depends only on the bytes up to and
                        // including the first mismatch (or the whole span
                        // on a match) — record exactly that dependency.
                        let mut matched = true;
                        let mut checked = len;
                        for (i, expected) in magic.iter().enumerate() {
                            if input.get(op.a as usize + i).copied() != Some(*expected) {
                                matched = false;
                                checked = i as u32 + 1;
                                break;
                            }
                        }
                        rec.read(st, pc, op.a, checked);
                        matched
                    } else {
                        // No recorder: one slice comparison decides the
                        // branch (out-of-range spans mismatch, exactly as
                        // the per-byte walk classifies them).
                        input
                            .get(op.a as usize..op.a as usize + magic.len())
                            .is_some_and(|window| window == magic)
                    };
                    pc = if matched { op.b } else { op.c };
                }
                OpTag::Switch => {
                    rec.read(st, pc, op.a, 1);
                    pc = match input.get(op.a as usize) {
                        Some(&byte) => {
                            self.switch_tables[(op.b as usize) * 256 + usize::from(byte)]
                        }
                        None => op.c,
                    };
                }
                OpTag::LoopHead => {
                    rec.read(st, pc, op.a, 1);
                    let iters = match input.get(op.a as usize) {
                        Some(&byte) if op.d > 0 => u64::from(byte % op.d as u8),
                        _ => 0,
                    };
                    let charge = 2 * iters;
                    if st.steps_left >= charge {
                        // The budget provably survives the whole unrolled
                        // loop: charge it in one subtraction and skip the
                        // per-iteration exhaustion checks (with a no-op
                        // sink the iteration body compiles away entirely).
                        st.steps_left -= charge;
                        for _ in 0..iters {
                            burn_work(st.work_per_block);
                            sink.on_block(op.b as usize);
                            rec.block(op.b);
                            burn_work(st.work_per_block);
                            sink.on_block(pc as usize);
                            rec.block(pc);
                        }
                    } else {
                        // Exhaustion lands inside the loop: walk it with
                        // per-step checks so the hang fires on the exact
                        // body or back-edge step the tree walker reports.
                        for _ in 0..iters {
                            if st.steps_left == 0 {
                                return RawEnd::Hang { planted: false };
                            }
                            st.steps_left -= 1;
                            burn_work(st.work_per_block);
                            sink.on_block(op.b as usize);
                            rec.block(op.b);
                            if st.steps_left == 0 {
                                return RawEnd::Hang { planted: false };
                            }
                            st.steps_left -= 1;
                            burn_work(st.work_per_block);
                            sink.on_block(pc as usize);
                            rec.block(pc);
                        }
                    }
                    pc = op.c;
                }
                OpTag::Call => {
                    sink.on_call(op.b as usize);
                    rec.call(op.b, op.c);
                    st.frames.push(Frame {
                        ret_pc: op.c,
                        site: op.b,
                    });
                    pc = op.a;
                }
                OpTag::Crash => return RawEnd::Crash(op.a),
                OpTag::Hang => {
                    st.steps_left = 0;
                    return RawEnd::Hang { planted: true };
                }
                OpTag::Return => match st.frames.pop() {
                    Some(frame) => {
                        sink.on_return();
                        rec.ret();
                        pc = frame.ret_pc;
                    }
                    None => return RawEnd::Done,
                },
            }
        }
    }
}

/// Finds the first recorded read (in step order) whose op genuinely
/// *decides differently* on `input` than it did on the recorded input,
/// as an index into `recording.reads`.
///
/// A differing byte inside a watchpoint's span is necessary but not
/// sufficient for divergence: the engine carries no mutable state besides
/// pc, frames and the step counter, so as long as the op's
/// control-relevant decision ([`CompiledProgram::read_decision`]) comes
/// out the same, the trace continues byte-identically past it. Checking
/// the decision instead of the bytes turns e.g. a bit flip in a byte some
/// guard inspects (but whose comparison still fails) into a full replay.
///
/// Uses the per-byte CSR lists when available — walking only the lists of
/// genuinely differing bytes, with an early stop once a list passes the
/// best candidate — and the linear step-order scan otherwise. Both paths
/// implement the identical predicate, so the resume point never depends
/// on which one ran.
fn first_diverging_read(
    compiled: &CompiledProgram,
    recording: &ExecRecording,
    input: &[u8],
    diff: &DiffRange,
) -> Option<usize> {
    let decision_changed = |read: &ReadPoint| {
        compiled.read_decision(read.pc, &recording.input) != compiled.read_decision(read.pc, input)
    };
    if recording.read_index_ok {
        let hi = diff.hi.min(recording.read_csr_idx.len().saturating_sub(1));
        let mut best = u32::MAX;
        for offset in diff.lo..hi {
            if recording.input.get(offset) == input.get(offset) {
                continue;
            }
            let start = recording.read_csr_idx[offset] as usize;
            let end = recording.read_csr_idx[offset + 1] as usize;
            // Consecutive list entries from the same op (a loop head
            // re-reading its byte) share one decision check.
            let mut last: Option<(u32, bool)> = None;
            for &ri in &recording.read_csr_data[start..end] {
                if ri >= best {
                    break;
                }
                let pc = recording.reads[ri as usize].pc;
                let changed = match last {
                    Some((last_pc, changed)) if last_pc == pc => changed,
                    _ => {
                        let changed = decision_changed(&recording.reads[ri as usize]);
                        last = Some((pc, changed));
                        changed
                    }
                };
                if changed {
                    best = ri;
                    break;
                }
            }
        }
        (best != u32::MAX).then_some(best as usize)
    } else {
        recording.reads.iter().position(|read| {
            diff.affects(
                &recording.input,
                input,
                read.offset as usize,
                read.len as usize,
            ) && decision_changed(read)
        })
    }
}

/// Replays a tape prefix into `sink` (event order matches the live engine
/// exactly). A single branch-predictable pass over the dense word array;
/// with a no-op sink the whole scan is dead code and vanishes.
fn replay_events<S: TraceSink + ?Sized>(events: &[u32], sink: &mut S) {
    for &word in events {
        match word >> 30 {
            0 => sink.on_block(word as usize),
            1 => sink.on_call((word & EV_PAYLOAD) as usize),
            _ => sink.on_return(),
        }
    }
}

/// Rebuilds the call-frame stack live at event-tape position `cursor` by
/// merging the recorded call/return positions — O(calls + returns), never
/// a walk over the whole tape.
fn frames_at(recording: &ExecRecording, cursor: usize) -> Vec<Frame> {
    let calls = &recording.call_pos;
    let rets = &recording.ret_pos;
    let mut frames: Vec<Frame> = Vec::new();
    let (mut ci, mut ri) = (0usize, 0usize);
    loop {
        let next_call = calls.get(ci).map(|&p| p as usize).filter(|&p| p < cursor);
        let next_ret = rets.get(ri).map(|&p| p as usize).filter(|&p| p < cursor);
        match (next_call, next_ret) {
            (Some(call), Some(ret)) if call < ret => {
                frames.push(recording.call_frames[ci]);
                ci += 1;
            }
            (Some(_), Some(_)) | (None, Some(_)) => {
                frames.pop();
                ri += 1;
            }
            (Some(_), None) => {
                frames.push(recording.call_frames[ci]);
                ci += 1;
            }
            (None, None) => break,
        }
    }
    frames
}

/// Assembles the public [`BoundedRun`] from a raw engine end state.
fn finish(end: RawEnd, st: &EngineState) -> BoundedRun {
    let (outcome, planted_hang) = match end {
        RawEnd::Done => (ExecOutcome::Ok, false),
        RawEnd::Crash(site) => (
            ExecOutcome::Crash {
                site: site as usize,
                stack: st.frames.iter().map(|f| f.site as usize).collect(),
            },
            false,
        ),
        RawEnd::Hang { planted } => (ExecOutcome::Hang, planted),
    };
    BoundedRun {
        outcome,
        steps: st.budget - st.steps_left,
        planted_hang,
    }
}

/// The same synthetic per-block work spin as the tree walker's
/// `ExecState::step` — observable only in wall-clock time.
#[inline]
fn burn_work(work_per_block: u32) {
    if work_per_block > 0 {
        let mut acc = 0u64;
        for unit in 0..work_per_block {
            acc = acc
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(u64::from(unit));
        }
        std::hint::black_box(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::interp::{Interpreter, NullSink};

    fn magic_program() -> Program {
        ProgramBuilder::new("magic")
            .magic_gate(0, b"PNG!", false)
            .gate(4, b'x', true)
            .build()
            .unwrap()
    }

    #[test]
    fn diff_range_brackets_and_exact_bytes() {
        let parent = b"abcdef";
        assert!(DiffRange::between(parent, b"abcdef").is_none());
        let d = DiffRange::between(parent, b"abXdef").unwrap();
        assert_eq!((d.lo, d.hi), (2, 3));
        assert!(d.affects(parent, b"abXdef", 2, 1));
        assert!(d.affects(parent, b"abXdef", 0, 4));
        assert!(!d.affects(parent, b"abXdef", 0, 2));
        assert!(!d.affects(parent, b"abXdef", 3, 3));
        // Length change: everything from the divergence point on differs.
        let d = DiffRange::between(parent, b"abcd").unwrap();
        assert_eq!((d.lo, d.hi), (4, 6));
        assert!(d.affects(parent, b"abcd", 5, 1));
        assert!(!d.affects(parent, b"abcd", 0, 4));
        // Zero-length reads never count.
        assert!(!d.affects(parent, b"abcd", 4, 0));
    }

    #[test]
    fn magic_guard_records_exact_dependency_span() {
        let program = magic_program();
        let compiled = CompiledProgram::compile(&program);
        // Mismatch at index 1: the run depended on bytes [0, 2) only.
        let (_, rec) = compiled.record(b"PQNG!x", &mut NullSink, 1_000, 0);
        let magic_read = rec.reads.iter().find(|r| r.len > 1).unwrap();
        assert_eq!((magic_read.offset, magic_read.len), (0, 2));
        // Full match: the whole 4-byte span is a dependency.
        let (_, rec) = compiled.record(b"PNG!x", &mut NullSink, 1_000, 0);
        let magic_read = rec.reads.iter().find(|r| r.len > 1).unwrap();
        assert_eq!((magic_read.offset, magic_read.len), (0, 4));
    }

    #[test]
    fn csr_inversion_matches_linear_scan() {
        let program = magic_program();
        let compiled = CompiledProgram::compile(&program);
        let parent = b"PNG!a".to_vec();
        let (_, rec) = compiled.record(&parent, &mut NullSink, 1_000, 0);
        assert!(rec.read_index_ok);
        // Forcing the fallback flag makes first_diverging_read take the
        // linear step-order scan over the same recording.
        let mut linear_rec = rec.clone();
        linear_rec.read_index_ok = false;
        // Every single-byte mutation (and a truncation/extension pair)
        // must resolve to the same resume point through the per-byte CSR
        // lists as through the linear watchpoint scan.
        let mut children: Vec<Vec<u8>> = (0..parent.len())
            .map(|pos| {
                let mut child = parent.clone();
                child[pos] ^= 0x40;
                child
            })
            .collect();
        children.push(parent[..3].to_vec());
        children.push([&parent[..], b"tail"].concat());
        for child in children {
            let diff = DiffRange::between(&parent, &child).unwrap();
            let indexed = first_diverging_read(&compiled, &rec, &child, &diff);
            let linear = first_diverging_read(&compiled, &linear_rec, &child, &diff);
            assert_eq!(indexed, linear, "divergence for child {child:?}");
        }
    }

    #[test]
    fn unchanged_decision_mutation_replays_fully() {
        // A mutated byte that a guard reads — but whose comparison still
        // comes out the same way — is provably a non-event: the run must
        // be served entirely from the tape, bit-identically.
        let program = magic_program();
        let compiled = CompiledProgram::compile(&program);
        let parent = b"PNG!a".to_vec();
        let (_, rec) = compiled.record(&parent, &mut NullSink, 1_000, 0);
        // Byte 4 is read by the b'x' gate; 'a' -> 'b' still fails it.
        let (run, plan) = compiled.run_resumed(&rec, b"PNG!b", &mut NullSink, 1_000, 0);
        assert!(plan.is_full_replay());
        assert_eq!(run, compiled.run_bounded(b"PNG!b", &mut NullSink, 1_000, 0));
        // 'a' -> 'x' flips the gate: genuine divergence, never a replay.
        let (run, plan) = compiled.run_resumed(&rec, b"PNG!x", &mut NullSink, 1_000, 0);
        assert!(!plan.is_full_replay());
        assert_eq!(run, compiled.run_bounded(b"PNG!x", &mut NullSink, 1_000, 0));
    }

    #[test]
    fn resume_outcomes_classify_correctly() {
        let program = magic_program();
        let compiled = CompiledProgram::compile(&program);
        let parent = b"PNG!a".to_vec();
        let (_, rec) = compiled.record(&parent, &mut NullSink, 1_000, 0);

        // Identical child: full replay, every step served from the tape.
        let (run, plan) = compiled.run_resumed(&rec, &parent, &mut NullSink, 1_000, 0);
        assert!(plan.is_full_replay() && !plan.is_miss());
        assert_eq!(run.steps, rec.steps());
        assert_eq!(plan.skipped_steps(&rec), rec.steps());

        // Mutation past the magic, at a later read: resumes mid-run.
        let (run, plan) = compiled.run_resumed(&rec, b"PNG!x", &mut NullSink, 1_000, 0);
        assert!(!plan.is_full_replay() && !plan.is_miss());
        assert!((1..run.steps).contains(&plan.skipped_steps(&rec)));
        let cold = compiled.run_bounded(b"PNG!x", &mut NullSink, 1_000, 0);
        assert_eq!(run, cold);

        // Mutation in the first read byte: miss.
        let (run, plan) = compiled.run_resumed(&rec, b"XNG!a", &mut NullSink, 1_000, 0);
        assert!(plan.is_miss() && !plan.is_full_replay());
        assert_eq!(plan.skipped_steps(&rec), 0);
        let cold = compiled.run_bounded(b"XNG!a", &mut NullSink, 1_000, 0);
        assert_eq!(run, cold);

        // Budget mismatch: miss, regardless of bytes.
        let (_, plan) = compiled.run_resumed(&rec, &parent, &mut NullSink, 999, 0);
        assert!(plan.is_miss());
    }

    #[test]
    fn overflowed_recording_always_misses() {
        let program = magic_program();
        let compiled = CompiledProgram::compile(&program);
        let (_, mut rec) = compiled.record(b"PNG!a", &mut NullSink, 1_000, 0);
        rec.overflowed = true;
        let (_, plan) = compiled.run_resumed(&rec, b"PNG!a", &mut NullSink, 1_000, 0);
        assert!(plan.is_miss());
    }

    #[test]
    fn switch_table_first_arm_wins_like_tree_scan() {
        let program = ProgramBuilder::new("dup")
            .switch_gate(0, &[7, 7, 42])
            .build()
            .unwrap();
        let compiled = CompiledProgram::compile(&program);
        let tree = Interpreter::new(&program);
        for byte in [0u8, 7, 42, 200] {
            let input = [byte];
            let cold = compiled.run_bounded(&input, &mut NullSink, 1_000, 0);
            let walked = tree.run_tree(&input, &mut NullSink, 1_000);
            assert_eq!(cold, walked);
        }
    }
}
