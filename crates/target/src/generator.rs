//! Seeded random program generation and seed-corpus synthesis.
//!
//! The generator plays the role of "compiling a real target with
//! instrumentation": given a seed and a handful of shape parameters it
//! emits a deterministic control-flow graph with byte-guarded branches,
//! multi-byte compare roadblocks, switches, bounded loops, guarded calls
//! between functions, and crash/hang sites buried behind guard ladders
//! (DESIGN.md §3a). The same config always generates the identical
//! program.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::TargetError;
use crate::ir::{Block, BlockKind, FunctionInfo, Program};

/// AFL's "interesting" 8-bit boundary values; half of all guard bytes are
/// drawn from here so that boundary-flavoured inputs open gates the way
/// they do in real targets.
const INTERESTING: [u8; 9] = [0x00, 0x01, 0x10, 0x20, 0x40, 0x64, 0x7F, 0x80, 0xFF];

/// Shape parameters for [`GeneratorConfig::generate`].
///
/// Construct with struct-update syntax over [`Default`]:
///
/// ```
/// use bigmap_target::GeneratorConfig;
///
/// let program = GeneratorConfig { seed: 11, ..Default::default() }.generate();
/// assert!(program.block_count() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Name given to the generated program.
    pub name: String,
    /// RNG seed: same seed (and same other fields) → identical program.
    pub seed: u64,
    /// Number of functions; function 0 is the entry point. Functions call
    /// strictly higher-numbered functions, so recursion is impossible and
    /// per-execution call trees stay subcritical.
    pub functions: usize,
    /// Comparison sites per function (gates, magics, switches, loops).
    pub gates_per_function: usize,
    /// Fraction of sites that are multi-byte compare roadblocks.
    pub magic_gate_ratio: f64,
    /// Fraction of sites that are switches.
    pub switch_ratio: f64,
    /// Fraction of sites that are bounded loops.
    pub loop_ratio: f64,
    /// Crash sites planted behind guard ladders.
    pub crash_sites: usize,
    /// Hang sites (guarded unbounded loops).
    pub hang_sites: usize,
    /// Rungs in each crash-guard ladder: a crash fires only after this many
    /// consecutive single-byte guards all match.
    pub crash_guard_width: usize,
    /// Longest multi-byte compare emitted (bytes); magics are 2..=this.
    pub max_magic_len: usize,
    /// Guard offsets are drawn from `0..offset_range`.
    pub offset_range: usize,
    /// Length of inputs produced by [`generate_seeds`]-style corpora for
    /// this program shape.
    pub seed_len: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            name: "generated".into(),
            seed: 0,
            functions: 6,
            gates_per_function: 12,
            magic_gate_ratio: 0.10,
            switch_ratio: 0.10,
            loop_ratio: 0.12,
            crash_sites: 1,
            hang_sites: 0,
            crash_guard_width: 2,
            max_magic_len: 4,
            offset_range: 48,
            seed_len: 48,
        }
    }
}

/// One site queued for lowering.
enum GenSite {
    Plain {
        offset: usize,
        value: u8,
    },
    Magic {
        offset: usize,
        values: Vec<u8>,
    },
    Switch {
        offset: usize,
        cases: Vec<u8>,
    },
    Loop {
        offset: usize,
        max_iters: u8,
    },
    CrashLadder {
        rungs: Vec<(usize, u8)>,
        site: usize,
    },
    HangSite {
        offset: usize,
        value: u8,
    },
    Call {
        guard: Option<(usize, u8)>,
        callee: usize,
        call_site: usize,
    },
}

impl GenSite {
    fn block_len(&self) -> usize {
        match self {
            GenSite::Plain { .. } | GenSite::Magic { .. } => 2,
            GenSite::Switch { cases, .. } => 1 + cases.len(),
            GenSite::Loop { .. } => 2,
            GenSite::CrashLadder { rungs, .. } => rungs.len() + 1,
            GenSite::HangSite { .. } => 2,
            GenSite::Call { guard, .. } => 1 + usize::from(guard.is_some()),
        }
    }
}

impl GeneratorConfig {
    /// Check field ranges without generating.
    pub fn validate(&self) -> Result<(), TargetError> {
        if self.name.is_empty() {
            return Err(TargetError::EmptyName);
        }
        let ratio_ok = |r: f64| (0.0..=1.0).contains(&r) && r.is_finite();
        if !ratio_ok(self.magic_gate_ratio) {
            return Err(TargetError::InvalidConfig {
                field: "magic_gate_ratio",
                expected: "a fraction in 0.0..=1.0",
            });
        }
        if !ratio_ok(self.switch_ratio) {
            return Err(TargetError::InvalidConfig {
                field: "switch_ratio",
                expected: "a fraction in 0.0..=1.0",
            });
        }
        if !ratio_ok(self.loop_ratio) {
            return Err(TargetError::InvalidConfig {
                field: "loop_ratio",
                expected: "a fraction in 0.0..=1.0",
            });
        }
        if self.functions == 0 {
            return Err(TargetError::InvalidConfig {
                field: "functions",
                expected: "at least 1",
            });
        }
        if self.gates_per_function == 0 {
            return Err(TargetError::InvalidConfig {
                field: "gates_per_function",
                expected: "at least 1",
            });
        }
        if self.crash_guard_width == 0 {
            return Err(TargetError::InvalidConfig {
                field: "crash_guard_width",
                expected: "at least 1",
            });
        }
        if self.max_magic_len < 2 {
            return Err(TargetError::InvalidConfig {
                field: "max_magic_len",
                expected: "at least 2",
            });
        }
        if self.offset_range == 0 {
            return Err(TargetError::InvalidConfig {
                field: "offset_range",
                expected: "at least 1",
            });
        }
        Ok(())
    }

    /// Generate the program. Panics only on an invalid config (use
    /// [`GeneratorConfig::validate`] first to get a typed error).
    pub fn generate(&self) -> Program {
        if let Err(error) = self.validate() {
            panic!("invalid GeneratorConfig: {error}");
        }
        let mut rng = SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        let guard_value = |rng: &mut SmallRng| -> u8 {
            if rng.gen_bool(0.5) {
                INTERESTING[rng.gen_range(0..INTERESTING.len())]
            } else {
                rng.gen()
            }
        };
        let offset = |rng: &mut SmallRng| rng.gen_range(0..self.offset_range);

        // Phase 1: per-function site lists.
        let mut sites: Vec<Vec<GenSite>> = (0..self.functions)
            .map(|_| {
                (0..self.gates_per_function)
                    .map(|_| {
                        let roll: f64 = rng.gen();
                        if roll < self.magic_gate_ratio {
                            let len = rng.gen_range(2..=self.max_magic_len);
                            GenSite::Magic {
                                offset: offset(&mut rng),
                                values: (0..len).map(|_| rng.gen()).collect(),
                            }
                        } else if roll < self.magic_gate_ratio + self.switch_ratio {
                            let arms = rng.gen_range(2..=4);
                            let mut cases: Vec<u8> = Vec::with_capacity(arms);
                            while cases.len() < arms {
                                let case = guard_value(&mut rng);
                                if !cases.contains(&case) {
                                    cases.push(case);
                                }
                            }
                            GenSite::Switch {
                                offset: offset(&mut rng),
                                cases,
                            }
                        } else if roll < self.magic_gate_ratio + self.switch_ratio + self.loop_ratio
                        {
                            GenSite::Loop {
                                offset: offset(&mut rng),
                                max_iters: rng.gen_range(4..=16),
                            }
                        } else {
                            GenSite::Plain {
                                offset: offset(&mut rng),
                                value: guard_value(&mut rng),
                            }
                        }
                    })
                    .collect()
            })
            .collect();

        // Phase 2: call edges. Function f is called from f-1 so every
        // function is statically reachable; the entry's call to function 1
        // is unguarded (every execution descends at least one level), all
        // deeper and extra cross-calls are byte-guarded.
        let mut call_site = 0usize;
        for callee in 1..self.functions {
            let caller = callee - 1;
            let guard = if callee == 1 {
                None
            } else {
                Some((offset(&mut rng), guard_value(&mut rng)))
            };
            let at = rng.gen_range(0..=sites[caller].len());
            sites[caller].insert(
                at,
                GenSite::Call {
                    guard,
                    callee,
                    call_site,
                },
            );
            call_site += 1;
            // Occasionally a second, guarded call from an earlier function.
            if callee >= 2 && rng.gen_bool(0.25) {
                let caller = rng.gen_range(0..callee);
                let at = rng.gen_range(0..=sites[caller].len());
                sites[caller].insert(
                    at,
                    GenSite::Call {
                        guard: Some((offset(&mut rng), guard_value(&mut rng))),
                        callee,
                        call_site,
                    },
                );
                call_site += 1;
            }
        }

        // Phase 3: crash ladders and hang sites, scattered over functions.
        for site in 0..self.crash_sites {
            let rungs = (0..self.crash_guard_width)
                .map(|_| (offset(&mut rng), guard_value(&mut rng)))
                .collect();
            let function = rng.gen_range(0..self.functions);
            let at = rng.gen_range(0..=sites[function].len());
            sites[function].insert(at, GenSite::CrashLadder { rungs, site });
        }
        for _ in 0..self.hang_sites {
            let function = rng.gen_range(0..self.functions);
            let at = rng.gen_range(0..=sites[function].len());
            sites[function].insert(
                at,
                GenSite::HangSite {
                    offset: offset(&mut rng),
                    value: guard_value(&mut rng),
                },
            );
        }

        // Phase 4: lowering. Assign global block indices function by
        // function, then emit.
        let mut functions = Vec::with_capacity(self.functions);
        let mut starts: Vec<Vec<usize>> = Vec::with_capacity(self.functions);
        let mut cursor = 0usize;
        for function_sites in &sites {
            let entry = cursor;
            let mut site_starts = Vec::with_capacity(function_sites.len());
            for site in function_sites {
                site_starts.push(cursor);
                cursor += site.block_len();
            }
            functions.push(FunctionInfo { entry, ret: cursor });
            starts.push(site_starts);
            cursor += 1; // the return block
        }

        let mut blocks = Vec::with_capacity(cursor);
        for (f, function_sites) in sites.iter().enumerate() {
            for (index, site) in function_sites.iter().enumerate() {
                let start = starts[f][index];
                let next = starts[f]
                    .get(index + 1)
                    .copied()
                    .unwrap_or(functions[f].ret);
                lower_site(site, f, start, next, &mut blocks);
            }
            blocks.push(Block {
                kind: BlockKind::Return,
                function: f,
            });
        }

        let program = Program {
            name: self.name.clone(),
            call_sites: call_site,
            crash_sites: self.crash_sites,
            hang_sites: self.hang_sites,
            blocks,
            functions,
        };
        debug_assert_eq!(program.validate(), Ok(()));
        program
    }
}

/// Emit the blocks for one site. `start` is the site's first global block
/// index, `next` the first block of the following site (or the function's
/// return block).
fn lower_site(site: &GenSite, function: usize, start: usize, next: usize, blocks: &mut Vec<Block>) {
    match site {
        GenSite::Plain { offset, value } => {
            blocks.push(Block {
                kind: BlockKind::ByteGuard {
                    offset: *offset,
                    value: *value,
                    taken: start + 1,
                    fallthrough: next,
                },
                function,
            });
            blocks.push(Block {
                kind: BlockKind::Jump { next },
                function,
            });
        }
        GenSite::Magic { offset, values } => {
            blocks.push(Block {
                kind: BlockKind::MagicGuard {
                    offset: *offset,
                    values: values.clone(),
                    taken: start + 1,
                    fallthrough: next,
                },
                function,
            });
            blocks.push(Block {
                kind: BlockKind::Jump { next },
                function,
            });
        }
        GenSite::Switch { offset, cases } => {
            blocks.push(Block {
                kind: BlockKind::Switch {
                    offset: *offset,
                    arms: cases
                        .iter()
                        .enumerate()
                        .map(|(i, value)| (*value, start + 1 + i))
                        .collect(),
                    default: next,
                },
                function,
            });
            for _ in cases {
                blocks.push(Block {
                    kind: BlockKind::Jump { next },
                    function,
                });
            }
        }
        GenSite::Loop { offset, max_iters } => {
            blocks.push(Block {
                kind: BlockKind::LoopHead {
                    offset: *offset,
                    max_iters: *max_iters,
                    body: start + 1,
                    exit: next,
                },
                function,
            });
            blocks.push(Block {
                kind: BlockKind::Jump { next: start },
                function,
            });
        }
        GenSite::CrashLadder { rungs, site } => {
            for (i, (offset, value)) in rungs.iter().enumerate() {
                blocks.push(Block {
                    kind: BlockKind::ByteGuard {
                        offset: *offset,
                        value: *value,
                        taken: start + i + 1,
                        fallthrough: next,
                    },
                    function,
                });
            }
            blocks.push(Block {
                kind: BlockKind::Crash { site: *site },
                function,
            });
        }
        GenSite::HangSite { offset, value } => {
            blocks.push(Block {
                kind: BlockKind::ByteGuard {
                    offset: *offset,
                    value: *value,
                    taken: start + 1,
                    fallthrough: next,
                },
                function,
            });
            blocks.push(Block {
                kind: BlockKind::Hang,
                function,
            });
        }
        GenSite::Call {
            guard,
            callee,
            call_site,
        } => match guard {
            Some((offset, value)) => {
                blocks.push(Block {
                    kind: BlockKind::ByteGuard {
                        offset: *offset,
                        value: *value,
                        taken: start + 1,
                        fallthrough: next,
                    },
                    function,
                });
                blocks.push(Block {
                    kind: BlockKind::Call {
                        function: *callee,
                        call_site: *call_site,
                        next,
                    },
                    function,
                });
            }
            None => {
                blocks.push(Block {
                    kind: BlockKind::Call {
                        function: *callee,
                        call_site: *call_site,
                        next,
                    },
                    function,
                });
            }
        },
    }
}

/// Synthesise a deterministic seed corpus of `n` inputs for `program`.
///
/// Each seed starts from random bytes and then "solves" a random subset of
/// the program's safe single-byte guards (guards that do not lead into a
/// crash ladder or hang site), mimicking the head-start a real seed corpus
/// gives a campaign. Seeds are at most 128 bytes, so a guard at a larger
/// offset is never solved. Same `(program, n, seed)` → identical corpus.
pub fn generate_seeds(program: &Program, n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));

    // Input length: cover every guard offset, within sane bounds.
    let mut max_offset = 0usize;
    let mut gates: Vec<(usize, u8)> = Vec::new();
    for block in &program.blocks {
        if let BlockKind::ByteGuard {
            offset,
            value,
            taken,
            ..
        } = &block.kind
        {
            max_offset = max_offset.max(*offset);
            if !leads_to_fault(program, *taken, 64) {
                gates.push((*offset, *value));
            }
        }
        if let BlockKind::MaskGuard { offset, .. }
        | BlockKind::Switch { offset, .. }
        | BlockKind::LoopHead { offset, .. } = &block.kind
        {
            max_offset = max_offset.max(*offset);
        }
    }
    let len = (max_offset + 1).clamp(16, 128);

    (0..n)
        .map(|i| {
            let mut input: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            // Earlier seeds solve fewer gates, later seeds more, so the
            // corpus spreads over shallow and deep behaviour.
            let solve_p = 0.15 + 0.55 * (i as f64 + 1.0) / (n as f64 + 1.0);
            for &(offset, value) in &gates {
                // Guards read `input[offset]`: a byte past the seed's end
                // is never read, so it is not planted, but the draw stays
                // so that every other guard's draws keep their places.
                if rng.gen_bool(solve_p) && offset < len {
                    input[offset] = value;
                }
            }
            input
        })
        .collect()
}

/// Does `block` reach a crash or hang site through guard-taken/jump edges
/// within `depth` hops? Used to keep synthesised seeds from trivially
/// crashing the target.
fn leads_to_fault(program: &Program, block: usize, depth: usize) -> bool {
    if depth == 0 {
        return false;
    }
    match &program.blocks[block].kind {
        BlockKind::Crash { .. } | BlockKind::Hang => true,
        BlockKind::ByteGuard { taken, .. } | BlockKind::MaskGuard { taken, .. } => {
            leads_to_fault(program, *taken, depth - 1)
        }
        _ => false,
    }
}
