//! Hand-construction of small single-function programs.

use crate::error::TargetError;
use crate::ir::{Block, BlockKind, FunctionInfo, Program};

/// One site queued in the builder, lowered to blocks by [`ProgramBuilder::build`].
#[derive(Debug, Clone)]
enum Site {
    Gate {
        offset: usize,
        value: u8,
        crash: bool,
    },
    MagicGate {
        offset: usize,
        values: Vec<u8>,
        crash: bool,
    },
    LoopGate {
        offset: usize,
        max_iters: u8,
    },
    SwitchGate {
        offset: usize,
        cases: Vec<u8>,
    },
    HangGate {
        offset: usize,
        value: u8,
    },
}

/// Builds small, deterministic single-function [`Program`]s — the unit-test
/// and example counterpart to [`crate::GeneratorConfig`].
///
/// Sites are lowered in insertion order. A plain gate becomes a test block
/// followed by a reward block (or a crash block when `crash` is set); the
/// final block of every built program is the function's return block.
///
/// ```
/// use bigmap_target::{Interpreter, NullSink, ProgramBuilder};
///
/// let program = ProgramBuilder::new("demo")
///     .gate(0, b'A', false)
///     .gate(1, b'B', true)
///     .build()
///     .unwrap();
/// assert_eq!(program.block_count(), 5);
/// assert!(Interpreter::new(&program).run(b"AB", &mut NullSink).is_crash());
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    sites: Vec<Site>,
}

impl ProgramBuilder {
    /// Start a builder for a program called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            sites: Vec::new(),
        }
    }

    /// Append a single-byte guard reading `input[offset]`. When the byte
    /// equals `value` the guard's taken branch is a reward block, or a
    /// crash site when `crash` is true; an input too short to hold the
    /// byte fails the guard.
    pub fn gate(mut self, offset: usize, value: u8, crash: bool) -> Self {
        self.sites.push(Site::Gate {
            offset,
            value,
            crash,
        });
        self
    }

    /// Append a multi-byte all-at-once compare (a laf-intel roadblock).
    /// The taken branch is a reward block, or a crash site when `crash` is
    /// true. The magic bytes are exported by
    /// [`Program::extract_dictionary`].
    pub fn magic_gate(mut self, offset: usize, magic: &[u8], crash: bool) -> Self {
        self.sites.push(Site::MagicGate {
            offset,
            values: magic.to_vec(),
            crash,
        });
        self
    }

    /// Append a bounded loop iterating `input[offset] % max_iters` times.
    pub fn loop_gate(mut self, offset: usize, max_iters: u8) -> Self {
        self.sites.push(Site::LoopGate { offset, max_iters });
        self
    }

    /// Append a switch over `input[offset]` with one arm per case byte;
    /// non-matching bytes, and inputs too short to hold the byte, fall
    /// through to the next site.
    pub fn switch_gate(mut self, offset: usize, cases: &[u8]) -> Self {
        self.sites.push(Site::SwitchGate {
            offset,
            cases: cases.to_vec(),
        });
        self
    }

    /// Append a guarded hang site: when `input[offset] == value` the
    /// program enters an unbounded loop (reported as
    /// [`crate::ExecOutcome::Hang`]); an input too short to hold the byte
    /// passes by.
    pub fn hang_gate(mut self, offset: usize, value: u8) -> Self {
        self.sites.push(Site::HangGate { offset, value });
        self
    }

    /// Lower the queued sites into a validated [`Program`].
    pub fn build(self) -> Result<Program, TargetError> {
        if self.name.is_empty() {
            return Err(TargetError::EmptyName);
        }
        for (index, site) in self.sites.iter().enumerate() {
            match site {
                Site::MagicGate { values, .. } if values.is_empty() => {
                    return Err(TargetError::EmptyMagic { site: index });
                }
                Site::SwitchGate { cases, .. } if cases.is_empty() => {
                    return Err(TargetError::EmptySwitch { site: index });
                }
                _ => {}
            }
        }

        // First pass: compute each site's starting block index.
        let mut starts = Vec::with_capacity(self.sites.len());
        let mut cursor = 0usize;
        for site in &self.sites {
            starts.push(cursor);
            cursor += match site {
                Site::Gate { .. } | Site::MagicGate { .. } => 2,
                Site::LoopGate { .. } => 2,
                Site::SwitchGate { cases, .. } => 1 + cases.len(),
                Site::HangGate { .. } => 2,
            };
        }
        let ret = cursor; // the single return block comes last

        // Second pass: emit blocks.
        let mut blocks = Vec::with_capacity(ret + 1);
        let mut crash_sites = 0usize;
        let mut hang_sites = 0usize;
        for (index, site) in self.sites.iter().enumerate() {
            let start = starts[index];
            let next = starts.get(index + 1).copied().unwrap_or(ret);
            match site {
                Site::Gate {
                    offset,
                    value,
                    crash,
                } => {
                    blocks.push(Block {
                        kind: BlockKind::ByteGuard {
                            offset: *offset,
                            value: *value,
                            taken: start + 1,
                            fallthrough: next,
                        },
                        function: 0,
                    });
                    blocks.push(Block {
                        kind: if *crash {
                            let site = crash_sites;
                            crash_sites += 1;
                            BlockKind::Crash { site }
                        } else {
                            BlockKind::Jump { next }
                        },
                        function: 0,
                    });
                }
                Site::MagicGate {
                    offset,
                    values,
                    crash,
                } => {
                    blocks.push(Block {
                        kind: BlockKind::MagicGuard {
                            offset: *offset,
                            values: values.clone(),
                            taken: start + 1,
                            fallthrough: next,
                        },
                        function: 0,
                    });
                    blocks.push(Block {
                        kind: if *crash {
                            let site = crash_sites;
                            crash_sites += 1;
                            BlockKind::Crash { site }
                        } else {
                            BlockKind::Jump { next }
                        },
                        function: 0,
                    });
                }
                Site::LoopGate { offset, max_iters } => {
                    blocks.push(Block {
                        kind: BlockKind::LoopHead {
                            offset: *offset,
                            max_iters: *max_iters,
                            body: start + 1,
                            exit: next,
                        },
                        function: 0,
                    });
                    blocks.push(Block {
                        kind: BlockKind::Jump { next: start },
                        function: 0,
                    });
                }
                Site::SwitchGate { offset, cases } => {
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
                        function: 0,
                    });
                    for _ in cases {
                        blocks.push(Block {
                            kind: BlockKind::Jump { next },
                            function: 0,
                        });
                    }
                }
                Site::HangGate { offset, value } => {
                    hang_sites += 1;
                    blocks.push(Block {
                        kind: BlockKind::ByteGuard {
                            offset: *offset,
                            value: *value,
                            taken: start + 1,
                            fallthrough: next,
                        },
                        function: 0,
                    });
                    blocks.push(Block {
                        kind: BlockKind::Hang,
                        function: 0,
                    });
                }
            }
        }
        blocks.push(Block {
            kind: BlockKind::Return,
            function: 0,
        });

        let program = Program {
            name: self.name,
            call_sites: 0,
            crash_sites,
            hang_sites,
            blocks,
            functions: vec![FunctionInfo { entry: 0, ret }],
        };
        program.validate()?;
        Ok(program)
    }
}
