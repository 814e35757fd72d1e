//! Synthetic instrumented-target substrate for the BigMap reproduction.
//!
//! Real fuzzing evaluations run instrumented binaries; this crate stands in
//! for them with deterministic, seeded control-flow-graph programs and an
//! interpreter that reports every executed basic block to a [`TraceSink`] —
//! the same event stream an AFL-instrumented target writes into its
//! shared-memory map. The pieces:
//!
//! * [`Program`] — the IR: byte-guarded branches, multi-byte compare
//!   roadblocks, switches, bounded loops, guarded calls, crash and hang
//!   sites, with full static-edge enumeration for CollAFL-style analyses.
//! * [`ProgramBuilder`] — hand-built single-function programs for tests
//!   and examples.
//! * [`GeneratorConfig`] / [`generate_seeds`] — seeded random program and
//!   corpus generation (same seed → identical program, identical corpus).
//! * [`BenchmarkSpec`] — the paper's Table II suite (zlib … instcombine),
//!   buildable at any density.
//! * [`Interpreter`] with [`ExecConfig`] / [`ExecOutcome`] — deterministic
//!   execution with step-bounded hang detection.
//! * [`apply_laf_intel`] — the roadblock-splitting IR transform.
//!
//! ```
//! use bigmap_target::{Interpreter, NullSink, ProgramBuilder};
//!
//! let program = ProgramBuilder::new("hello")
//!     .gate(0, b'h', false)
//!     .magic_gate(1, b"i!", true)
//!     .build()
//!     .unwrap();
//! let interpreter = Interpreter::new(&program);
//! assert!(interpreter.run(b"hi!", &mut NullSink).is_crash());
//! assert!(interpreter.run(b"ho!", &mut NullSink).is_ok());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod compile;
mod error;
mod generator;
mod interp;
mod ir;
mod lafintel;
mod oracle;
mod suite;

pub use builder::ProgramBuilder;
pub use compile::{CompiledProgram, ExecRecording, ResumePlan};
pub use error::TargetError;
pub use generator::{generate_seeds, GeneratorConfig};
pub use interp::{BoundedRun, ExecConfig, ExecOutcome, Interpreter, NullSink, TraceSink};
pub use ir::Program;
pub use lafintel::{apply_laf_intel, LafIntelStats};
pub use oracle::{NoveltyOracle, OracleSnapshot, DEFAULT_MAX_PATHS};
pub use suite::BenchmarkSpec;

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the full event trace for determinism and shape assertions.
    #[derive(Default)]
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

    fn trace(program: &Program, input: &[u8]) -> (Vec<(u8, usize)>, ExecOutcome) {
        let mut recorder = Recorder::default();
        let outcome = Interpreter::new(program).run(input, &mut recorder);
        (recorder.events, outcome)
    }

    #[test]
    fn builder_block_layout_is_pinned() {
        // gate0 test(0), reward(1), gate1 test(2), crash(3), return(4).
        let program = ProgramBuilder::new("t")
            .gate(0, b'A', false)
            .gate(1, b'B', true)
            .build()
            .unwrap();
        assert_eq!(program.block_count(), 5);
        assert_eq!(program.crash_sites, 1);
        assert_eq!(
            program.static_edge_pairs(),
            vec![(0, 1), (0, 2), (1, 2), (2, 3), (2, 4)]
        );
    }

    #[test]
    fn builder_rejects_bad_programs() {
        assert_eq!(
            ProgramBuilder::new("").build().unwrap_err(),
            TargetError::EmptyName
        );
        assert_eq!(
            ProgramBuilder::new("m").magic_gate(0, b"", false).build(),
            Err(TargetError::EmptyMagic { site: 0 })
        );
        assert_eq!(
            ProgramBuilder::new("s").switch_gate(0, &[]).build(),
            Err(TargetError::EmptySwitch { site: 0 })
        );
    }

    #[test]
    fn outcomes_cover_ok_crash_hang() {
        let program = ProgramBuilder::new("o")
            .gate(0, b'C', true)
            .hang_gate(1, b'H')
            .build()
            .unwrap();
        assert_eq!(trace(&program, b"xx").1, ExecOutcome::Ok);
        assert_eq!(
            trace(&program, b"Cx").1,
            ExecOutcome::Crash {
                site: 0,
                stack: vec![]
            }
        );
        assert_eq!(trace(&program, b"xH").1, ExecOutcome::Hang);
    }

    #[test]
    fn empty_input_fails_every_guard() {
        let program = ProgramBuilder::new("e")
            .gate(0, 0, true)
            .loop_gate(1, 8)
            .build()
            .unwrap();
        let (events, outcome) = trace(&program, b"");
        assert_eq!(outcome, ExecOutcome::Ok);
        // Guard test, loop head, return — no reward, body or crash blocks.
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn loop_trip_count_follows_the_input_byte() {
        let program = ProgramBuilder::new("l").loop_gate(0, 10).build().unwrap();
        let head_visits = |byte: u8| {
            trace(&program, &[byte])
                .0
                .iter()
                .filter(|e| *e == &(0u8, 0usize))
                .count()
        };
        assert_eq!(head_visits(0), 1);
        assert_eq!(head_visits(3), 4); // 3 % 10 iterations re-visit the head
        assert_eq!(head_visits(13), 4);
    }

    #[test]
    fn generator_is_deterministic_and_valid() {
        let config = GeneratorConfig {
            seed: 42,
            crash_sites: 3,
            hang_sites: 2,
            ..Default::default()
        };
        let a = config.generate();
        let b = config.generate();
        assert_eq!(a, b);
        assert_eq!(a.validate(), Ok(()));
        assert_eq!(a.crash_sites, 3);
        assert_eq!(a.hang_sites, 2);
        assert!(a.call_sites >= config.functions - 1);
        let (_, indirect) = a.static_edge_pairs_classified();
        assert!(!indirect.is_empty(), "calls must produce return edges");
    }

    #[test]
    fn generator_rejects_bad_configs() {
        let bad = GeneratorConfig {
            magic_gate_ratio: 1.5,
            ..Default::default()
        };
        assert_eq!(
            bad.validate(),
            Err(TargetError::InvalidConfig {
                field: "magic_gate_ratio",
                expected: "a fraction in 0.0..=1.0",
            })
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let program = GeneratorConfig {
            seed: 7,
            crash_sites: 2,
            ..Default::default()
        }
        .generate();
        for input in [&b""[..], b"abc", &[0xFF; 64], &[0x20; 48]] {
            assert_eq!(trace(&program, input), trace(&program, input));
        }
    }

    #[test]
    fn laf_intel_preserves_behaviour_and_splits_compares() {
        let plain = ProgramBuilder::new("magic")
            .magic_gate(2, b"K3Y!", true)
            .switch_gate(0, b"abc")
            .build()
            .unwrap();
        let (laf, stats) = apply_laf_intel(&plain);
        assert_eq!(stats.comparisons_split, 1);
        assert_eq!(stats.switches_deconstructed, 1);
        // 4-byte magic → 32 bit-prefix rungs (net +31); 3-arm switch →
        // net +2.
        assert_eq!(stats.blocks_added, 31 + 2);
        assert_eq!(laf.block_count(), plain.block_count() + stats.blocks_added);
        assert_eq!(laf.validate(), Ok(()));
        // Outcomes agree on crashing and non-crashing inputs alike.
        for input in [&b"xxK3Y!"[..], b"axK3Y!", b"cxxxxx", b"zzzzzz", b""] {
            assert_eq!(trace(&plain, input).1, trace(&laf, input).1);
        }
        // The laf version has no multi-byte compares left to extract.
        assert_eq!(plain.extract_dictionary(), vec![b"K3Y!".to_vec()]);
        assert!(laf.extract_dictionary().is_empty());
    }

    #[test]
    fn dictionary_preserves_order_and_dedups() {
        let program = ProgramBuilder::new("d")
            .magic_gate(0, b"one", false)
            .magic_gate(4, b"two", false)
            .magic_gate(8, b"one", false)
            .build()
            .unwrap();
        assert_eq!(
            program.extract_dictionary(),
            vec![b"one".to_vec(), b"two".to_vec()]
        );
    }

    #[test]
    fn crash_stack_reflects_call_chain() {
        let program = GeneratorConfig {
            seed: 1234,
            functions: 5,
            gates_per_function: 6,
            crash_sites: 4,
            crash_guard_width: 1,
            ..Default::default()
        }
        .generate();
        // Hunt for a crashing input; the guard ladder is width 1 so a
        // byte sweep over constant inputs finds one quickly.
        let crash = (0u8..=255)
            .map(|byte| trace(&program, &[byte; 48]).1)
            .find(|outcome| outcome.is_crash());
        if let Some(ExecOutcome::Crash { site, stack }) = crash {
            assert!(site < program.crash_sites);
            for call_site in stack {
                assert!(call_site < program.call_sites);
            }
        }
    }

    #[test]
    fn suite_covers_table_ii() {
        assert_eq!(BenchmarkSpec::all().len(), 19);
        assert_eq!(BenchmarkSpec::table_ii().len(), 19);
        assert_eq!(BenchmarkSpec::figure3().len(), 6);
        assert!(BenchmarkSpec::llvm().len() >= 6);
        assert!(BenchmarkSpec::by_name("zlib").is_some());
        assert!(BenchmarkSpec::by_name("instcombine").is_some());
        assert!(BenchmarkSpec::by_name("nonesuch").is_none());
        assert_eq!(BenchmarkSpec::all().first().unwrap().name, "zlib");
        assert_eq!(BenchmarkSpec::all().last().unwrap().name, "instcombine");
    }

    #[test]
    fn suite_density_scales_static_edges() {
        let spec = BenchmarkSpec::by_name("sqlite3").unwrap();
        let small = spec.build(0.02);
        let large = spec.build(0.2);
        assert!(large.static_edge_count() > 4 * small.static_edge_count());
        assert!(large.static_edge_pairs().len() > 5_000);
        // Same spec and density → identical program.
        assert_eq!(spec.build(0.02), small);
    }

    #[test]
    fn generated_seeds_do_not_crash_the_target() {
        for name in ["gvn", "instcombine", "harfbuzz"] {
            let spec = BenchmarkSpec::by_name(name).unwrap();
            let program = spec.build(0.02);
            let seeds = spec.build_seeds(&program, 12);
            assert_eq!(seeds.len(), 12);
            for seed in &seeds {
                assert!(!seed.is_empty());
                assert!(trace(&program, seed).1.is_ok());
            }
        }
    }

    #[test]
    fn seeds_plant_no_guard_byte_past_their_end() {
        // A guard reads `input[offset]`; the 128-byte seeds cannot hold
        // offset 130, and planting its byte at `130 % 128` would only
        // overwrite byte 2. Byte 2 holds the guard's value by chance
        // alone: 1 in 256 per seed.
        let program = ProgramBuilder::new("far")
            .gate(130, b'Z', false)
            .build()
            .unwrap();
        let seeds = generate_seeds(&program, 256, 9);
        assert!(seeds.iter().all(|seed| seed.len() == 128));
        let planted = seeds.iter().filter(|seed| seed[2] == b'Z').count();
        assert!(
            planted <= 8,
            "{planted} of 256 seeds hold the guard's value at byte 2"
        );
    }

    #[test]
    fn exact_budget_completion_is_ok_not_hang() {
        // Regression guard for the step-budget boundary: an execution
        // that finishes on exactly the last budgeted step must classify
        // Ok, not Hang — an off-by-one here would misroute inputs to the
        // hang map and poison selective-tracing re-trace decisions.
        let programs = [
            ProgramBuilder::new("straight")
                .gate(0, b'A', false)
                .gate(1, b'B', false)
                .build()
                .unwrap(),
            ProgramBuilder::new("loopy")
                .loop_gate(0, 10)
                .build()
                .unwrap(),
        ];
        for program in &programs {
            for input in [&b""[..], b"AB", b"A?", &[7u8]] {
                let interp = Interpreter::new(program);
                let generous = interp.run_bounded(input, &mut NullSink, 1_000_000);
                assert!(generous.outcome.is_ok());
                let steps = generous.steps;

                // Budget == steps actually needed: completes, Ok.
                let exact = interp.run_bounded(input, &mut NullSink, steps);
                assert_eq!(exact.outcome, ExecOutcome::Ok, "exact budget must be Ok");
                assert_eq!(exact.steps, steps);

                // One step short: must be Hang, with the budget drained.
                let short = interp.run_bounded(input, &mut NullSink, steps - 1);
                assert_eq!(short.outcome, ExecOutcome::Hang);
                assert!(!short.planted_hang);
                assert_eq!(short.steps, steps - 1);
            }
        }
    }

    #[test]
    fn fast_path_boundary_matches_traced_path() {
        // The untraced fast pass is the same engine run with the novelty
        // oracle as its sink: it must agree with the tree walker on
        // outcome and step accounting at the exact-budget boundary (and
        // everywhere else).
        let program = ProgramBuilder::new("par")
            .gate(0, b'Q', false)
            .loop_gate(1, 6)
            .build()
            .unwrap();
        let interp = Interpreter::new(&program);
        assert!(interp.compiled().is_some());
        let mut oracle = NoveltyOracle::new(program.block_count());
        for input in [&b"Q\x05"[..], b"??", b""] {
            let traced = interp.run_tree(input, &mut NullSink, 1_000_000);
            for budget in [traced.steps - 1, traced.steps, traced.steps + 1] {
                let slow = interp.run_tree(input, &mut NullSink, budget);
                oracle.begin_exec();
                let fast = interp.run_bounded(input, &mut oracle, budget);
                assert_eq!(slow, fast, "speeds diverge at budget {budget}");
            }
        }
    }

    #[test]
    fn step_budget_bounds_every_execution() {
        let program = ProgramBuilder::new("tiny")
            .loop_gate(0, 200)
            .loop_gate(1, 200)
            .build()
            .unwrap();
        let exec = ExecConfig {
            max_steps: 10,
            ..Default::default()
        };
        let outcome = Interpreter::with_config(&program, exec).run(&[199, 199], &mut NullSink);
        assert_eq!(outcome, ExecOutcome::Hang);
    }
}
