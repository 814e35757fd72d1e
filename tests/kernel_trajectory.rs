//! Policy-independence of coverage trajectories: a campaign's coverage
//! decisions must not depend on which map-op kernel the CPU selected, on
//! the sparse/dense dispatch policy, on the trace mode, on the execution
//! engine, or on the pages backing the map.
//!
//! Four layers of evidence:
//!
//! 1. Exec-budgeted campaigns are bit-deterministic run-to-run in one
//!    process (same seeds, same timeline, same discovered coverage) — so
//!    any cross-policy divergence WOULD show up as a trajectory change.
//! 2. Every combination of the per-campaign policies (`CampaignConfig`
//!    `sparse` × `trace` × `interp`, on both map schemes) walks the
//!    trajectory of one naive reference per scheme: dense dispatch,
//!    always-trace, the tree interpreter and plain pages. All of it runs
//!    in one process, through config overrides, with no environment pins.
//! 3. Replaying real target coverage maps through every kernel the host
//!    supports produces identical verdict sequences and identical virgin
//!    state — the per-exec decision is kernel-invariant on real data, not
//!    just on the random regions the property suite generates.
//! 4. Resuming from a checkpoint taken at any sync boundary, on either map
//!    scheme, under a calibrated hang budget and under a configured
//!    `max_steps` below it, finishes on the uninterrupted run's trajectory.

use bigmap::core::alloc::{with_huge_policy, HugePolicy};
use bigmap::core::kernels::{available, table_for};
use bigmap::fuzzer::{CampaignOutput, TimelinePoint};
use bigmap::prelude::*;

fn run_once(seed: u64, sparse: Option<SparseMode>) -> CampaignStats {
    run_configured(MapScheme::TwoLevel, seed, sparse, None, None)
        .0
        .stats
}

fn run_configured(
    scheme: MapScheme,
    seed: u64,
    sparse: Option<SparseMode>,
    trace: Option<TraceMode>,
    interp: Option<InterpMode>,
) -> (CampaignOutput, std::sync::Arc<Telemetry>) {
    // The flat map's per-exec ops span its whole allocation, so it runs
    // at 4 KiB to keep unoptimised test builds fast (the extra collisions
    // do not matter to an invariance check).
    let map_size = match scheme {
        MapScheme::TwoLevel => MapSize::M2,
        MapScheme::Flat => MapSize::new(4 << 10).unwrap(),
    };
    let spec = BenchmarkSpec::by_name("libpng").unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 8);
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, map_size, 9);
    let interpreter = Interpreter::new(&program);
    let mut campaign = Campaign::new(
        CampaignConfig {
            scheme,
            map_size,
            budget: Budget::Execs(4_000),
            seed,
            sparse,
            trace,
            interp,
            ..Default::default()
        },
        &interpreter,
        &instrumentation,
    );
    let tel = std::sync::Arc::new(Telemetry::new(0));
    campaign.set_telemetry(std::sync::Arc::clone(&tel));
    campaign.add_seeds(seeds);
    (campaign.run_detailed(), tel)
}

#[test]
fn exec_budgeted_campaigns_are_bit_deterministic() {
    let a = run_once(11, None);
    let b = run_once(11, None);
    assert_eq!(a.execs, b.execs);
    assert_eq!(a.queue_len, b.queue_len);
    assert_eq!(a.used_len, b.used_len);
    assert_eq!(
        a.timeline.points(),
        b.timeline.points(),
        "coverage trajectory must be bit-identical run-to-run"
    );
}

#[test]
fn campaign_trajectory_is_sparse_mode_invariant() {
    // The sparse journal walk and the dense kernel pass are alternative
    // implementations of the same map ops — forcing either one (or leaving
    // the adaptive policy to flip between them per exec) must not move a
    // single point on the coverage timeline.
    let baseline = run_once(23, None);
    for mode in [SparseMode::Off, SparseMode::On, SparseMode::Auto] {
        let forced = run_once(23, Some(mode));
        assert_eq!(baseline.execs, forced.execs, "{mode:?}: exec count");
        assert_eq!(baseline.queue_len, forced.queue_len, "{mode:?}: queue");
        assert_eq!(baseline.used_len, forced.used_len, "{mode:?}: used prefix");
        assert_eq!(
            baseline.timeline.points(),
            forced.timeline.points(),
            "{mode:?}: sparse dispatch changed the coverage trajectory"
        );
    }
}

#[test]
fn campaign_trajectory_is_trace_mode_invariant() {
    // Selective tracing runs most test cases untraced and re-traces only
    // novelty-oracle-flagged ones — an *observation* optimization that
    // must not move a single point on the coverage timeline.
    let run = |mode| run_configured(MapScheme::TwoLevel, 31, None, Some(mode), None);
    let (baseline, baseline_tel) = run(TraceMode::Always);
    let baseline = baseline.stats;
    assert_eq!(baseline_tel.get(TelemetryEvent::FastPathExec), 0);
    for mode in [TraceMode::Selective, TraceMode::Auto] {
        let (two_speed, tel) = run(mode);
        let two_speed = two_speed.stats;
        assert_eq!(baseline.execs, two_speed.execs, "{mode:?}: exec count");
        assert_eq!(baseline.queue_len, two_speed.queue_len, "{mode:?}: queue");
        assert_eq!(
            baseline.used_len, two_speed.used_len,
            "{mode:?}: used prefix"
        );
        assert_eq!(
            baseline.total_crashes, two_speed.total_crashes,
            "{mode:?}: crashes"
        );
        assert_eq!(baseline.hangs, two_speed.hangs, "{mode:?}: hangs");
        assert_eq!(
            baseline.timeline.points(),
            two_speed.timeline.points(),
            "{mode:?}: selective tracing changed the coverage trajectory"
        );
        // The equivalence must be earned, not vacuous: the fast path has
        // to have actually skipped executions.
        assert!(
            tel.get(TelemetryEvent::FastPathExec) > 0,
            "{mode:?}: fast path never fired — the test proves nothing"
        );
    }
}

#[test]
fn campaign_trajectory_is_interp_mode_invariant() {
    // The compiled bytecode engine and its snapshot-reset fast path are
    // alternative *executors* of the same target semantics — switching
    // engines (or resuming children from a parent's memoized trace
    // prefix) must not move a single point on the coverage timeline.
    let run = |mode| run_configured(MapScheme::TwoLevel, 47, None, None, Some(mode));
    let (baseline, baseline_tel) = run(InterpMode::Tree);
    let baseline = baseline.stats;
    assert_eq!(baseline_tel.get(TelemetryEvent::CompiledExec), 0);
    let (fast, tel) = run(InterpMode::Auto);
    let fast = fast.stats;
    assert_eq!(baseline.execs, fast.execs, "exec count");
    assert_eq!(baseline.queue_len, fast.queue_len, "queue");
    assert_eq!(baseline.used_len, fast.used_len, "used prefix");
    assert_eq!(baseline.total_crashes, fast.total_crashes, "crashes");
    assert_eq!(baseline.hangs, fast.hangs, "hangs");
    assert_eq!(
        baseline.timeline.points(),
        fast.timeline.points(),
        "the compiled engine changed the coverage trajectory"
    );
    // The equivalence must be earned, not vacuous: the compiled engine has
    // to have served every exec and actually reused parent snapshots.
    assert!(
        tel.get(TelemetryEvent::CompiledExec) >= fast.execs,
        "compiled engine never fired — the test proves nothing"
    );
    assert!(
        tel.get(TelemetryEvent::SnapshotHit) > 0,
        "no snapshot was ever reused — the test proves nothing"
    );
}

#[test]
fn campaign_trajectory_is_invariant_across_the_policy_product() {
    // One naive reference per scheme — dense dispatch, always-trace, the
    // tree interpreter, plain pages — against every combination of the
    // per-campaign policies. The flat map has no sparse pipeline, so its
    // product is trace × interp.
    const SEED: u64 = 59;
    const SPARSE: [SparseMode; 3] = [SparseMode::Off, SparseMode::On, SparseMode::Auto];
    for scheme in [MapScheme::TwoLevel, MapScheme::Flat] {
        let (reference, _) = with_huge_policy(HugePolicy::Off, || {
            run_configured(
                scheme,
                SEED,
                Some(SparseMode::Off),
                Some(TraceMode::Always),
                Some(InterpMode::Tree),
            )
        });
        let sparse_modes: &[SparseMode] = match scheme {
            MapScheme::TwoLevel => &SPARSE,
            MapScheme::Flat => &[SparseMode::Auto],
        };
        for &sparse in sparse_modes {
            for trace in TraceMode::ALL {
                for interp in InterpMode::ALL {
                    let cell = format!("{scheme:?} {sparse:?}/{trace:?}/{interp:?}");
                    let (out, tel) =
                        run_configured(scheme, SEED, Some(sparse), Some(trace), Some(interp));
                    let (want, got) = (&reference.stats, &out.stats);
                    assert_eq!(got.execs, want.execs, "{cell}: exec count");
                    assert_eq!(got.queue_len, want.queue_len, "{cell}: queue");
                    assert_eq!(got.used_len, want.used_len, "{cell}: used prefix");
                    assert_eq!(got.total_crashes, want.total_crashes, "{cell}: crashes");
                    assert_eq!(got.hangs, want.hangs, "{cell}: hangs");
                    assert_eq!(
                        got.timeline.points(),
                        want.timeline.points(),
                        "{cell}: coverage trajectory"
                    );
                    assert_eq!(out.corpus, reference.corpus, "{cell}: final corpus");
                    assert_eq!(
                        out.crash_inputs, reference.crash_inputs,
                        "{cell}: crash inputs"
                    );
                    assert_eq!(
                        out.hang_inputs, reference.hang_inputs,
                        "{cell}: hang inputs"
                    );

                    // Each cell must have run its policy, or it proves
                    // nothing.
                    if trace != TraceMode::Always {
                        assert!(
                            tel.get(TelemetryEvent::FastPathExec) > 0,
                            "{cell}: fast path never fired"
                        );
                    }
                    let compiled = tel.get(TelemetryEvent::CompiledExec);
                    // Full replays are skipped on the snapshot engine
                    // only; the tree reference traces every child.
                    let replay_skips = tel.get(TelemetryEvent::ReplaySkip);
                    match interp {
                        InterpMode::Tree => {
                            assert_eq!(compiled, 0, "{cell}: compiled engine ran");
                            assert_eq!(replay_skips, 0, "{cell}: tree engine skipped");
                        }
                        InterpMode::Auto => {
                            assert!(compiled > 0, "{cell}: compiled engine idle");
                            assert!(replay_skips > 0, "{cell}: no full replay skipped");
                        }
                    }
                    let sparse_ops = tel.get(TelemetryEvent::SparseDispatch);
                    match (scheme, sparse) {
                        (MapScheme::TwoLevel, SparseMode::On) => {
                            assert!(sparse_ops > 0, "{cell}: sparse path never ran")
                        }
                        (MapScheme::TwoLevel, SparseMode::Off) => {
                            assert_eq!(sparse_ops, 0, "{cell}: sparse path ran")
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

#[test]
fn resume_from_every_sync_boundary_matches_the_uninterrupted_run() {
    // Capture a checkpoint at every sync boundary of one uninterrupted
    // run, then restore each into a fresh campaign and finish the budget:
    // every resumed run must end where the uninterrupted one did.
    const SYNC_EVERY: u64 = 500;
    let spec = BenchmarkSpec::by_name("libpng").unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 8);
    let plain = Interpreter::new(&program);
    // An engine whose configured budget is the longest seed's step count.
    let max_steps = plain.config().max_steps;
    let longest_seed = seeds
        .iter()
        .map(|seed| plain.run_bounded(seed, &mut NullSink, max_steps).steps)
        .max()
        .unwrap();
    let capped = Interpreter::with_config(
        &program,
        ExecConfig {
            max_steps: longest_seed,
            ..Default::default()
        },
    );
    // The deterministic stages run in long batches, havoc in short ones:
    // one campaign of each. The last three run every mutant under a hang
    // budget calibrated to the seeds' own step counts, so the checkpoints
    // carry hang inputs that only that budget cuts off; the 0.5 one also
    // sits below the longest seed, which the queue replay must still
    // re-admit. The last derives a budget above the capped engine's
    // `max_steps`: the installed budget must stop at `max_steps`, or an
    // entry admitted past it hangs on the queue replay and `restore`
    // indexes past the end of the queue.
    let calibrated = |multiplier| {
        Some(HangBudget {
            multiplier,
            floor: 1,
            ceiling: 1_000_000,
        })
    };
    let flat_4k = MapSize::new(4 << 10).unwrap();
    for (interpreter, scheme, map_size, deterministic, hang_budget) in [
        (&plain, MapScheme::TwoLevel, MapSize::K64, true, None),
        (&plain, MapScheme::Flat, flat_4k, false, None),
        (&plain, MapScheme::Flat, flat_4k, false, calibrated(1.0)),
        (&plain, MapScheme::Flat, flat_4k, false, calibrated(0.5)),
        (&capped, MapScheme::Flat, flat_4k, false, calibrated(4.0)),
    ] {
        let instrumentation =
            Instrumentation::assign(program.block_count(), program.call_sites, map_size, 9);
        let config = CampaignConfig {
            scheme,
            map_size,
            budget: Budget::Execs(5_000),
            seed: 71,
            deterministic,
            hang_budget,
            ..Default::default()
        };
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut campaign = Campaign::new(config.clone(), interpreter, &instrumentation);
        campaign.add_seeds(seeds.clone());
        let reference =
            campaign.run_with_hook_detailed(SYNC_EVERY, |c| checkpoints.push(c.checkpoint()));
        let case = format!(
            "{scheme:?} (hang budget {hang_budget:?}, max_steps {})",
            interpreter.config().max_steps
        );
        assert!(
            checkpoints.len() >= 6,
            "{case}: only {} sync boundaries",
            checkpoints.len()
        );

        for checkpoint in &checkpoints {
            let at = format!("{case} resumed at exec {}", checkpoint.execs);
            let mut resumed = Campaign::new(config.clone(), interpreter, &instrumentation);
            resumed.restore(checkpoint);
            let out = resumed.run_with_hook_detailed(SYNC_EVERY, |_| {});
            assert_eq!(out.stats.execs, reference.stats.execs, "{at}: execs");
            assert_eq!(out.corpus, reference.corpus, "{at}: corpus");
            assert_eq!(
                out.crash_inputs, reference.crash_inputs,
                "{at}: crash inputs"
            );
            assert_eq!(out.hang_inputs, reference.hang_inputs, "{at}: hang inputs");
            assert_eq!(
                out.stats.queue_len, reference.stats.queue_len,
                "{at}: queue"
            );
            // A restored timeline starts at the checkpoint; from there on it
            // must be the uninterrupted run's.
            let (first, rest) = out.stats.timeline.points().split_first().unwrap();
            assert_eq!(
                *first,
                TimelinePoint {
                    execs: checkpoint.execs,
                    coverage: checkpoint.discovered_running,
                },
                "{at}: first timeline point"
            );
            let tail: Vec<TimelinePoint> = reference
                .stats
                .timeline
                .points()
                .iter()
                .copied()
                .filter(|p| p.execs > checkpoint.execs)
                .collect();
            assert_eq!(rest, &tail[..], "{at}: timeline");
        }
        // Checked after the resumes: a budget above `max_steps` cuts
        // nothing off, and the queue replay is what it breaks.
        assert!(
            hang_budget.is_none() || !reference.hang_inputs.is_empty(),
            "{case}: the calibrated budget cut nothing off"
        );
    }
}

#[test]
fn real_coverage_replay_is_kernel_invariant() {
    // Drive the executor over a deterministic input stream, capturing the
    // raw (unclassified) coverage map of every execution; then push each
    // captured map through every available kernel's fused pipeline against
    // that kernel's own virgin map.
    let spec = BenchmarkSpec::by_name("sqlite3").unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 16);
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::M2, 9);
    let interpreter = Interpreter::new(&program);
    let mut executor = Executor::new(
        &interpreter,
        &instrumentation,
        Box::new(EdgeHitCount::new()),
    );

    let map_bytes = MapSize::M2.bytes();
    let mut raw_maps: Vec<Vec<u8>> = Vec::new();
    let mut map = FlatBitmap::new(MapSize::M2).unwrap();
    for (i, seed) in seeds.iter().enumerate() {
        // A cheap variant per seed to diversify the hit patterns.
        let mut input = seed.clone();
        if !input.is_empty() {
            input[0] = input[0].wrapping_add(i as u8);
        }
        map.reset();
        executor.run(&input, &mut map);
        raw_maps.push(map.as_slice().to_vec());
    }
    assert!(!raw_maps.is_empty());

    let kernels = available();
    assert!(!kernels.is_empty());

    // Per-kernel pipeline state.
    let mut virgins: Vec<Vec<u8>> = kernels.iter().map(|_| vec![0xFFu8; map_bytes]).collect();
    for raw in &raw_maps {
        let mut outcomes = Vec::new();
        for (k, &kind) in kernels.iter().enumerate() {
            let table = table_for(kind).expect("available kernel has a table");
            let mut cur = raw.clone();
            let verdict = table.classify_and_compare(&mut cur, &mut virgins[k]);
            outcomes.push((kind, verdict, cur));
        }
        let (_, first_verdict, first_cur) = &outcomes[0];
        for (kind, verdict, cur) in &outcomes[1..] {
            assert_eq!(verdict, first_verdict, "{kind}: verdict diverged");
            assert_eq!(cur, first_cur, "{kind}: classified map diverged");
        }
    }
    let (first_virgin, rest_virgins) = virgins.split_first().unwrap();
    for (kind, virgin) in kernels.iter().skip(1).zip(rest_virgins) {
        assert_eq!(
            virgin, first_virgin,
            "{kind}: virgin map diverged after the full replay"
        );
    }
}
