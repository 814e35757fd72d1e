//! Kernel-independence of coverage trajectories: a campaign's coverage
//! decisions must not depend on which map-op kernel the dispatcher picked.
//!
//! Two layers of evidence:
//!
//! 1. Exec-budgeted campaigns are bit-deterministic run-to-run in one
//!    process (same seeds, same timeline, same discovered coverage) — so
//!    any cross-kernel divergence WOULD show up as a trajectory change.
//! 2. Replaying real target coverage maps through every kernel the host
//!    supports produces identical verdict sequences and identical virgin
//!    state — the per-exec decision is kernel-invariant on real data, not
//!    just on the random regions the property suite generates.
//!
//! (CI additionally runs the whole suite under `BIGMAP_KERNEL=scalar`,
//! which pins the process dispatcher itself to the oracle path.)

use bigmap::core::kernels::{available, table_for};
use bigmap::prelude::*;

fn run_once(seed: u64, sparse: Option<SparseMode>) -> CampaignStats {
    run_configured(seed, sparse, None, None).0
}

fn run_configured(
    seed: u64,
    sparse: Option<SparseMode>,
    trace: Option<TraceMode>,
    interp: Option<InterpMode>,
) -> (CampaignStats, std::sync::Arc<Telemetry>) {
    let spec = BenchmarkSpec::by_name("libpng").unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 8);
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::M2, 9);
    let interpreter = Interpreter::new(&program);
    let mut campaign = Campaign::new(
        CampaignConfig {
            scheme: MapScheme::TwoLevel,
            map_size: MapSize::M2,
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
    (campaign.run(), tel)
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
    // single point on the coverage timeline. CI also runs this whole file
    // under BIGMAP_SPARSE=off and BIGMAP_SPARSE=on, pinning the
    // process-wide default both ways.
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
    // must not move a single point on the coverage timeline. CI also runs
    // this whole file under BIGMAP_TRACE_MODE=always and =selective,
    // pinning the process-wide default both ways.
    let (baseline, baseline_tel) = run_configured(31, None, Some(TraceMode::Always), None);
    assert_eq!(baseline_tel.get(TelemetryEvent::FastPathExec), 0);
    for mode in [TraceMode::Selective, TraceMode::Auto] {
        let (two_speed, tel) = run_configured(31, None, Some(mode), None);
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
    // prefix) must not move a single point on the coverage timeline. CI
    // also runs this whole file under BIGMAP_INTERP=tree, pinning the
    // process-wide default the other way.
    let (baseline, baseline_tel) = run_configured(47, None, None, Some(InterpMode::Tree));
    assert_eq!(baseline_tel.get(TelemetryEvent::CompiledExec), 0);
    let (fast, tel) = run_configured(47, None, None, Some(InterpMode::Auto));
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
