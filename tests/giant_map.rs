//! Giant-map regime: allocation policy must never touch coverage semantics.
//!
//! The giant-map memory subsystem (explicit huge pages, size-scaled
//! sparse policy) is pure mechanism — where map bytes live and
//! which walk visits them. These tests pin the boundary at a 256 MiB map:
//!
//! 1. Campaigns under both huge-page policies (`off` and `explicit`,
//!    set in-process with `with_huge_policy`) with sparse dispatch on
//!    auto walk bit-identical coverage trajectories (the
//!    `tests/kernel_trajectory.rs` pattern, one regime up).
//! 2. The journal's capacity scales with the map (a `BigMap` gets the
//!    scaled bound, and allocates its run vector only once it journals)
//!    and its PR-5 overflow policy (flag, bound, dense fallback) holds at
//!    giant sizes.
//! 3. Maps report which backend served them, and every policy yields a
//!    correctly aligned, zeroed buffer — telemetry sees fallbacks, the
//!    campaign never does.

use bigmap::core::alloc::{with_huge_policy, AllocBackend, HugePolicy, HUGE_PAGE_BYTES};
use bigmap::core::journal::{capacity_for, TouchJournal, MAX_JOURNAL_CAPACITY};
use bigmap::core::sparse::{run_crossover_divisor, select_path, GIANT_REGIME_BYTES};
use bigmap::prelude::*;

const GIANT: MapSize = MapSize::M256;

fn run_giant(seed: u64, policy: HugePolicy) -> (CampaignStats, std::sync::Arc<Telemetry>) {
    with_huge_policy(policy, || {
        let spec = BenchmarkSpec::by_name("libpng").unwrap();
        let program = spec.build(0.05);
        let seeds = spec.build_seeds(&program, 8);
        let instrumentation =
            Instrumentation::assign(program.block_count(), program.call_sites, GIANT, 9);
        let interpreter = Interpreter::new(&program);
        let mut campaign = Campaign::new(
            CampaignConfig {
                scheme: MapScheme::TwoLevel,
                map_size: GIANT,
                budget: Budget::Execs(1_500),
                seed,
                sparse: Some(SparseMode::Auto),
                ..Default::default()
            },
            &interpreter,
            &instrumentation,
        );
        let tel = std::sync::Arc::new(Telemetry::new(0));
        campaign.set_telemetry(std::sync::Arc::clone(&tel));
        campaign.add_seeds(seeds);
        (campaign.run(), tel)
    })
}

#[test]
fn giant_campaign_trajectory_is_huge_policy_invariant() {
    // off and explicit are alternative *homes* for the same bytes —
    // switching the allocation backend (including an explicit request that
    // falls back on a host without hugetlb reservations) must not move a
    // single point on the coverage timeline.
    let (baseline, base_tel) = run_giant(61, HugePolicy::Off);
    assert!(baseline.execs > 0);
    // The equivalence must be telemetry-visible, not vacuous: each policy
    // attributes its map to a backend, and an explicit request either
    // lands on hugetlb pages or records the fallback.
    assert!(
        base_tel.get(TelemetryEvent::AllocPlain) >= 1,
        "off run never attributed its map to the plain backend"
    );
    let (run, tel) = run_giant(61, HugePolicy::Explicit);
    assert!(
        tel.get(TelemetryEvent::AllocExplicitHuge) + tel.get(TelemetryEvent::AllocFallback) >= 1,
        "explicit run neither served huge pages nor recorded a fallback"
    );
    assert_eq!(baseline.execs, run.execs, "exec count");
    assert_eq!(baseline.queue_len, run.queue_len, "queue");
    assert_eq!(baseline.used_len, run.used_len, "used prefix");
    assert_eq!(baseline.total_crashes, run.total_crashes, "crashes");
    assert_eq!(
        baseline.timeline.points(),
        run.timeline.points(),
        "allocation backend changed the coverage trajectory"
    );
}

#[test]
fn giant_journal_capacity_scales_with_map_size() {
    // ≤16 MiB maps keep the PR-5 default; the giant regime scales the
    // bound so realistic touch counts stop forcing the dense fallback,
    // capped so a 1 GiB map cannot demand an unbounded run vector.
    assert_eq!(capacity_for(MapSize::M2.bytes()), 1 << 16);
    assert_eq!(capacity_for(MapSize::M256.bytes()), 1 << 20);
    assert_eq!(capacity_for(MapSize::G1.bytes()), 1 << 22);
    assert_eq!(capacity_for(usize::MAX), MAX_JOURNAL_CAPACITY);

    let journal = TouchJournal::new(MapSize::M256.bytes());
    assert_eq!(journal.capacity(), 1 << 20);
    // The map itself carries the scaled bound, not the paper-size default.
    let map = BigMap::new(GIANT).unwrap();
    assert_eq!(map.journal().capacity(), 1 << 20);
}

#[test]
fn journal_run_storage_waits_for_the_first_journaled_exec() {
    // A 64 KiB map's used prefix can never reach the auto journaling
    // gate, so an auto campaign's map never journals and must hold no run
    // storage; a forced-sparse map reserves its whole bound.
    let spec = BenchmarkSpec::by_name("zlib").unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 4);
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 9);
    let interpreter = Interpreter::new(&program);
    let campaign = |sparse: Option<SparseMode>| {
        let mut executor = Executor::new(
            &interpreter,
            &instrumentation,
            bigmap::fuzzer::build_metric(MetricKind::Edge),
        );
        let mut mutator = Mutator::new(5);
        let mut virgin = VirginState::new(MapSize::K64);
        let mut map = BigMap::new(MapSize::K64).unwrap();
        map.set_sparse_override(sparse);
        for i in 0..600 {
            let child = mutator.havoc(&seeds[i % seeds.len()], None);
            map.reset();
            executor.run(&child, &mut map);
            map.classify_and_compare(&mut virgin);
        }
        assert!(map.used_key() > 0);
        map.journal().reserved()
    };
    assert_eq!(campaign(None), 0);
    assert_eq!(
        campaign(Some(SparseMode::On)),
        capacity_for(MapSize::K64.bytes())
    );
}

#[test]
fn giant_journal_overflow_policy_holds_at_giant_sizes() {
    // The PR-5 overflow contract, one regime up: overflowing a
    // giant-capacity journal sets the flag, keeps the run vector at its
    // bound, and (via select_path's completeness gate) forces the dense
    // path — an incomplete journal may never drive a sparse walk.
    let map_len = MapSize::M256.bytes();
    let mut journal = TouchJournal::with_capacity(4);
    for slot in [0u32, 1_000_000, 2_000_000, 3_000_000] {
        journal.touch(slot * 2); // every touch starts a fresh run
    }
    assert!(journal.is_complete());
    journal.touch(8_000_001);
    assert!(journal.overflowed());
    assert_eq!(journal.runs().len(), 4, "overflow must not grow the bound");
    assert_eq!(
        select_path(
            SparseMode::Auto,
            journal.is_complete(),
            journal.len(),
            journal.runs().len(),
            map_len,
        ),
        OpPath::Dense,
        "an overflowed journal must force the dense path"
    );
    // advance() re-arms the journal for the next exec.
    journal.advance();
    assert!(journal.is_complete());
}

#[test]
fn giant_regime_uses_remeasured_crossover() {
    // The dense scan's slope changes once the used prefix outgrows every
    // cache level, so the giant regime runs a re-measured (stricter)
    // divisor while small maps keep the 1 MiB calibration.
    assert!(run_crossover_divisor(GIANT_REGIME_BYTES) > run_crossover_divisor(1 << 20));
    let used = MapSize::M256.bytes();
    // The boundary is the smallest run count where `runs * divisor < used`
    // stops holding.
    let dense_runs = used.div_ceil(run_crossover_divisor(used));
    let sparse_runs = dense_runs - 1;
    assert_eq!(
        select_path(SparseMode::Auto, true, sparse_runs, sparse_runs, used),
        OpPath::Sparse
    );
    assert_eq!(
        select_path(SparseMode::Auto, true, dense_runs, dense_runs, used),
        OpPath::Dense
    );
}

#[test]
fn giant_maps_report_backend_and_stay_sound_under_every_policy() {
    // alloc_info is the telemetry source of truth: every policy must
    // yield a huge-page-aligned, fully usable map and say who served it.
    let size = MapSize::new(64 << 20).unwrap();
    for policy in [HugePolicy::Off, HugePolicy::Explicit] {
        with_huge_policy(policy, || {
            let mut map = FlatBitmap::new(size).unwrap();
            let (backend, fell_back) = map.alloc_info().expect("flat maps know their backend");
            match policy {
                HugePolicy::Off => {
                    assert_eq!(backend, AllocBackend::Plain, "off must use plain pages");
                    assert!(!fell_back);
                }
                // Host-dependent: hugetlb pages if the pool has them,
                // recorded fallback to plain pages otherwise. Both are sound.
                HugePolicy::Explicit => {
                    let huge = backend != AllocBackend::Plain;
                    assert_eq!(fell_back, !huge, "{backend}: fallback record");
                }
            }
            assert_eq!(map.as_slice().as_ptr() as usize % HUGE_PAGE_BYTES, 0);
            assert!(map.as_slice().iter().all(|&b| b == 0), "map must be zeroed");
            map.reset();
        });
    }
}
