//! End-to-end integration tests spanning every crate: target generation →
//! instrumentation → campaign → crash triage → replay coverage, plus the
//! shape of the paper's headline results at smoke scale.

use std::time::Duration;

use bigmap::prelude::*;

fn campaign_stats(
    program: &Program,
    scheme: MapScheme,
    map_size: MapSize,
    budget: Budget,
    seeds: &[Vec<u8>],
) -> CampaignStats {
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, map_size, 9);
    let interpreter = Interpreter::new(program);
    let mut campaign = Campaign::new(
        CampaignConfig {
            scheme,
            map_size,
            budget,
            ..Default::default()
        },
        &interpreter,
        &instrumentation,
    );
    campaign.add_seeds(seeds.to_vec());
    campaign.run()
}

#[test]
fn full_pipeline_on_a_table_ii_benchmark() {
    let spec = BenchmarkSpec::by_name("libpng").unwrap();
    let program = spec.build(0.1);
    let seeds = spec.build_seeds(&program, 8);
    let stats = campaign_stats(
        &program,
        MapScheme::TwoLevel,
        MapSize::M2,
        Budget::Execs(3_000),
        &seeds,
    );
    assert_eq!(stats.execs, 3_000);
    assert!(stats.queue_len > seeds.len(), "no coverage progress");
    assert!(stats.used_len > 100, "suspiciously little coverage");
    assert!(
        stats.used_len < MapSize::M2.bytes() / 10,
        "used prefix should be a small fraction of the map"
    );
}

#[test]
fn bigmap_wins_big_maps_loses_nothing_small() {
    // The paper's headline shape at smoke scale: equal-time campaigns.
    let spec = BenchmarkSpec::by_name("sqlite3").unwrap();
    let program = spec.build(0.02);
    let seeds = spec.build_seeds(&program, 8);
    let budget = Budget::Time(Duration::from_millis(700));

    let flat_8m = campaign_stats(&program, MapScheme::Flat, MapSize::M8, budget, &seeds);
    let big_8m = campaign_stats(&program, MapScheme::TwoLevel, MapSize::M8, budget, &seeds);
    assert!(
        big_8m.throughput() > 2.0 * flat_8m.throughput(),
        "8M map: BigMap {:.0}/s vs AFL {:.0}/s — expected a large win",
        big_8m.throughput(),
        flat_8m.throughput()
    );

    let flat_64k = campaign_stats(&program, MapScheme::Flat, MapSize::K64, budget, &seeds);
    let big_64k = campaign_stats(&program, MapScheme::TwoLevel, MapSize::K64, budget, &seeds);
    let ratio = big_64k.throughput() / flat_64k.throughput();
    assert!(
        ratio > 0.5,
        "64k map: BigMap should be near parity, got {ratio:.2}x"
    );
}

#[test]
fn crashes_survive_the_whole_stack() {
    // A shallow crash so the smoke budget reliably finds it; then verify
    // every reported crashing input actually crashes under replay.
    let program = ProgramBuilder::new("shallow-crash")
        .gate(0, b'C', true)
        .gate(1, b'D', false)
        .build()
        .unwrap();
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::M2, 3);
    let interpreter = Interpreter::new(&program);
    let mut campaign = Campaign::new(
        CampaignConfig {
            scheme: MapScheme::TwoLevel,
            map_size: MapSize::M2,
            budget: Budget::Execs(10_000),
            ..Default::default()
        },
        &interpreter,
        &instrumentation,
    );
    campaign.add_seeds(vec![b"seed".to_vec()]);
    let output = campaign.run_detailed();
    assert!(
        output.stats.unique_crashes >= 1,
        "the single-byte gate must be solved within 10k execs"
    );
    assert_eq!(output.crash_inputs.len(), output.stats.unique_crashes);
    for input in &output.crash_inputs {
        let outcome = interpreter.run(input, &mut bigmap::target::NullSink);
        assert!(outcome.is_crash(), "reported crash input did not reproduce");
    }
}

#[test]
fn laf_intel_improves_crash_discovery_under_feedback() {
    // A single 4-byte magic guard: havoc alone essentially cannot solve it
    // (2^32 space) but laf-intel's per-byte feedback ladder can.
    let base = ProgramBuilder::new("roadblock")
        .magic_gate(2, b"K3Y!", true)
        .build()
        .unwrap();
    let (laf, _) = apply_laf_intel(&base);
    let seeds = vec![b"some seed data here".to_vec()];
    let budget = Budget::Execs(60_000);

    let plain = campaign_stats(&base, MapScheme::TwoLevel, MapSize::K64, budget, &seeds);
    let guided = campaign_stats(&laf, MapScheme::TwoLevel, MapSize::K64, budget, &seeds);
    assert_eq!(
        plain.unique_crashes, 0,
        "blind luck through a 4-byte magic?"
    );
    assert_eq!(
        guided.unique_crashes, 1,
        "laf-intel feedback ladder should solve the magic"
    );
}

#[test]
fn auto_dictionary_solves_magic_without_laf_intel() {
    // The alternative road through a magic compare: AFL's -x dictionary.
    // Extract the target's magic strings and hand them to havoc; the
    // 4-byte roadblock becomes solvable without splitting the compare.
    let program = ProgramBuilder::new("dict-roadblock")
        .magic_gate(2, b"K3Y!", true)
        .build()
        .unwrap();
    let dictionary = program.extract_dictionary();
    assert_eq!(dictionary, vec![b"K3Y!".to_vec()]);

    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 9);
    let interpreter = Interpreter::new(&program);
    let mut campaign = Campaign::new(
        CampaignConfig {
            scheme: MapScheme::TwoLevel,
            map_size: MapSize::K64,
            budget: Budget::Execs(60_000),
            dictionary,
            ..Default::default()
        },
        &interpreter,
        &instrumentation,
    );
    campaign.add_seeds(vec![b"some seed data here".to_vec()]);
    let with_dict = campaign.run();
    assert_eq!(
        with_dict.unique_crashes, 1,
        "dictionary tokens should punch through the magic"
    );
}

#[test]
fn corpus_minimization_preserves_coverage_end_to_end() {
    let spec = BenchmarkSpec::by_name("proj4").unwrap();
    let program = spec.build(0.03);
    let seeds = spec.build_seeds(&program, 16);
    let stats = {
        let instrumentation =
            Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 9);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(
            CampaignConfig {
                scheme: MapScheme::TwoLevel,
                map_size: MapSize::K64,
                budget: Budget::Execs(5_000),
                ..Default::default()
            },
            &interp,
            &instrumentation,
        );
        campaign.add_seeds(seeds);
        campaign.run_with_corpus()
    };
    let corpus = stats.1;
    let interpreter = Interpreter::new(&program);
    let min = bigmap::fuzzer::minimize_corpus(&interpreter, &corpus);
    assert_eq!(min.edges_before, min.edges_after);
    assert!(min.kept.len() <= corpus.len());
    // Replay check: the minimized corpus covers the same structural edges.
    let extracted = min.extract(&corpus);
    assert_eq!(
        replay_edge_coverage(&interpreter, &extracted),
        replay_edge_coverage(&interpreter, &corpus),
    );
}

#[test]
fn replay_coverage_is_scheme_independent() {
    // The bias-free coverage measure must not depend on which map scheme
    // generated the corpus when both make identical decisions (same seeds).
    let spec = BenchmarkSpec::by_name("proj4").unwrap();
    let program = spec.build(0.03);
    let seeds = spec.build_seeds(&program, 8);
    let interpreter = Interpreter::new(&program);

    let run = |scheme| {
        let instrumentation =
            Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 9);
        let interp = Interpreter::new(&program);
        let mut campaign = Campaign::new(
            CampaignConfig {
                scheme,
                map_size: MapSize::K64,
                budget: Budget::Execs(4_000),
                ..Default::default()
            },
            &interp,
            &instrumentation,
        );
        campaign.add_seeds(seeds.clone());
        let (_, corpus) = campaign.run_with_corpus();
        corpus
    };
    let flat_corpus = run(MapScheme::Flat);
    let big_corpus = run(MapScheme::TwoLevel);
    // Queue scheduling keys on measured execution times, so the two
    // campaigns' exact corpora can drift on timing noise; structural
    // coverage must still land in the same neighbourhood.
    let flat_cov = replay_edge_coverage(&interpreter, &flat_corpus) as f64;
    let big_cov = replay_edge_coverage(&interpreter, &big_corpus) as f64;
    assert!(
        (flat_cov - big_cov).abs() <= 0.15 * flat_cov.max(big_cov) + 10.0,
        "structural coverage diverged: {flat_cov} vs {big_cov}"
    );
}

#[test]
fn parallel_fleet_beats_single_instance() {
    let spec = BenchmarkSpec::by_name("gvn").unwrap();
    let program = spec.build(0.015);
    let seeds = spec.build_seeds(&program, 8);
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::M2, 5);
    let config = CampaignConfig {
        scheme: MapScheme::TwoLevel,
        map_size: MapSize::M2,
        budget: Budget::Time(Duration::from_millis(600)),
        ..Default::default()
    };
    let fleet = |instances| {
        let instance = Instance {
            program: &program,
            instrumentation: &instrumentation,
            config: &config,
            seeds: &seeds,
            options: InstanceOptions {
                sync_every: 2_000,
                ..InstanceOptions::default()
            },
        };
        let config = FleetConfig {
            instances,
            ..FleetConfig::default()
        };
        run_fleet(&config, Transport::Threads(instance))
    };
    let one = fleet(1);
    let four = fleet(4);
    assert_eq!(four.instances.len(), 4);
    // Wall-clock scaling depends on physical core count (a single-core
    // host time-shares the instances), so the portable assertion is that
    // the fleet loses at most modest overhead to contention and syncing.
    assert!(
        four.total_execs() as f64 > 0.5 * one.total_execs() as f64,
        "fleet collapsed: {} vs {}",
        four.total_execs(),
        one.total_execs()
    );
    // Every instance makes progress and the sync hub spread finds around:
    // all four queues must exceed the seed corpus.
    for inst in &four.instances {
        assert!(inst.queue_len > 8, "an instance made no progress");
    }
}

#[test]
fn context_metric_composes_with_bigmap_end_to_end() {
    let program = GeneratorConfig {
        seed: 77,
        functions: 8,
        ..Default::default()
    }
    .generate();
    let seeds = vec![vec![0u8; 32]];
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::M2, 2);
    let interpreter = Interpreter::new(&program);
    for metric in [
        MetricKind::Edge,
        MetricKind::ContextSensitive,
        MetricKind::NGram(3),
    ] {
        let mut campaign = Campaign::new(
            CampaignConfig {
                scheme: MapScheme::TwoLevel,
                map_size: MapSize::M2,
                metric,
                budget: Budget::Execs(1_500),
                ..Default::default()
            },
            &interpreter,
            &instrumentation,
        );
        campaign.add_seeds(seeds.clone());
        let stats = campaign.run();
        assert!(stats.used_len > 0, "{metric:?} recorded nothing");
    }
}

#[test]
fn trim_stage_yields_shorter_queue_entries() {
    // Same campaign with and without trimming: the trimmed queue's average
    // entry length must not exceed the untrimmed one's.
    let program = ProgramBuilder::new("trim-target")
        .gate(0, b'T', false)
        .gate(1, b'R', false)
        .build()
        .unwrap();
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 4);
    let interpreter = Interpreter::new(&program);
    let run = |trim: bool| {
        let mut campaign = Campaign::new(
            CampaignConfig {
                scheme: MapScheme::TwoLevel,
                map_size: MapSize::K64,
                budget: Budget::Execs(3_000),
                trim_new_entries: trim,
                ..Default::default()
            },
            &interpreter,
            &instrumentation,
        );
        campaign.add_seeds(vec![vec![0xAB; 600]]);
        let (_, corpus) = campaign.run_with_corpus();
        corpus.iter().map(Vec::len).sum::<usize>() as f64 / corpus.len().max(1) as f64
    };
    let untrimmed = run(false);
    let trimmed = run(true);
    assert!(
        trimmed < untrimmed * 0.8,
        "trimming should shorten entries: {trimmed:.0} vs {untrimmed:.0} avg bytes"
    );
}
