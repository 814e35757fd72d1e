//! Regression tests for the parallel sync protocol and its telemetry.
//!
//! Guards the sync-hub bugfixes: instances must never re-import their own
//! publications (the stale-cursor bug made every instance churn through
//! its own finds each sync period), cursors must advance monotonically,
//! and the hub must stay correct under concurrent publish/fetch traffic.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bigmap::fuzzer::{parse_jsonl, SharedBuffer};
use bigmap::prelude::*;

fn fleet_fixture() -> (Program, Instrumentation, Vec<Vec<u8>>) {
    let spec = BenchmarkSpec::by_name("gvn").unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 4);
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::M2, 7);
    (program, instrumentation, seeds)
}

fn fleet_config() -> CampaignConfig {
    CampaignConfig {
        scheme: MapScheme::TwoLevel,
        map_size: MapSize::M2,
        budget: Budget::Time(Duration::from_millis(200)),
        ..Default::default()
    }
}

/// Runs a thread fleet of `instances` over the gvn fixture, syncing every
/// 500 execs.
fn run_thread_fleet(instances: usize, telemetry: Option<JsonlSink>) -> FleetStats {
    let (program, instrumentation, seeds) = fleet_fixture();
    let config = fleet_config();
    let instance = Instance {
        program: &program,
        instrumentation: &instrumentation,
        config: &config,
        seeds: &seeds,
        options: InstanceOptions {
            sync_every: 500,
            ..InstanceOptions::default()
        },
    };
    let fleet = FleetConfig {
        instances,
        telemetry,
        ..FleetConfig::default()
    };
    run_fleet(&fleet, Transport::Threads(instance))
}

/// The hub under test: the default striping and a single stripe.
fn hubs() -> [ShardedHub; 2] {
    [ShardedHub::new(), ShardedHub::with_shards(1)]
}

/// The headline regression: a single-instance "fleet" has nobody to trade
/// inputs with, so after the self-reimport fix its telemetry must show
/// zero sync imports (before the fix it re-imported every one of its own
/// finds each sync period).
#[test]
fn single_instance_fleet_never_imports_its_own_finds() {
    let stats = run_thread_fleet(1, None);
    assert!(stats.total_execs() > 0);
    let totals = stats.telemetry;
    assert_eq!(
        totals.get(TelemetryEvent::SyncImport),
        0,
        "a lone instance re-imported its own publications"
    );
    assert_eq!(totals.get(TelemetryEvent::ImportRejection), 0);
}

/// A two-instance fleet exercises real sync traffic: publications flow and
/// every emitted snapshot parses back from the JSONL sink.
#[test]
fn two_instance_fleet_syncs_and_snapshots_parse() {
    let buffer = SharedBuffer::new();
    let stats = run_thread_fleet(2, Some(JsonlSink::new(Box::new(buffer.clone()))));
    assert!(stats.total_execs() > 0);
    let totals = stats.telemetry;
    assert!(
        totals.get(TelemetryEvent::SyncPublish) > 0,
        "two busy instances published nothing"
    );

    let text = buffer.contents();
    let snapshots = parse_jsonl(&text).expect("sink emitted malformed JSONL");
    assert!(!snapshots.is_empty());
    let instances: HashSet<usize> = snapshots.iter().map(|s| s.instance).collect();
    assert_eq!(instances, HashSet::from([0, 1]));
}

/// `fetch_since` always advances the cursor to the corpus length — never
/// backwards — so repeated sync rounds see each entry exactly once.
#[test]
fn hub_cursors_are_monotone_and_exactly_once() {
    for hub in hubs() {
        let mut cursor = 0u64;
        let mut seen = Vec::new();
        for round in 0u8..5 {
            hub.publish(1, vec![vec![round], vec![round, round]]);
            let before = cursor;
            let fetched = hub.fetch_since(&mut cursor, 0).expect("valid cursor");
            assert!(cursor >= before, "cursor moved backwards");
            assert_eq!(cursor, hub.published_count());
            seen.extend(fetched.iter().map(|a| a.to_vec()));
        }
        // 5 rounds × 2 inputs, each seen exactly once and in publish order.
        let expected: Vec<Vec<u8>> = (0u8..5).flat_map(|r| [vec![r], vec![r, r]]).collect();
        assert_eq!(seen, expected);
        // Nothing new → nothing fetched, cursor stays put.
        assert!(hub
            .fetch_since(&mut cursor, 0)
            .expect("valid cursor")
            .is_empty());
        assert_eq!(cursor, hub.published_count());
    }
}

/// Concurrent publish/fetch stress: every reader eventually sees every
/// other publisher's entries exactly once, and never one of its own.
#[test]
fn hub_stress_readers_see_others_exactly_once_and_self_never() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 64;

    for hub in hubs() {
        let hub = Arc::new(hub);
        let all_published = Arc::new(std::sync::Barrier::new(WRITERS));
        thread::scope(|scope| {
            let mut readers = Vec::new();
            for me in 0..WRITERS {
                let hub = Arc::clone(&hub);
                let all_published = Arc::clone(&all_published);
                readers.push(scope.spawn(move || {
                    let mut cursor = 0u64;
                    let mut seen: Vec<Vec<u8>> = Vec::new();
                    // Interleave publishing our own tagged inputs with
                    // fetching.
                    for i in 0..PER_WRITER {
                        hub.publish(me, vec![vec![me as u8, i as u8]]);
                        for input in hub.fetch_since(&mut cursor, me).expect("valid cursor") {
                            seen.push(input.to_vec());
                        }
                    }
                    // Wait for every writer to finish, then drain the rest.
                    all_published.wait();
                    for input in hub.fetch_since(&mut cursor, me).expect("valid cursor") {
                        seen.push(input.to_vec());
                    }
                    (me, seen)
                }));
            }
            for reader in readers {
                let (me, seen) = reader.join().unwrap();
                assert!(
                    seen.iter().all(|input| input[0] != me as u8),
                    "reader {me} fetched one of its own publications"
                );
                let unique: HashSet<&Vec<u8>> = seen.iter().collect();
                assert_eq!(unique.len(), seen.len(), "reader {me} saw a duplicate");
                assert_eq!(
                    seen.len(),
                    (WRITERS - 1) * PER_WRITER,
                    "reader {me} missed entries from other writers"
                );
            }
        });
    }
}

/// Fetches share the stored payload allocation instead of deep-copying it
/// for every reader (the per-fetch clone bug).
#[test]
fn hub_fetches_share_payload_allocations() {
    for hub in hubs() {
        hub.publish(9, vec![vec![0xAB; 4096]]);
        let (mut c0, mut c1) = (0u64, 0u64);
        let a = hub.fetch_since(&mut c0, 0).expect("valid cursor");
        let b = hub.fetch_since(&mut c1, 1).expect("valid cursor");
        assert!(
            Arc::ptr_eq(&a[0], &b[0]),
            "readers received distinct copies of the same published input"
        );
    }
}
