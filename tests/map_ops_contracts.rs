//! Contract tests for the `CoverageMap` trait: properties every
//! implementation must satisfy, run against both schemes through the same
//! generic driver (the trait-object path the fuzzer actually uses).

use bigmap::core::{build_map, MapScheme, MapSize, NewCoverage, VirginState};
use proptest::prelude::*;

fn schemes() -> [MapScheme; 2] {
    [MapScheme::Flat, MapScheme::TwoLevel]
}

#[test]
fn fresh_map_is_empty_by_every_observable() {
    for scheme in schemes() {
        let map = build_map(scheme, MapSize::K64);
        assert_eq!(map.count_nonzero(), 0, "{scheme}");
        assert!(map.active_region().iter().all(|&b| b == 0));
        let mut visited = 0;
        map.for_each_nonzero(&mut |_, _| visited += 1);
        assert_eq!(visited, 0);
        assert_eq!(map.value_of_key(12345), 0);
        assert_eq!(map.scheme(), scheme);
        assert_eq!(map.map_size(), MapSize::K64);
    }
}

#[test]
fn record_then_reset_restores_emptiness() {
    for scheme in schemes() {
        let mut map = build_map(scheme, MapSize::K64);
        for k in 0..500u32 {
            map.record(k.wrapping_mul(2654435761));
        }
        assert!(map.count_nonzero() > 0);
        map.reset();
        assert_eq!(map.count_nonzero(), 0, "{scheme}");
        assert!(map.active_region().iter().all(|&b| b == 0));
    }
}

#[test]
fn for_each_nonzero_agrees_with_count_and_region() {
    for scheme in schemes() {
        let mut map = build_map(scheme, MapSize::K64);
        for k in [3u32, 3, 99, 60_001, 60_001, 60_001] {
            map.record(k);
        }
        let mut pairs = Vec::new();
        map.for_each_nonzero(&mut |slot, v| pairs.push((slot, v)));
        assert_eq!(pairs.len(), map.count_nonzero(), "{scheme}");
        for (slot, v) in pairs {
            assert_eq!(map.active_region()[slot], v);
        }
    }
}

/// CRC32 (IEEE, reflected) one byte at a time: the definition the map
/// hash must keep reproducing, whatever its inner loop does.
fn bytewise_crc32(data: &[u8]) -> u32 {
    let table: Vec<u32> = (0..256u32)
        .map(|i| (0..8).fold(i, |c, _| (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg())))
        .collect();
    !data.iter().fold(!0u32, |c, &b| {
        (c >> 8) ^ table[((c ^ b as u32) & 0xFF) as usize]
    })
}

#[test]
fn hash_and_scan_match_bytewise_references() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    for scheme in schemes() {
        for size in [MapSize::K64, MapSize::M2, MapSize::M8] {
            for (seed, keys) in [0usize, 37, 1500].into_iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(seed as u64 ^ size.bytes() as u64);
                let mut map = build_map(scheme, size);
                for _ in 0..keys {
                    let key = rng.gen_range(0..size.bytes() as u32);
                    for _ in 0..rng.gen_range(1..4) {
                        map.record(key);
                    }
                }
                let region = map.active_region();
                // Flat hashes the whole map; the two-level map hashes its
                // used prefix up to the last non-zero byte (§IV-D).
                let hashed = match scheme {
                    MapScheme::Flat => region,
                    MapScheme::TwoLevel => {
                        &region[..region.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1)]
                    }
                };
                let label = format!("{scheme} {} keys={keys}", size.label());
                assert_eq!(map.hash(), bytewise_crc32(hashed), "{label}");

                let mut scanned = Vec::new();
                map.for_each_nonzero(&mut |slot, v| scanned.push((slot, v)));
                let walked: Vec<(usize, u8)> = region
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b != 0)
                    .map(|(i, &b)| (i, b))
                    .collect();
                assert_eq!(scanned, walked, "{label}");
                assert_eq!(map.count_nonzero(), walked.len(), "{label}");
            }
        }
    }
}

#[test]
fn compare_is_monotone_none_after_exhaustion() {
    // Once a (slot, bucket) combination is folded into virgin, replaying
    // the identical execution must be None — for both schemes, via the
    // trait-object path.
    for scheme in schemes() {
        let mut map = build_map(scheme, MapSize::K64);
        let mut virgin = VirginState::new(MapSize::K64);
        let keys: Vec<u32> = (0..100).map(|i| i * 31).collect();

        for round in 0..3 {
            map.reset();
            for &k in &keys {
                map.record(k);
            }
            let verdict = map.classify_and_compare(&mut virgin);
            if round == 0 {
                assert_eq!(verdict, NewCoverage::NewEdge, "{scheme}");
            } else {
                assert_eq!(verdict, NewCoverage::None, "{scheme} round {round}");
            }
        }
    }
}

#[test]
fn hash_is_a_pure_function_of_the_recorded_multiset() {
    for scheme in schemes() {
        let run = |keys: &[u32]| {
            let mut map = build_map(scheme, MapSize::K64);
            for &k in keys {
                map.record(k);
            }
            map.classify();
            map.hash()
        };
        let a = run(&[1, 2, 3, 2]);
        let b = run(&[1, 2, 3, 2]);
        assert_eq!(a, b, "{scheme}: same events, same hash");
        let c = run(&[1, 2, 3, 3]);
        assert_ne!(a, c, "{scheme}: different counts, different hash");
    }
}

#[test]
fn sparse_path_preserves_hash_semantics_across_all_virgin_maps() {
    // Regression test for the sparse journal pipeline: the campaign routes
    // each exec's classified map to one of THREE virgin maps by outcome
    // (Ok → coverage, Crash → crash, Hang → hang) and hashes interesting
    // maps with the hash-up-to-last-nonzero rule. Forcing the sparse path
    // must leave every verdict, every hash, and all three virgin states
    // bit-identical to the dense path — including re-compares against
    // partially-warmed virgin maps, where a stale byte left behind by an
    // incorrect sparse reset would flip a verdict or move the hash's
    // last-nonzero boundary.
    use bigmap::core::SparseMode;

    // Deterministic exec stream cycling through the three outcome classes,
    // with overlapping key sets so later execs hit both virgin and
    // already-seen slots.
    let execs: Vec<(Vec<u32>, usize)> = (0..24)
        .map(|i| {
            let keys: Vec<u32> = (0..20 + (i as u32) * 7)
                .map(|j| (i as u32 / 3).wrapping_mul(2654435761).wrapping_add(j * 31))
                .collect();
            (keys, i % 3)
        })
        .collect();

    let run = |mode: SparseMode| {
        let mut map = build_map(MapScheme::TwoLevel, MapSize::K64);
        map.set_sparse_override(Some(mode));
        let mut virgins = [MapSize::K64, MapSize::K64, MapSize::K64].map(VirginState::new);
        let mut log = Vec::new();
        for (keys, class) in &execs {
            map.reset();
            for &k in keys {
                map.record(k);
            }
            let verdict = map.classify_and_compare(&mut virgins[*class]);
            log.push((verdict, map.hash()));
        }
        (log, virgins.map(|v| v.as_slice().to_vec()))
    };

    let (dense_log, dense_virgins) = run(SparseMode::Off);
    let (sparse_log, sparse_virgins) = run(SparseMode::On);

    // The stream must actually exercise all three maps with new coverage.
    for class in 0..3 {
        assert!(
            execs
                .iter()
                .zip(&dense_log)
                .any(|((_, c), (v, _))| *c == class && *v == NewCoverage::NewEdge),
            "class {class} never saw new coverage — test stream is too weak"
        );
    }

    for (i, (dense, sparse)) in dense_log.iter().zip(&sparse_log).enumerate() {
        assert_eq!(dense.0, sparse.0, "exec {i}: verdict diverged");
        assert_eq!(dense.1, sparse.1, "exec {i}: hash_to_last_nonzero diverged");
    }
    for (class, (d, s)) in dense_virgins.iter().zip(&sparse_virgins).enumerate() {
        assert_eq!(d, s, "virgin map {class} diverged after the full stream");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn value_of_key_matches_fold_counts(
        keys in prop::collection::vec(0u32..10_000, 0..300),
    ) {
        for scheme in schemes() {
            let mut map = build_map(scheme, MapSize::K64);
            let mut reference = std::collections::HashMap::<u32, u32>::new();
            for &k in &keys {
                map.record(k);
                *reference.entry(k & MapSize::K64.mask()).or_default() += 1;
            }
            for (&folded, &count) in &reference {
                prop_assert_eq!(
                    map.value_of_key(folded) as u32,
                    count.min(255),
                    "{} key {}", scheme, folded
                );
            }
        }
    }

    #[test]
    fn interestingness_requires_change(
        keys in prop::collection::vec(any::<u32>(), 1..200),
    ) {
        // Replaying a corpus against a virgin state that already absorbed
        // it can never be interesting — for any scheme and any key stream.
        for scheme in schemes() {
            let mut map = build_map(scheme, MapSize::K64);
            let mut virgin = VirginState::new(MapSize::K64);
            map.reset();
            for &k in &keys {
                map.record(k);
            }
            map.classify_and_compare(&mut virgin);

            map.reset();
            for &k in &keys {
                map.record(k);
            }
            let verdict = map.classify_and_compare(&mut virgin);
            prop_assert_eq!(verdict, NewCoverage::None, "{}", scheme);
        }
    }
}
