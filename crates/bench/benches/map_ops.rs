//! Criterion micro-benchmarks for the map operations and the §IV-E
//! ablations called out in DESIGN.md:
//!
//! * per-operation cost of both structures across map sizes (the
//!   microscopic version of Figure 3),
//! * two-level update overhead at 64 kB (the paper's 0.98x claim),
//! * merged classify+compare vs split (§IV-E, ~2x on the pair),
//! * non-temporal vs standard reset (§IV-E),
//! * hash cost: watermark rule, ~2% density, and the no-zero-block worst
//!   case of zero-run skipping against the bytewise CRC32.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bigmap_core::alloc::MapBuffer;
use bigmap_core::simd::stream_zero;
use bigmap_core::{BigMap, CoverageMap, Crc32, FlatBitmap, MapSize, Recorder, VirginState};

/// Active keys resembling a mid-size benchmark (~10k discovered edges).
fn active_keys(n: usize, map: MapSize) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(7);
    (0..n)
        .map(|_| rng.gen_range(0..map.bytes() as u32))
        .collect()
}

/// One execution's worth of key events (heavy repetition, like real edges).
fn exec_events(keys: &[u32], events: usize) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(13);
    (0..events)
        .map(|_| keys[rng.gen_range(0..keys.len())])
        .collect()
}

/// One execution's events into a flat map through the concrete
/// `record`, as the executor's statically dispatched sink calls it.
fn populate_flat(map: &mut FlatBitmap, events: &[u32]) {
    for &k in events {
        map.record(k);
    }
}

/// One execution's events into a BigMap the way the executor records
/// them: [`BigMap::recorder`] once, then its `record` per event.
fn populate_bigmap(map: &mut BigMap, events: &[u32]) {
    match map.recorder() {
        Recorder::Plain(mut r) => events.iter().for_each(|&k| r.record(k)),
        Recorder::Journaled(mut r) => events.iter().for_each(|&k| r.record(k)),
    }
}

fn bench_ops_across_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_per_testcase");
    for size in [MapSize::K64, MapSize::K256, MapSize::M2, MapSize::M8] {
        let keys = active_keys(10_000, size);
        let events = exec_events(&keys, 5_000);
        group.throughput(Throughput::Elements(1));

        group.bench_with_input(BenchmarkId::new("flat", size.label()), &size, |b, &size| {
            let mut map = FlatBitmap::new(size).unwrap();
            let mut virgin = VirginState::new(size);
            b.iter(|| {
                map.reset();
                populate_flat(&mut map, &events);
                let verdict = map.classify_and_compare(&mut virgin);
                if verdict.is_interesting() {
                    std::hint::black_box(map.hash());
                }
            });
        });
        group.bench_with_input(
            BenchmarkId::new("bigmap", size.label()),
            &size,
            |b, &size| {
                let mut map = BigMap::new(size).unwrap();
                let mut virgin = VirginState::new(size);
                b.iter(|| {
                    map.reset();
                    populate_bigmap(&mut map, &events);
                    let verdict = map.classify_and_compare(&mut virgin);
                    if verdict.is_interesting() {
                        std::hint::black_box(map.hash());
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_update_overhead(c: &mut Criterion) {
    // DESIGN.md ablation 1: the extra indirection on the hot update path.
    let mut group = c.benchmark_group("update_overhead_64k");
    let keys = active_keys(40_000, MapSize::K64); // dense: worst case
    let events = exec_events(&keys, 10_000);
    group.throughput(Throughput::Elements(events.len() as u64));

    group.bench_function("flat", |b| {
        let mut map = FlatBitmap::new(MapSize::K64).unwrap();
        b.iter(|| populate_flat(&mut map, &events));
    });
    group.bench_function("bigmap", |b| {
        let mut map = BigMap::new(MapSize::K64).unwrap();
        // Pre-discover all keys so the steady-state (sentinel check
        // predicted not-taken) is what gets measured.
        populate_bigmap(&mut map, &keys);
        b.iter(|| populate_bigmap(&mut map, &events));
    });
    group.finish();
}

fn bench_classify_compare_merged_vs_split(c: &mut Criterion) {
    // DESIGN.md ablation 2.
    let mut group = c.benchmark_group("classify_compare_2M");
    let size = MapSize::M2;
    let keys = active_keys(10_000, size);
    let events = exec_events(&keys, 5_000);

    group.bench_function("split", |b| {
        let mut map = FlatBitmap::new(size).unwrap();
        let mut virgin = VirginState::new(size);
        populate_flat(&mut map, &events);
        b.iter(|| {
            map.classify();
            std::hint::black_box(map.compare(&mut virgin));
        });
    });
    group.bench_function("merged", |b| {
        let mut map = FlatBitmap::new(size).unwrap();
        let mut virgin = VirginState::new(size);
        populate_flat(&mut map, &events);
        b.iter(|| {
            std::hint::black_box(map.classify_and_compare(&mut virgin));
        });
    });
    group.finish();
}

fn bench_reset_nontemporal(c: &mut Criterion) {
    // DESIGN.md ablation 3: cache-polluting vs streaming reset of a whole
    // flat map's buffer.
    let mut group = c.benchmark_group("reset_8M");
    let mut buf: MapBuffer<u8> = MapBuffer::zeroed(MapSize::M8.bytes());
    group.bench_function("standard", |b| b.iter(|| buf.fill(0)));
    group.bench_function("nontemporal", |b| b.iter(|| stream_zero(&mut buf)));
    // BigMap's reset for contrast: used-prefix only.
    group.bench_function("bigmap_prefix", |b| {
        let mut map = BigMap::new(MapSize::M8).unwrap();
        let keys = active_keys(10_000, MapSize::M8);
        populate_bigmap(&mut map, &keys);
        b.iter(|| map.reset());
    });
    group.finish();
}

fn bench_hash_watermark(c: &mut Criterion) {
    // DESIGN.md ablation 4: hash cost under the two rules.
    let mut group = c.benchmark_group("hash_8M");
    group.bench_function("flat_full_map", |b| {
        let mut map = FlatBitmap::new(MapSize::M8).unwrap();
        map.record(123);
        b.iter(|| std::hint::black_box(map.hash()));
    });
    group.bench_function("flat_2pct_density", |b| {
        let mut map = FlatBitmap::new(MapSize::M8).unwrap();
        populate_flat(
            &mut map,
            &active_keys(MapSize::M8.bytes() / 50, MapSize::M8),
        );
        b.iter(|| std::hint::black_box(map.hash()));
    });
    group.bench_function("bigmap_watermark", |b| {
        let mut map = BigMap::new(MapSize::M8).unwrap();
        let keys = active_keys(10_000, MapSize::M8);
        populate_bigmap(&mut map, &keys);
        b.iter(|| std::hint::black_box(map.hash()));
    });
    // Worst case for zero-run skipping: no all-zero block at all. The
    // block loop must not lose to the bytewise table loop here.
    let full: Vec<u8> = (0..MapSize::M8.bytes())
        .map(|i| (i % 255) as u8 + 1)
        .collect();
    group.bench_function("no_zero_blocks", |b| {
        b.iter(|| std::hint::black_box(Crc32::checksum(&full)));
    });
    group.bench_function("no_zero_blocks_bytewise", |b| {
        b.iter(|| std::hint::black_box(bytewise_crc32(&full)));
    });
    group.finish();
}

/// The byte-at-a-time table CRC32 the block loop replaced, for comparison.
fn bytewise_crc32(data: &[u8]) -> u32 {
    let table: [u32; 256] = std::array::from_fn(|i| {
        (0..8).fold(i as u32, |crc, _| {
            (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg())
        })
    });
    let crc = data.iter().fold(0xFFFF_FFFF, |crc: u32, &byte| {
        (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize]
    });
    crc ^ 0xFFFF_FFFF
}

fn bench_index_sentinel_check(c: &mut Criterion) {
    // DESIGN.md ablation 5: steady-state vs discovery-heavy updates.
    let mut group = c.benchmark_group("index_sentinel_2M");
    let keys = active_keys(50_000, MapSize::M2);
    group.throughput(Throughput::Elements(keys.len() as u64));

    group.bench_function("steady_state_hits", |b| {
        let mut map = BigMap::new(MapSize::M2).unwrap();
        populate_bigmap(&mut map, &keys); // all discovered
        b.iter(|| populate_bigmap(&mut map, &keys));
    });
    group.bench_function("cold_discovery", |b| {
        b.iter_batched(
            || BigMap::new(MapSize::M2).unwrap(),
            |mut map| populate_bigmap(&mut map, &keys),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets =
        bench_ops_across_sizes,
        bench_update_overhead,
        bench_classify_compare_merged_vs_split,
        bench_reset_nontemporal,
        bench_hash_watermark,
        bench_index_sentinel_check
}
criterion_main!(benches);
