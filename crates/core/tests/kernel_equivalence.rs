//! Kernel-equivalence property suite: every vector kernel the host can run
//! must be byte-identical to the scalar oracle (`bigmap_core::diff` /
//! `bigmap_core::classify`) on arbitrary region contents, lengths 0–8192,
//! and all 8 alignment offsets of both operands. Compare and fused also
//! run on sparse regions, whose all-zero 128-byte groups the vector
//! kernels skip without reading virgin.
//!
//! The per-kind loops below cover every kernel the CPU supports, whatever
//! `kernels::active()` resolved to. CI also reruns this file with AVX2
//! codegen flags, so the scalar oracle itself autovectorizes.

use bigmap_core::classify::classify_slice;
use bigmap_core::diff::{classify_and_compare_region, compare_region};
use bigmap_core::kernels::{available, table_for};
use bigmap_core::NewCoverage;
use proptest::prelude::*;

/// Max region length exercised by the properties (ISSUE spec: 0–8192).
const MAX_LEN: usize = 8192;

/// Builds an offset view: a buffer with `off` bytes of 0xA5 padding before
/// the `len` payload bytes, so the payload slice starts at alignment phase
/// `off` (mod 8, and mod vector width).
fn offset_buf(payload: &[u8], off: usize) -> Vec<u8> {
    let mut buf = vec![0xA5u8; off + payload.len() + 8];
    buf[off..off + payload.len()].copy_from_slice(payload);
    buf
}

/// Virgin contents mixing realistic states: fully-virgin 0xFF bytes,
/// partially-cleared buckets, and fully-cleared zeros, derived
/// deterministically from a random seed vector.
fn virgin_from_seed(seed: &[u8]) -> Vec<u8> {
    seed.iter()
        .map(|&s| match s % 4 {
            0 | 1 => 0xFF,          // never seen (the NewEdge case)
            2 => !(1u8 << (s % 8)), // some buckets cleared
            _ => s,                 // arbitrary residue
        })
        .collect()
}

/// Width of the vector kernels' all-zero group test: four 32-byte blocks.
const GROUP: usize = 128;

/// Sparse raw payloads for the all-zero group skip, which `any::<u8>()`
/// payloads almost never reach: 0–8192 bytes holding 0–8 non-zero bytes.
/// Most sit one byte before, on, or one byte after a 128-byte group
/// boundary of the payload, so the zero runs between them end on either
/// side of a boundary; the rest land anywhere.
fn sparse_payload() -> impl Strategy<Value = Vec<u8>> {
    let mark = (0..MAX_LEN / GROUP + 1, 0usize..4, any::<usize>(), 1u8..=255);
    (0..MAX_LEN + 1, prop::collection::vec(mark, 0..9)).prop_map(|(len, marks)| {
        let mut payload = vec![0u8; len];
        for (group, place, anywhere, value) in marks {
            let boundary = group % (len / GROUP + 1) * GROUP;
            let at = match place {
                0 => boundary.wrapping_sub(1),
                1 => boundary,
                2 => boundary + 1,
                _ => anywhere % len.max(1),
            };
            if let Some(b) = payload.get_mut(at) {
                *b = value;
            }
        }
        payload
    })
}

/// Asserts every kernel's `compare` of the classified `cur` against
/// `virgin`, at alignment phases `cur_off` and `vir_off`, matches the
/// scalar oracle's verdict and virgin bytes.
fn assert_compare_matches_oracle(cur: &[u8], virgin: &[u8], cur_off: usize, vir_off: usize) {
    let n = cur.len();
    let mut oracle_virgin = virgin.to_vec();
    let oracle = compare_region(cur, &mut oracle_virgin);
    for kind in available() {
        let cur_buf = offset_buf(cur, cur_off);
        let mut vir_buf = offset_buf(virgin, vir_off);
        let got = table_for(kind).unwrap().compare(
            &cur_buf[cur_off..cur_off + n],
            &mut vir_buf[vir_off..vir_off + n],
        );
        assert_eq!(
            got, oracle,
            "{kind} compare verdict diverged at offsets ({cur_off},{vir_off})"
        );
        assert_eq!(
            &vir_buf[vir_off..vir_off + n],
            &oracle_virgin[..],
            "{kind} compare virgin bytes diverged at offsets ({cur_off},{vir_off})"
        );
        assert_padding_intact(&vir_buf, vir_off, n, kind.label());
    }
}

/// Asserts every kernel's fused classify+compare of the raw counts `raw`
/// against `virgin`, at alignment phases `cur_off` and `vir_off`, matches
/// the scalar oracle's verdict, classified bytes and virgin bytes.
fn assert_fused_matches_oracle(raw: &[u8], virgin: &[u8], cur_off: usize, vir_off: usize) {
    let n = raw.len();
    let mut oracle_cur = raw.to_vec();
    let mut oracle_virgin = virgin.to_vec();
    let oracle = classify_and_compare_region(&mut oracle_cur, &mut oracle_virgin);
    for kind in available() {
        let mut cur_buf = offset_buf(raw, cur_off);
        let mut vir_buf = offset_buf(virgin, vir_off);
        let got = table_for(kind).unwrap().classify_and_compare(
            &mut cur_buf[cur_off..cur_off + n],
            &mut vir_buf[vir_off..vir_off + n],
        );
        assert_eq!(
            got, oracle,
            "{kind} fused verdict diverged at offsets ({cur_off},{vir_off})"
        );
        assert_eq!(
            &cur_buf[cur_off..cur_off + n],
            &oracle_cur[..],
            "{kind} fused classified bytes diverged at offsets ({cur_off},{vir_off})"
        );
        assert_eq!(
            &vir_buf[vir_off..vir_off + n],
            &oracle_virgin[..],
            "{kind} fused virgin bytes diverged at offsets ({cur_off},{vir_off})"
        );
        assert_padding_intact(&cur_buf, cur_off, n, kind.label());
        assert_padding_intact(&vir_buf, vir_off, n, kind.label());
    }
}

/// Asserts padding bytes around an offset view were never touched.
fn assert_padding_intact(buf: &[u8], off: usize, len: usize, what: &str) {
    assert!(
        buf[..off].iter().all(|&b| b == 0xA5),
        "{what}: head padding clobbered at offset {off}"
    );
    assert!(
        buf[off + len..].iter().all(|&b| b == 0xA5),
        "{what}: tail padding clobbered at offset {off}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn classify_matches_scalar_oracle(
        payload in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        off in 0usize..8,
    ) {
        let mut expect = payload.clone();
        classify_slice(&mut expect);
        for kind in available() {
            let mut buf = offset_buf(&payload, off);
            table_for(kind).unwrap().classify(&mut buf[off..off + payload.len()]);
            prop_assert_eq!(
                &buf[off..off + payload.len()],
                &expect[..],
                "{} classify diverged at offset {}", kind, off
            );
            assert_padding_intact(&buf, off, payload.len(), kind.label());
        }
    }

    #[test]
    fn compare_matches_scalar_oracle(
        payload in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        virgin_seed in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        cur_off in 0usize..8,
        vir_off in 0usize..8,
    ) {
        let n = payload.len().min(virgin_seed.len());
        // `compare` runs on already-classified data in the real pipeline.
        let mut cur = payload[..n].to_vec();
        classify_slice(&mut cur);
        let virgin = virgin_from_seed(&virgin_seed[..n]);
        assert_compare_matches_oracle(&cur, &virgin, cur_off, vir_off);
    }

    #[test]
    fn fused_matches_scalar_oracle(
        payload in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        virgin_seed in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        cur_off in 0usize..8,
        vir_off in 0usize..8,
    ) {
        let n = payload.len().min(virgin_seed.len());
        let virgin = virgin_from_seed(&virgin_seed[..n]);
        assert_fused_matches_oracle(&payload[..n], &virgin, cur_off, vir_off);
    }

    #[test]
    fn fused_equals_split_through_any_kernel(
        payload in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
        virgin_seed in prop::collection::vec(any::<u8>(), 0..MAX_LEN),
    ) {
        // The §IV-E merge must stay observationally identical to
        // classify-then-compare *within* each kernel too.
        let n = payload.len().min(virgin_seed.len());
        let raw = &payload[..n];
        let virgin = virgin_from_seed(&virgin_seed[..n]);
        for kind in available() {
            let table = table_for(kind).unwrap();

            let mut split_cur = raw.to_vec();
            let mut split_virgin = virgin.clone();
            table.classify(&mut split_cur);
            let split = table.compare(&split_cur, &mut split_virgin);

            let mut fused_cur = raw.to_vec();
            let mut fused_virgin = virgin.clone();
            let fused = table.classify_and_compare(&mut fused_cur, &mut fused_virgin);

            prop_assert_eq!(split, fused, "{}: fused vs split verdict", kind);
            prop_assert_eq!(split_cur, fused_cur, "{}: fused vs split classified", kind);
            prop_assert_eq!(split_virgin, fused_virgin, "{}: fused vs split virgin", kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compare_matches_scalar_oracle_on_sparse_regions(
        payload in sparse_payload(),
        virgin_seed in prop::collection::vec(any::<u8>(), MAX_LEN..MAX_LEN + 1),
        cur_off in 0usize..8,
        vir_off in 0usize..8,
    ) {
        let mut cur = payload;
        classify_slice(&mut cur);
        let virgin = virgin_from_seed(&virgin_seed[..cur.len()]);
        assert_compare_matches_oracle(&cur, &virgin, cur_off, vir_off);
    }

    #[test]
    fn fused_matches_scalar_oracle_on_sparse_regions(
        payload in sparse_payload(),
        virgin_seed in prop::collection::vec(any::<u8>(), MAX_LEN..MAX_LEN + 1),
        cur_off in 0usize..8,
        vir_off in 0usize..8,
    ) {
        let virgin = virgin_from_seed(&virgin_seed[..payload.len()]);
        assert_fused_matches_oracle(&payload, &virgin, cur_off, vir_off);
    }
}

#[test]
fn exhaustive_verdict_cases_across_kernels() {
    // Deterministic spot checks at a vector-unfriendly length (one partial
    // block + tail) covering all three verdicts per kernel.
    let len = 67;
    for kind in available() {
        let table = table_for(kind).unwrap();
        let mut virgin = vec![0xFFu8; len];
        let mut cur = vec![0u8; len];
        cur[0] = 1;
        cur[33] = 3;
        cur[66] = 200;
        assert_eq!(
            table.classify_and_compare(&mut cur, &mut virgin),
            NewCoverage::NewEdge,
            "{kind}: first touch"
        );
        let mut again = vec![0u8; len];
        again[0] = 1;
        again[33] = 3;
        again[66] = 200;
        assert_eq!(
            table.classify_and_compare(&mut again, &mut virgin),
            NewCoverage::None,
            "{kind}: identical rerun"
        );
        let mut hotter = vec![0u8; len];
        hotter[33] = 9; // bucket 16 instead of 4: new bucket, not new edge
        assert_eq!(
            table.classify_and_compare(&mut hotter, &mut virgin),
            NewCoverage::NewBucket,
            "{kind}: higher bucket"
        );
    }
}
