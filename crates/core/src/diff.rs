//! Word-wise region diffing shared by both map schemes.
//!
//! This is the engine behind the *compare* operation (AFL's
//! `has_new_bits`) and the §IV-E merged *classify + compare*: a single pass
//! over the active region, eight map slots at a time, with a fast skip for
//! all-zero words.

use crate::classify::{bucket_of, classify_word};
use crate::traits::NewCoverage;

#[inline]
pub(crate) fn diff_byte(cur: u8, virgin: &mut u8, verdict: &mut NewCoverage) {
    if cur != 0 && (cur & *virgin) != 0 {
        let v = if *virgin == 0xFF {
            NewCoverage::NewEdge
        } else {
            NewCoverage::NewBucket
        };
        *verdict = (*verdict).max(v);
        *virgin &= !cur;
    }
}

#[inline]
pub(crate) fn diff_word(cur: u64, virgin: &mut u64, verdict: &mut NewCoverage) {
    if cur != 0 && (cur & *virgin) != 0 {
        if *verdict < NewCoverage::NewEdge {
            // Inspect bytes only when the word-level test fires — the
            // AFL fast path.
            let cur_b = cur.to_ne_bytes();
            let vir_b = virgin.to_ne_bytes();
            for i in 0..8 {
                if cur_b[i] != 0 && (cur_b[i] & vir_b[i]) != 0 {
                    if vir_b[i] == 0xFF {
                        *verdict = NewCoverage::NewEdge;
                        break;
                    }
                    *verdict = (*verdict).max(NewCoverage::NewBucket);
                }
            }
        }
        *virgin &= !cur;
    }
}

/// Calls `f(index, byte)` for every non-zero byte of `region` in ascending
/// index order: the slot scan behind both map schemes' `for_each_nonzero`
/// and `count_nonzero`.
///
/// Like the CRC32's zero-run skip, it tests 64-byte blocks whose eight
/// `u64` lanes OR to zero first, then the `u64` words of the other
/// blocks, and visits bytes only in non-zero words.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::diff::for_each_nonzero_byte;
///
/// let mut seen = Vec::new();
/// for_each_nonzero_byte(&[0, 3, 0, 0, 0, 0, 0, 0, 0, 7], |i, b| seen.push((i, b)));
/// assert_eq!(seen, vec![(1, 3), (9, 7)]);
/// ```
#[inline]
pub fn for_each_nonzero_byte(region: &[u8], mut f: impl FnMut(usize, u8)) {
    const BLOCK: usize = 64;
    let mut blocks = region.chunks_exact(BLOCK);
    let mut base = 0;
    for block in &mut blocks {
        let lanes: [u64; BLOCK / 8] = std::array::from_fn(|i| word(&block[8 * i..8 * i + 8]));
        if lanes.iter().fold(0, |acc, &l| acc | l) != 0 {
            for_each_nonzero_in_words(block, base, &mut f);
        }
        base += BLOCK;
    }
    for_each_nonzero_in_words(blocks.remainder(), base, &mut f);
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_ne_bytes(bytes.try_into().expect("8-byte word"))
}

/// [`for_each_nonzero_byte`] over one block: skips zero `u64` words, and
/// reports indices offset by `base`.
#[inline(always)]
fn for_each_nonzero_in_words(region: &[u8], base: usize, f: &mut impl FnMut(usize, u8)) {
    let mut words = region.chunks_exact(8);
    let mut at = base;
    for w in &mut words {
        if word(w) != 0 {
            for (i, &b) in w.iter().enumerate() {
                if b != 0 {
                    f(at + i, b);
                }
            }
        }
        at += 8;
    }
    for (i, &b) in words.remainder().iter().enumerate() {
        if b != 0 {
            f(at + i, b);
        }
    }
}

/// Diffs an already-classified region against the matching virgin region,
/// clearing the virgin bits now covered. Returns the strongest novelty
/// verdict found.
///
/// # Panics
///
/// Panics if the regions have different lengths.
pub fn compare_region(cur: &[u8], virgin: &mut [u8]) -> NewCoverage {
    assert_eq!(cur.len(), virgin.len(), "region length mismatch");
    let mut verdict = NewCoverage::None;

    // Word-wise processing is cheapest when the two regions share their
    // alignment phase (they always do in practice: both come from
    // huge-page-aligned buffers at offset 0).
    if cur.as_ptr() as usize % 8 == virgin.as_ptr() as usize % 8 {
        let (cur_head, cur_words, cur_tail) = unsafe { cur.align_to::<u64>() };
        let head_len = cur_head.len();
        let words_len = cur_words.len();
        for (i, b) in cur_head.iter().enumerate() {
            diff_byte(*b, &mut virgin[i], &mut verdict);
        }
        let (_, virgin_words, _) = unsafe { virgin[head_len..].align_to_mut::<u64>() };
        for (c, v) in cur_words.iter().zip(virgin_words.iter_mut()) {
            diff_word(*c, v, &mut verdict);
        }
        let base = head_len + words_len * 8;
        for (i, b) in cur_tail.iter().enumerate() {
            diff_byte(*b, &mut virgin[base + i], &mut verdict);
        }
    } else {
        // Mixed alignment phase: align the written side (`virgin`) and read
        // `cur` words unaligned — the interior still moves 8 slots per
        // iteration instead of degrading the whole region to bytes.
        let len = cur.len();
        let head_len = virgin.as_ptr().align_offset(8).min(len);
        for i in 0..head_len {
            diff_byte(cur[i], &mut virgin[i], &mut verdict);
        }
        let words_len = (len - head_len) / 8;
        for w in 0..words_len {
            let base = head_len + w * 8;
            // SAFETY: `base + 8 <= len` by construction of `words_len`;
            // the `cur` read is unaligned, the `virgin` word is 8-aligned
            // by construction of `head_len`.
            unsafe {
                let c = cur.as_ptr().add(base).cast::<u64>().read_unaligned();
                let vp = virgin.as_mut_ptr().add(base).cast::<u64>();
                let mut v = vp.read();
                let before = v;
                diff_word(c, &mut v, &mut verdict);
                if v != before {
                    vp.write(v);
                }
            }
        }
        for i in (head_len + words_len * 8)..len {
            diff_byte(cur[i], &mut virgin[i], &mut verdict);
        }
    }
    verdict
}

/// Merged classify + compare (§IV-E): classifies `cur` in place and diffs it
/// against `virgin` in the same pass.
///
/// Observationally identical to [`crate::classify::classify_slice`] followed
/// by [`compare_region`], but touches each cache line of the region once
/// instead of twice.
///
/// # Panics
///
/// Panics if the regions have different lengths.
pub fn classify_and_compare_region(cur: &mut [u8], virgin: &mut [u8]) -> NewCoverage {
    assert_eq!(cur.len(), virgin.len(), "region length mismatch");
    let mut verdict = NewCoverage::None;

    let cur_ptr = cur.as_ptr() as usize;
    let vir_ptr = virgin.as_ptr() as usize;
    if cur_ptr % 8 == vir_ptr % 8 {
        let (head, words, tail) = unsafe { cur.align_to_mut::<u64>() };
        let head_len = head.len();
        let words_len = words.len();
        for (i, b) in head.iter_mut().enumerate() {
            *b = bucket_of(*b);
            diff_byte(*b, &mut virgin[i], &mut verdict);
        }
        let (_, virgin_words, _) = unsafe { virgin[head_len..].align_to_mut::<u64>() };
        for (c, v) in words.iter_mut().zip(virgin_words.iter_mut()) {
            if *c != 0 {
                *c = classify_word(*c);
                diff_word(*c, v, &mut verdict);
            }
        }
        let base = head_len + words_len * 8;
        for (i, b) in tail.iter_mut().enumerate() {
            *b = bucket_of(*b);
            diff_byte(*b, &mut virgin[base + i], &mut verdict);
        }
    } else {
        // Mixed alignment phase: same interior-word strategy as
        // `compare_region`, with the classified word written back to `cur`.
        let len = cur.len();
        let head_len = virgin.as_ptr().align_offset(8).min(len);
        for i in 0..head_len {
            cur[i] = bucket_of(cur[i]);
            diff_byte(cur[i], &mut virgin[i], &mut verdict);
        }
        let words_len = (len - head_len) / 8;
        for w in 0..words_len {
            let base = head_len + w * 8;
            // SAFETY: `base + 8 <= len` by construction of `words_len`;
            // `cur` accesses are unaligned, the `virgin` word is 8-aligned
            // by construction of `head_len`.
            unsafe {
                let cp = cur.as_mut_ptr().add(base).cast::<u64>();
                let c = cp.read_unaligned();
                if c == 0 {
                    continue;
                }
                let classified = classify_word(c);
                cp.write_unaligned(classified);
                let vp = virgin.as_mut_ptr().add(base).cast::<u64>();
                let mut v = vp.read();
                let before = v;
                diff_word(classified, &mut v, &mut verdict);
                if v != before {
                    vp.write(v);
                }
            }
        }
        for i in (head_len + words_len * 8)..len {
            cur[i] = bucket_of(cur[i]);
            diff_byte(cur[i], &mut virgin[i], &mut verdict);
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_slice;
    use proptest::prelude::*;

    #[test]
    fn first_touch_is_new_edge() {
        let cur = vec![0, 1, 0, 0];
        let mut virgin = vec![0xFF; 4];
        assert_eq!(compare_region(&cur, &mut virgin), NewCoverage::NewEdge);
        assert_eq!(virgin, vec![0xFF, 0xFE, 0xFF, 0xFF]);
    }

    #[test]
    fn repeat_touch_is_none() {
        let cur = vec![0, 1, 0, 0];
        let mut virgin = vec![0xFF; 4];
        compare_region(&cur, &mut virgin);
        assert_eq!(compare_region(&cur, &mut virgin), NewCoverage::None);
    }

    #[test]
    fn new_bucket_on_known_slot() {
        let mut virgin = vec![0xFF; 4];
        compare_region(&[0, 1, 0, 0], &mut virgin);
        // Same slot, higher bucket (2): new bucket, not new edge.
        assert_eq!(
            compare_region(&[0, 2, 0, 0], &mut virgin),
            NewCoverage::NewBucket
        );
        // Third time with bucket already cleared: nothing.
        assert_eq!(
            compare_region(&[0, 2, 0, 0], &mut virgin),
            NewCoverage::None
        );
    }

    #[test]
    fn new_edge_dominates_new_bucket() {
        let mut virgin = vec![0xFF; 16];
        compare_region(
            [1; 16][..8]
                .to_vec()
                .iter()
                .map(|_| 0)
                .chain([1u8; 8])
                .collect::<Vec<_>>()
                .as_slice(),
            &mut virgin,
        );
        // slots 8..16 seen with bucket 1. Now bucket 2 on slot 8 (new
        // bucket) plus first touch of slot 0 (new edge): verdict NewEdge.
        let mut cur = vec![0u8; 16];
        cur[8] = 2;
        cur[0] = 1;
        assert_eq!(compare_region(&cur, &mut virgin), NewCoverage::NewEdge);
    }

    #[test]
    fn merged_equals_split() {
        let mut raw = vec![0u8; 256];
        raw[3] = 5;
        raw[64] = 200;
        raw[255] = 1;
        let mut split_cur = raw.clone();
        let mut split_virgin = vec![0xFF; 256];
        classify_slice(&mut split_cur);
        let split_verdict = compare_region(&split_cur, &mut split_virgin);

        let mut merged_cur = raw.clone();
        let mut merged_virgin = vec![0xFF; 256];
        let merged_verdict = classify_and_compare_region(&mut merged_cur, &mut merged_virgin);

        assert_eq!(split_verdict, merged_verdict);
        assert_eq!(split_cur, merged_cur);
        assert_eq!(split_virgin, merged_virgin);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        compare_region(&[0; 4], &mut [0xFF; 8]);
    }

    #[test]
    fn mixed_alignment_phase_matches_bytewise_model() {
        // Slice the two regions at every pair of distinct offsets so the
        // mixed-phase (word-wise interior over unaligned `cur`) path runs,
        // and check verdict + virgin + classified bytes against a plain
        // byte loop.
        let len = 200;
        let mut raw = vec![0u8; len + 8];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = if i % 5 == 0 { (i % 250) as u8 } else { 0 };
        }
        for cur_off in 0..8usize {
            for vir_off in 0..8usize {
                let mut cur_buf = vec![0u8; len + 8];
                cur_buf[cur_off..cur_off + len].copy_from_slice(&raw[..len]);
                let mut vir_buf = vec![0u8; len + 8];
                for (i, v) in vir_buf.iter_mut().enumerate() {
                    *v = if i % 3 == 0 { 0xFF } else { (i % 251) as u8 };
                }

                // Byte-wise model.
                let mut model_cur: Vec<u8> = cur_buf[cur_off..cur_off + len].to_vec();
                let mut model_vir: Vec<u8> = vir_buf[vir_off..vir_off + len].to_vec();
                let mut model = NewCoverage::None;
                for i in 0..len {
                    model_cur[i] = bucket_of(model_cur[i]);
                    diff_byte(model_cur[i], &mut model_vir[i], &mut model);
                }

                let got = classify_and_compare_region(
                    &mut cur_buf[cur_off..cur_off + len],
                    &mut vir_buf[vir_off..vir_off + len],
                );
                assert_eq!(got, model, "offsets ({cur_off},{vir_off})");
                assert_eq!(
                    &cur_buf[cur_off..cur_off + len],
                    &model_cur[..],
                    "classified bytes at offsets ({cur_off},{vir_off})"
                );
                assert_eq!(
                    &vir_buf[vir_off..vir_off + len],
                    &model_vir[..],
                    "virgin bytes at offsets ({cur_off},{vir_off})"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn merged_equals_split_prop(
            raw in prop::collection::vec(any::<u8>(), 0..300),
            prior in prop::collection::vec(any::<u8>(), 0..300),
        ) {
            // Build a virgin state with some history: classify `prior` and
            // fold it in first, so virgin bytes are a realistic mix.
            let n = raw.len().min(prior.len());
            let raw = &raw[..n];
            let mut virgin_a = vec![0xFFu8; n];
            let mut virgin_b = vec![0xFFu8; n];
            let mut prior_c = prior[..n].to_vec();
            classify_slice(&mut prior_c);
            compare_region(&prior_c, &mut virgin_a);
            compare_region(&prior_c, &mut virgin_b);

            let mut split_cur = raw.to_vec();
            classify_slice(&mut split_cur);
            let split = compare_region(&split_cur, &mut virgin_a);

            let mut merged_cur = raw.to_vec();
            let merged = classify_and_compare_region(&mut merged_cur, &mut virgin_b);

            prop_assert_eq!(split, merged);
            prop_assert_eq!(split_cur, merged_cur);
            prop_assert_eq!(virgin_a, virgin_b);
        }

        #[test]
        fn nonzero_scan_matches_the_bytewise_definition(
            len in 0usize..1200,
            bytes in prop::collection::vec((0usize..1200, 1u8..=255), 0..12),
            start in 0usize..8,
        ) {
            // Sparse non-zero bytes at any block phase (`start` shifts the
            // slice off the 64-byte grid), so zero blocks, zero words and
            // partial tails all occur.
            let mut buf = vec![0u8; start + len];
            for &(at, b) in &bytes {
                if at < len {
                    buf[start + at] = b;
                }
            }
            let region = &buf[start..];
            let want: Vec<(usize, u8)> = region
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b != 0)
                .map(|(i, &b)| (i, b))
                .collect();
            let mut got = Vec::new();
            for_each_nonzero_byte(region, |i, b| got.push((i, b)));
            prop_assert_eq!(got, want);
        }

        #[test]
        fn compare_agrees_with_bytewise_model(
            cur in prop::collection::vec(any::<u8>(), 0..300),
            virgin_seed in prop::collection::vec(any::<u8>(), 0..300),
        ) {
            let n = cur.len().min(virgin_seed.len());
            let cur = &cur[..n];
            let mut virgin = virgin_seed[..n].to_vec();
            let mut model_virgin = virgin.clone();

            // Reference model: plain byte loop.
            let mut model = NewCoverage::None;
            for i in 0..n {
                let c = cur[i];
                if c != 0 && (c & model_virgin[i]) != 0 {
                    let v = if model_virgin[i] == 0xFF {
                        NewCoverage::NewEdge
                    } else {
                        NewCoverage::NewBucket
                    };
                    model = model.max(v);
                    model_virgin[i] &= !c;
                }
            }

            let got = compare_region(cur, &mut virgin);
            prop_assert_eq!(got, model);
            prop_assert_eq!(virgin, model_virgin);
        }
    }
}
