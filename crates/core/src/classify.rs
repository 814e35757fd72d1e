//! Hit-count classification (bucketing).
//!
//! AFL does not compare exact hit counts between runs: it first maps each
//! count into one of eight coarse buckets — `[1]`, `[2]`, `[3]`, `[4-7]`,
//! `[8-15]`, `[16-31]`, `[32-127]`, `[128,∞)` — represented as the bytes
//! `1, 2, 4, 8, 16, 32, 64, 128`. Transitions *between* buckets count as an
//! interesting control-flow change; transitions *within* a bucket are
//! ignored, which also provides some protection against accidental hash
//! collisions (§II-A of the paper).
//!
//! Classification is one of the per-test-case whole-map operations whose
//! cost the paper attacks, so the implementation matters: like AFL, we build
//! a 16-bit lookup table once and classify the map one 64-bit word at a
//! time, skipping zero words.

use std::sync::OnceLock;

/// The byte each raw hit count classifies to.
///
/// Index = exact hit count, value = bucket byte.
/// Matches AFL's `count_class_lookup8` exactly.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::classify::bucket_of;
///
/// assert_eq!(bucket_of(0), 0);
/// assert_eq!(bucket_of(1), 1);
/// assert_eq!(bucket_of(3), 4);
/// assert_eq!(bucket_of(7), 8);
/// assert_eq!(bucket_of(127), 64);
/// assert_eq!(bucket_of(255), 128);
/// ```
#[inline]
pub const fn bucket_of(count: u8) -> u8 {
    match count {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => 4,
        4..=7 => 8,
        8..=15 => 16,
        16..=31 => 32,
        32..=127 => 64,
        128..=255 => 128,
    }
}

/// The eight bucket bytes in ascending order (excluding the zero bucket).
pub const BUCKET_BYTES: [u8; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// [`bucket_of`] as a 256-entry table.
///
/// The sparse (journal-driven) classify path buckets one touched slot at a
/// time; a branchless table load beats the range match when the access
/// pattern gives the branch predictor nothing to work with.
pub static BUCKET_LUT: [u8; 256] = {
    let mut lut = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        lut[i] = bucket_of(i as u8);
        i += 1;
    }
    lut
};

fn lut16() -> &'static [u16; 65536] {
    static LUT: OnceLock<Box<[u16; 65536]>> = OnceLock::new();
    LUT.get_or_init(|| {
        let mut lut = vec![0u16; 65536].into_boxed_slice();
        for (i, slot) in lut.iter_mut().enumerate() {
            let lo = bucket_of((i & 0xff) as u8) as u16;
            let hi = bucket_of((i >> 8) as u8) as u16;
            *slot = (hi << 8) | lo;
        }
        lut.try_into().expect("length 65536")
    })
}

/// Classifies one 64-bit word of hit counts (eight map slots) via the
/// 16-bit LUT, mirroring AFL's `classify_counts` inner loop.
#[inline]
pub fn classify_word(word: u64) -> u64 {
    if word == 0 {
        return 0;
    }
    let lut = lut16();
    let a = lut[(word & 0xffff) as usize] as u64;
    let b = lut[((word >> 16) & 0xffff) as usize] as u64;
    let c = lut[((word >> 32) & 0xffff) as usize] as u64;
    let d = lut[(word >> 48) as usize] as u64;
    a | (b << 16) | (c << 32) | (d << 48)
}

/// Classifies a byte slice of hit counts in place, 64 bits at a time.
///
/// Zero words are skipped (AFL's `unlikely(*current)` fast path); the slice
/// does not need any particular alignment.
pub fn classify_slice(counts: &mut [u8]) {
    let (head, words, tail) = unsafe { counts.align_to_mut::<u64>() };
    for b in head {
        *b = bucket_of(*b);
    }
    for w in words {
        if *w != 0 {
            *w = classify_word(*w);
        }
    }
    for b in tail {
        *b = bucket_of(*b);
    }
}

/// Whether a byte is a valid classified value (zero or a bucket byte).
#[inline]
pub fn is_classified(byte: u8) -> bool {
    byte == 0 || byte.is_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_match_afl_table() {
        let expect: &[(u8, u8)] = &[
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 4),
            (4, 8),
            (7, 8),
            (8, 16),
            (15, 16),
            (16, 32),
            (31, 32),
            (32, 64),
            (127, 64),
            (128, 128),
            (200, 128),
            (255, 128),
        ];
        for &(count, bucket) in expect {
            assert_eq!(bucket_of(count), bucket, "count {count}");
        }
    }

    #[test]
    fn word_classify_agrees_with_scalar() {
        let word = u64::from_le_bytes([0, 1, 3, 7, 16, 40, 130, 255]);
        let classified = classify_word(word).to_le_bytes();
        assert_eq!(classified, [0, 1, 4, 8, 32, 64, 128, 128]);
    }

    #[test]
    fn slice_classify_handles_unaligned_head_tail() {
        let mut buf = [5u8; 100];
        // Classify a misaligned interior window.
        classify_slice(&mut buf[3..97]);
        assert!(buf[3..97].iter().all(|&b| b == 8));
        assert!(buf[..3].iter().all(|&b| b == 5));
        assert!(buf[97..].iter().all(|&b| b == 5));
    }

    #[test]
    fn zero_word_fast_path_leaves_zeroes() {
        let mut buf = vec![0u8; 4096];
        classify_slice(&mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn classification_is_not_idempotent_which_is_why_afl_classifies_once() {
        // Only 0, 1, 2, 64 and 128 are fixed points; e.g. bucket 4
        // re-classifies to 8. AFL therefore classifies exactly once per
        // test case — our fuzzer pipeline does the same.
        for &b in &[0u8, 1, 2, 64, 128] {
            assert_eq!(bucket_of(b), b);
        }
        assert_eq!(bucket_of(4), 8);
        assert_eq!(bucket_of(8), 16);
        assert_eq!(bucket_of(16), 32);
        assert_eq!(bucket_of(32), 64);
    }

    #[test]
    fn bucket_bytes_are_exactly_the_powers_of_two() {
        for &b in &BUCKET_BYTES {
            assert!(is_classified(b));
        }
        assert!(is_classified(0));
        assert!(!is_classified(3));
        assert!(!is_classified(255));
    }

    #[test]
    fn bucket_lut_matches_bucket_of() {
        for i in 0..=255u8 {
            assert_eq!(BUCKET_LUT[i as usize], bucket_of(i), "count {i}");
        }
    }

    proptest! {
        #[test]
        fn word_equals_bytewise(bytes in prop::array::uniform8(any::<u8>())) {
            let word = u64::from_le_bytes(bytes);
            let got = classify_word(word).to_le_bytes();
            for i in 0..8 {
                prop_assert_eq!(got[i], bucket_of(bytes[i]));
            }
        }

        #[test]
        fn slice_equals_bytewise(mut data in prop::collection::vec(any::<u8>(), 0..512)) {
            let expect: Vec<u8> = data.iter().map(|&b| bucket_of(b)).collect();
            classify_slice(&mut data);
            prop_assert_eq!(data, expect);
        }

        #[test]
        fn classified_values_are_always_valid_buckets(
            mut data in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            classify_slice(&mut data);
            for &b in &data {
                prop_assert!(is_classified(b), "invalid classified byte {b}");
            }
        }

        #[test]
        fn monotone_in_bucket_lattice(a in any::<u8>(), b in any::<u8>()) {
            // Higher raw count never maps to a strictly lower bucket.
            if a <= b {
                prop_assert!(bucket_of(a) <= bucket_of(b));
            }
        }
    }
}
