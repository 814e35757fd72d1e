//! Bitmap hashing: CRC32 with the paper's watermark rule (§IV-D).
//!
//! AFL hashes the classified coverage bitmap of every interesting test case
//! so that future executions can be compared by hash instead of a full map
//! diff. The paper keeps AFL's CRC32 but must decide *how much* of the
//! condensed map to hash: always hashing `[0 .. used_key)` is wrong, because
//! `used_key` grows over the campaign and the same execution path would then
//! hash differently before and after an unrelated discovery (the paper's
//! P1/P3 example). BigMap therefore hashes **up to the last non-zero byte**
//! of the used region, making the hash a pure function of the path.

use std::sync::OnceLock;

/// CRC32 (IEEE 802.3 polynomial, reflected: `0xEDB88320`).
///
/// Implemented from scratch — the reproduction has no external hashing
/// dependency. Matches the standard `crc32` used by zlib and by AFL's
/// toolchain.
///
/// Coverage maps are mostly zero bytes, and feeding `n` zero bytes through
/// a CRC register multiplies it by `x^(8n)` modulo the polynomial. `update`
/// therefore walks its input in 64-byte blocks: an all-zero block only
/// extends a pending zero run, which is applied when the next non-zero
/// block or the end of the input arrives — in O(log n) steps (zlib's
/// `x2nmodp`/`multmodp`) once it is longer than a few blocks. Non-zero
/// blocks, short runs and the tail go through a slicing-by-8 table loop.
/// The values are exactly those of the bytewise definition.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::Crc32;
///
/// // Standard test vector: crc32("123456789") = 0xCBF43926.
/// assert_eq!(Crc32::checksum(b"123456789"), 0xCBF4_3926);
///
/// // Incremental hashing produces the same result.
/// let mut h = Crc32::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finalize(), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

const POLY: u32 = 0xEDB8_8320;

/// Bytes per zero-skip block: eight `u64` lanes.
const BLOCK: usize = 64;

/// Slicing-by-8 tables: `tables()[0]` is the classic bytewise table, and
/// `tables()[k][b]` is the register contribution of byte `b` followed by
/// `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = times_x(crc);
            }
            *entry = crc;
        }
        for k in 1..8 {
            let (done, rest) = t.split_at_mut(k);
            for (entry, &prev) in rest[0].iter_mut().zip(done[k - 1].iter()) {
                *entry = (prev >> 8) ^ done[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// `x2n_table()[k]` is `x^(2^k) mod P` in the reflected representation
/// (bit 31 holds the `x^0` coefficient).
fn x2n_table() -> &'static [u32; 32] {
    static X2N: OnceLock<[u32; 32]> = OnceLock::new();
    X2N.get_or_init(|| {
        let mut table = [0u32; 32];
        let mut p = 1u32 << 30; // x^1
        for entry in table.iter_mut() {
            *entry = p;
            p = multmodp(p, p);
        }
        table
    })
}

/// One shift of the reflected register: multiplication by `x mod P`.
#[inline(always)]
fn times_x(crc: u32) -> u32 {
    (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg())
}

/// `a * b mod P` for reflected polynomials (zlib's `multmodp`).
fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut rest = a;
    let mut m = 1u32 << 31;
    while rest != 0 {
        if rest & m != 0 {
            product ^= b;
            rest ^= m;
        }
        m >>= 1;
        b = times_x(b);
    }
    product
}

/// `x^(8n) mod P`: the operator that feeds `n` zero bytes through a CRC
/// register (zlib's `x2nmodp(n, 3)`). The order of `x` divides `2^32 - 1`,
/// so `x^(2^k)` repeats with period 32 in `k`.
fn zeros_operator(n: u64) -> u32 {
    let table = x2n_table();
    let mut p = 1u32 << 31; // x^0
    let mut n = n;
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(table[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Zero runs up to this many bytes go through the table loop, where they
/// cost what a non-zero block costs; the bit-serial operator product only
/// pays off beyond a few blocks (a 2%-density map is mostly short runs).
const SHORT_RUN: usize = 4 * BLOCK;

/// Feeds `n` zero bytes (a multiple of 8) through the register `crc`.
#[inline]
fn skip_zeros(t: &[[u32; 256]; 8], crc: u32, n: usize) -> u32 {
    if n <= SHORT_RUN {
        (0..n / 8).fold(crc, |crc, _| slice8(t, crc, 0))
    } else {
        multmodp(zeros_operator(n as u64), crc)
    }
}

/// Feeds the eight bytes of `lane` (little-endian order) through `crc`.
#[inline(always)]
fn slice8(t: &[[u32; 256]; 8], crc: u32, lane: u64) -> u32 {
    let v = lane ^ crc as u64;
    t[7][(v & 0xFF) as usize]
        ^ t[6][((v >> 8) & 0xFF) as usize]
        ^ t[5][((v >> 16) & 0xFF) as usize]
        ^ t[4][((v >> 24) & 0xFF) as usize]
        ^ t[3][((v >> 32) & 0xFF) as usize]
        ^ t[2][((v >> 40) & 0xFF) as usize]
        ^ t[1][((v >> 48) & 0xFF) as usize]
        ^ t[0][(v >> 56) as usize]
}

#[inline(always)]
fn lane(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte lane"))
}

impl Crc32 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut crc = self.state;
        let mut zeros = 0usize;
        let mut blocks = data.chunks_exact(BLOCK);
        for block in &mut blocks {
            let lanes: [u64; BLOCK / 8] = std::array::from_fn(|i| lane(&block[8 * i..8 * i + 8]));
            if lanes.iter().fold(0, |acc, &l| acc | l) == 0 {
                zeros += BLOCK;
                continue;
            }
            crc = skip_zeros(t, crc, zeros);
            zeros = 0;
            for l in lanes {
                crc = slice8(t, crc, l);
            }
        }
        crc = skip_zeros(t, crc, zeros);
        let mut words = blocks.remainder().chunks_exact(8);
        for word in &mut words {
            crc = slice8(t, crc, lane(word));
        }
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Returns the final CRC value.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// One-shot convenience: CRC32 of `data`.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut h = Crc32::new();
        h.update(data);
        h.finalize()
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// Length of `region` up to and including its last non-zero byte (0 when
/// all bytes are zero), found by a reverse scan over `u64` words.
fn nonzero_prefix_len(region: &[u8]) -> usize {
    let words = region.chunks_exact(8);
    let mut end = region.len() - words.remainder().len();
    if let Some(pos) = words.remainder().iter().rposition(|&b| b != 0) {
        return end + pos + 1;
    }
    for word in words.rev() {
        let w = lane(word);
        if w != 0 {
            // Little-endian: the last non-zero byte of the word is its
            // most significant non-zero byte.
            return end - (w.leading_zeros() / 8) as usize;
        }
        end -= 8;
    }
    0
}

/// Hashes a coverage region using BigMap's watermark rule: only the bytes up
/// to and including the **last non-zero** byte participate.
///
/// With this rule, two executions that produce identical hit counts hash
/// identically even if `used_key` grew in between (the §IV-D P1 = P3 case).
/// An all-zero region hashes as the empty string.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::hash::{hash_to_last_nonzero, Crc32};
///
/// // The §IV-D example: {1,1} and {1,1,0,...} must hash identically.
/// assert_eq!(
///     hash_to_last_nonzero(&[1, 1]),
///     hash_to_last_nonzero(&[1, 1, 0, 0, 0]),
/// );
/// assert_eq!(hash_to_last_nonzero(&[1, 1]), Crc32::checksum(&[1, 1]));
/// ```
pub fn hash_to_last_nonzero(region: &[u8]) -> u32 {
    Crc32::checksum(&region[..nonzero_prefix_len(region)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise definition the block loop must reproduce.
    fn bytewise_update(mut crc: u32, data: &[u8]) -> u32 {
        let t = &tables()[0];
        for &byte in data {
            crc = (crc >> 8) ^ t[((crc ^ byte as u32) & 0xFF) as usize];
        }
        crc
    }

    fn bytewise_checksum(data: &[u8]) -> u32 {
        bytewise_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// `prefix` repeated up to `start`, zeros up to `end`, then `suffix`.
    fn planted(prefix: &[u8], start: usize, end: usize, suffix: &[u8]) -> Vec<u8> {
        let mut data: Vec<u8> = prefix.iter().copied().cycle().take(start).collect();
        data.resize(end, 0);
        data.extend_from_slice(suffix);
        data
    }

    #[test]
    fn known_vectors() {
        assert_eq!(Crc32::checksum(b""), 0);
        assert_eq!(Crc32::checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::checksum(b"a"), 0xE8B7_BE43);
        assert_eq!(
            Crc32::checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn zero_run_operator_equals_literal_zeros() {
        // Start from a register that is neither the initial nor a zero state.
        let start = bytewise_update(0xFFFF_FFFF, b"123456789");
        let mut crc = start;
        for n in 0..=1024 {
            assert_eq!(multmodp(zeros_operator(n as u64), start), crc, "n = {n}");
            if n % 8 == 0 {
                // Both sides of the short-run cutoff.
                assert_eq!(skip_zeros(tables(), start, n), crc, "n = {n}");
            }
            crc = bytewise_update(crc, &[0]);
        }
        let mut fed = 1025;
        for n in [1 << 20, 8 << 20] {
            crc = bytewise_update(crc, &vec![0; n - fed]);
            fed = n;
            assert_eq!(multmodp(zeros_operator(n as u64), start), crc, "n = {n}");
        }
    }

    #[test]
    fn zero_buffers_match_bytewise() {
        for len in (0..=4 * BLOCK + 1).chain([4096, 1 << 16, (1 << 16) + 7]) {
            let zeros = vec![0u8; len];
            assert_eq!(Crc32::checksum(&zeros), bytewise_checksum(&zeros), "{len}");
            let mut leading = zeros.clone();
            leading.push(0xA5);
            assert_eq!(Crc32::checksum(&leading), bytewise_checksum(&leading));
            let mut trailing = vec![0x5A];
            trailing.extend_from_slice(&zeros);
            assert_eq!(Crc32::checksum(&trailing), bytewise_checksum(&trailing));
        }
    }

    #[test]
    fn hash_paper_example_p1_p2_p3() {
        // §IV-D: P1 = A->B->C with used_key 2, P2 discovers D (used_key 3),
        // P3 repeats P1 but with used_key now 3. Naive prefix hashing gives
        // crc({1,1}) != crc({1,1,0}); the watermark rule restores equality.
        let p1 = [1u8, 1];
        let p2 = [1u8, 1, 1];
        let p3 = [1u8, 1, 0];

        // Demonstrate the discrepancy the paper warns about:
        assert_ne!(Crc32::checksum(&p1), Crc32::checksum(&p3));

        // And that the watermark rule fixes it without conflating P2:
        assert_eq!(hash_to_last_nonzero(&p1), hash_to_last_nonzero(&p3));
        assert_ne!(hash_to_last_nonzero(&p1), hash_to_last_nonzero(&p2));
    }

    #[test]
    fn all_zero_region_hashes_like_empty() {
        assert_eq!(hash_to_last_nonzero(&[0; 64]), Crc32::checksum(b""));
        assert_eq!(hash_to_last_nonzero(&[0; 13]), Crc32::checksum(b""));
        assert_eq!(hash_to_last_nonzero(&[]), 0);
    }

    #[test]
    fn watermark_finds_every_last_position() {
        for len in 0..40 {
            for last in 0..len {
                let mut region = vec![0u8; len];
                region[last] = 3;
                region[0] |= 1;
                assert_eq!(nonzero_prefix_len(&region), last + 1, "{len} {last}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), Crc32::checksum(&data));
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(Crc32::default(), Crc32::new());
    }

    proptest! {
        #[test]
        fn watermark_invariant_under_zero_padding(
            data in prop::collection::vec(any::<u8>(), 0..256),
            pad in 0usize..64,
        ) {
            let mut padded = data.clone();
            padded.extend(std::iter::repeat_n(0, pad));
            prop_assert_eq!(
                hash_to_last_nonzero(&data),
                hash_to_last_nonzero(&padded)
            );
        }

        #[test]
        fn split_updates_agree(
            data in prop::collection::vec(any::<u8>(), 0..512),
            split in 0usize..512,
        ) {
            let split = split.min(data.len());
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), Crc32::checksum(&data));
        }

        #[test]
        fn different_last_nonzero_changes_hash(
            data in prop::collection::vec(1u8..=255, 1..128),
        ) {
            // Appending a nonzero byte must change the hashed region.
            let mut longer = data.clone();
            longer.push(1);
            // (CRC32 collisions are possible in principle but not for a
            // one-byte extension of the same prefix.)
            prop_assert_ne!(
                hash_to_last_nonzero(&data),
                hash_to_last_nonzero(&longer)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn planted_zero_runs_match_bytewise(
            prefix in prop::collection::vec(1u8..=255, 1..64),
            edge in 0usize..4,
            phase in 0usize..3,
            run in 0usize..=5000,
            run_phase in 0usize..3,
            capped in 0u8..2,
            suffix in prop::collection::vec(any::<u8>(), 0..130),
            splits in (0usize..8000, 0usize..8000),
        ) {
            // The run starts one byte before, on, or one past a 64-byte
            // block edge (after a non-zero prefix byte, or at offset 0 for
            // a leading run), and ends the same way around a later edge. An
            // uncapped run with an empty suffix is a trailing run; with an
            // empty prefix too, the whole buffer is zeros.
            let start = (edge * BLOCK + phase).saturating_sub(1);
            let end = ((start + run) / BLOCK * BLOCK + run_phase).saturating_sub(1).max(start);
            let mut tail = vec![0xFF; capped as usize];
            tail.extend_from_slice(&suffix);
            let data = planted(&prefix, start, end, &tail);
            let expected = bytewise_checksum(&data);
            prop_assert_eq!(Crc32::checksum(&data), expected);

            let (a, b) = (splits.0.min(data.len()), splits.1.min(data.len()));
            let (a, b) = (a.min(b), a.max(b));
            let mut h = Crc32::new();
            h.update(&data[..a]);
            h.update(&data[a..b]);
            h.update(&data[b..]);
            prop_assert_eq!(h.finalize(), expected);
            let watermark = data.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            prop_assert_eq!(
                hash_to_last_nonzero(&data),
                bytewise_checksum(&data[..watermark])
            );
        }
    }
}
