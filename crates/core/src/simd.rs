//! Non-temporal (streaming) map reset (§IV-E).
//!
//! The flat bitmap is `memset` to zero before every test case. A regular
//! memset pulls every cache line of the map into the cache hierarchy even
//! though most lines hold no coverage data and will never be read — pure
//! pollution. The paper's second §IV-E optimization replaces the reset with
//! **non-temporal stores**, which bypass the cache. (BigMap itself barely
//! benefits: its reset already touches only the used prefix.)
//!
//! On x86-64 we use `_mm_stream_si128`; elsewhere this degrades to a plain
//! `fill(0)`, preserving semantics.
//!
//! Streaming is not free, though: below roughly L2 capacity the map is
//! about to be re-read (classify/compare touch the same lines), so a
//! cached memset is both faster and leaves the lines warm. The public
//! [`nontemporal_zero`] is therefore **threshold-aware** — plain `fill(0)`
//! at or below [`NT_THRESHOLD`] (256 KiB; measured crossover recorded in
//! EXPERIMENTS.md from the `bench_mapops` reset sweep) and streaming
//! stores above it.
//! [`stream_zero`] always streams, for ablation arms that force the
//! strategy.

/// The streaming-store cutoff in bytes: buffers at or below this size zero
/// with a plain cached memset (the modeled per-core L2 capacity).
pub const NT_THRESHOLD: usize = 256 * 1024;

/// Zeroes `buf`, choosing the reset strategy by size: a plain cached
/// `fill(0)` at or below [`NT_THRESHOLD`] (small maps are about to be
/// re-read — cache pollution is a non-issue and NT stores just add fence
/// latency), streaming non-temporal stores above it.
///
/// Semantically identical to `buf.fill(0)` in every case.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::simd::nontemporal_zero;
///
/// let mut buf = vec![0xAAu8; 10_000];
/// nontemporal_zero(&mut buf);
/// assert!(buf.iter().all(|&b| b == 0));
/// ```
pub fn nontemporal_zero(buf: &mut [u8]) {
    if buf.len() <= NT_THRESHOLD {
        buf.fill(0);
    } else {
        stream_zero(buf);
    }
}

/// Zeroes `buf` with non-temporal streaming stores unconditionally (where
/// the platform supports them), bypassing the cache regardless of size.
///
/// This is the raw §IV-E mechanism; prefer [`nontemporal_zero`] unless you
/// are deliberately forcing the strategy (the `ResetKind::NonTemporal`
/// ablation arm and the `bench_mapops` reset sweep do).
pub fn stream_zero(buf: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        nontemporal_zero_x86(buf);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        buf.fill(0);
    }
}

#[cfg(target_arch = "x86_64")]
fn nontemporal_zero_x86(buf: &mut [u8]) {
    use std::arch::x86_64::{__m128i, _mm_setzero_si128, _mm_sfence, _mm_stream_si128};

    let len = buf.len();
    let start = buf.as_mut_ptr();
    let addr = start as usize;
    // Bytes until the first 16-byte boundary.
    let head = (16 - (addr & 15)) & 15;
    let head = head.min(len);
    buf[..head].fill(0);
    let aligned_len = (len - head) & !15usize;

    // SAFETY: `start + head` is 16-byte aligned by construction, and
    // `aligned_len` 16-byte chunks fit within the slice.
    unsafe {
        let zero = _mm_setzero_si128();
        let mut ptr = start.add(head).cast::<__m128i>();
        let end = start.add(head + aligned_len).cast::<__m128i>();
        while ptr < end {
            _mm_stream_si128(ptr, zero);
            ptr = ptr.add(1);
        }
        // Make the streaming stores globally visible before anyone reads
        // the map (the interpreter runs on the same thread, but keep the
        // ordering contract explicit).
        _mm_sfence();
    }
    buf[head + aligned_len..].fill(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeroes_aligned_buffer() {
        let mut buf = crate::alloc::MapBuffer::<u8>::zeroed(1 << 16);
        buf.as_mut_slice().fill(0x5A);
        nontemporal_zero(buf.as_mut_slice());
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn zeroes_misaligned_windows() {
        for offset in 0..17 {
            for len in [0usize, 1, 15, 16, 17, 31, 100] {
                let mut buf = vec![0xFFu8; offset + len + 32];
                stream_zero(&mut buf[offset..offset + len]);
                assert!(buf[offset..offset + len].iter().all(|&b| b == 0));
                // Surrounding bytes untouched.
                assert!(buf[..offset].iter().all(|&b| b == 0xFF));
                assert!(buf[offset + len..].iter().all(|&b| b == 0xFF));
            }
        }
    }

    #[test]
    fn empty_slice_is_fine() {
        nontemporal_zero(&mut []);
        stream_zero(&mut []);
    }

    #[test]
    fn both_strategies_zero_above_and_below_threshold() {
        for len in [1024usize, NT_THRESHOLD, NT_THRESHOLD + 4096] {
            let mut a = vec![0x77u8; len];
            let mut b = vec![0x77u8; len];
            nontemporal_zero(&mut a);
            stream_zero(&mut b);
            assert_eq!(a, b);
            assert!(a.iter().all(|&x| x == 0));
        }
    }

    proptest! {
        #[test]
        fn equivalent_to_fill_zero(
            mut data in prop::collection::vec(any::<u8>(), 0..4096),
        ) {
            nontemporal_zero(&mut data);
            prop_assert!(data.iter().all(|&b| b == 0));
        }
    }
}
