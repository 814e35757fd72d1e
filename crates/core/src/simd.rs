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
//! Streaming is not free, though: the exec that follows the reset records
//! into the map and the fused classify+compare pass re-reads every line of
//! it. A cached memset leaves those lines in the cache for that pass; a
//! streaming reset sends them to DRAM, from where the pass reads them
//! back. The cached reset wins for as long as the map fits the last-level
//! cache next to everything else an exec touches, so the public
//! [`nontemporal_zero`] streams only above [`stream_cutoff`], derived once
//! per process from the CPU's last-level cache ([`LastLevelCache`]: its
//! per-thread share ÷ 4), or [`FALLBACK_CUTOFF`] (256 KiB) where the CPU
//! reports none. The `bench_mapops` in-loop reset sweep measures the
//! crossover (DESIGN §4, EXPERIMENTS.md). [`zero_with_cutoff`] takes the
//! cutoff as an argument, and [`stream_zero`] always streams, for
//! ablation arms that force the strategy.

use std::sync::OnceLock;

/// The streaming cutoff in bytes where the CPU reports no last-level
/// cache: the per-core L2 capacity the reset used to model.
pub const FALLBACK_CUTOFF: usize = 256 * 1024;

/// The cutoff is the per-thread share of the last-level cache divided by
/// this. Below the share itself the map and its virgin map, the exec's
/// own working set and a sibling thread's streams must all fit; the
/// `bench_mapops` in-loop sweep puts the crossover between 32 and 64 MiB
/// on a host with a 150 MiB per-thread share.
const LLC_SHARE_DIVISOR: usize = 4;

/// The CPU's last-level cache, as CPUID's deterministic cache parameters
/// report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LastLevelCache {
    /// Cache level (3 on most current x86-64 parts).
    pub level: u32,
    /// Capacity in bytes.
    pub bytes: usize,
    /// Logical processors sharing the cache: CPUID's count of addressable
    /// IDs, which many parts round up to a power of two.
    pub threads: usize,
}

impl LastLevelCache {
    /// The streaming cutoff this cache gives: its per-thread share ÷ 4.
    pub fn stream_cutoff(self) -> usize {
        self.bytes / self.threads.max(1) / LLC_SHARE_DIVISOR
    }

    /// Decodes one subleaf of CPUID's deterministic cache parameters (the
    /// layout leaf 4 and AMD's 0x8000_001D share): `None` for the null
    /// entry that ends the list and for instruction caches.
    fn from_cpuid(eax: u32, ebx: u32, ecx: u32) -> Option<LastLevelCache> {
        const DATA: u32 = 1;
        const UNIFIED: u32 = 3;
        let kind = eax & 0x1F;
        if kind != DATA && kind != UNIFIED {
            return None;
        }
        let field =
            |reg: u32, shift: u32, bits: u32| ((reg >> shift) & ((1 << bits) - 1)) as usize + 1;
        let line = field(ebx, 0, 12);
        let partitions = field(ebx, 12, 10);
        let ways = field(ebx, 22, 10);
        let sets = ecx as usize + 1;
        Some(LastLevelCache {
            level: (eax >> 5) & 0x7,
            bytes: line * partitions * ways * sets,
            threads: field(eax, 14, 12),
        })
    }
}

/// The last-level data or unified cache CPUID reports: the highest level
/// listed by leaf 4 (Intel), else by leaf 0x8000_001D (AMD); `None` where
/// neither lists one, and on other architectures.
pub fn last_level_cache() -> Option<LastLevelCache> {
    #[cfg(target_arch = "x86_64")]
    {
        // `__cpuid` is safe from Rust 1.88 on and `unsafe` before it.
        #[allow(unused_unsafe)]
        // SAFETY: every x86-64 CPU implements CPUID, and only leaves the
        // CPU reports as supported are read.
        let read = |leaf: u32, sub: u32| unsafe { std::arch::x86_64::__cpuid_count(leaf, sub) };
        let highest = |leaf: u32| {
            // Subleaves run until a null entry; real parts list at most
            // five caches, so the bound only guards against a broken
            // hypervisor.
            (0..16)
                .map(|sub| read(leaf, sub))
                .take_while(|r| r.eax & 0x1F != 0)
                .filter_map(|r| LastLevelCache::from_cpuid(r.eax, r.ebx, r.ecx))
                .max_by_key(|c| c.level)
        };
        let max_basic = read(0, 0).eax;
        let max_extended = read(0x8000_0000, 0).eax;
        let intel = if max_basic >= 4 { highest(4) } else { None };
        intel.or_else(|| {
            if max_extended >= 0x8000_001D {
                highest(0x8000_001D)
            } else {
                None
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// The streaming cutoff in bytes, resolved once per process: the
/// last-level cache's [`LastLevelCache::stream_cutoff`], or
/// [`FALLBACK_CUTOFF`] where the CPU reports no last-level cache.
pub fn stream_cutoff() -> usize {
    static CUTOFF: OnceLock<usize> = OnceLock::new();
    *CUTOFF
        .get_or_init(|| last_level_cache().map_or(FALLBACK_CUTOFF, LastLevelCache::stream_cutoff))
}

/// Zeroes `buf`, choosing the reset strategy by size: a plain cached
/// `fill(0)` at or below [`stream_cutoff`] (the map is about to be
/// re-read, and it fits the cache), streaming non-temporal stores above
/// it.
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
    zero_with_cutoff(buf, stream_cutoff());
}

/// Zeroes `buf` with a cached `fill(0)` at or below `cutoff` bytes and
/// with streaming stores above it: [`nontemporal_zero`] with the cutoff
/// passed in.
pub fn zero_with_cutoff(buf: &mut [u8], cutoff: usize) {
    if buf.len() <= cutoff {
        buf.fill(0);
    } else {
        stream_zero(buf);
    }
}

/// Zeroes `buf` with non-temporal streaming stores unconditionally (where
/// the platform supports them), bypassing the cache regardless of size.
///
/// This is the raw §IV-E mechanism; prefer [`nontemporal_zero`] unless you
/// are deliberately forcing the strategy (the `reset_8M` criterion group
/// does).
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
        zero_with_cutoff(&mut [], 0);
    }

    #[test]
    fn both_arms_zero_on_either_side_of_the_cutoff() {
        // A cutoff of 0 streams every non-empty buffer; one at the length
        // fills it. Each window starts off a 16-byte boundary so the
        // streaming arm's head and tail run too.
        for len in [1usize, 1024, 4096 + 7, 1 << 16] {
            for cutoff in [0, len - 1, len, usize::MAX] {
                let mut buf = vec![0x77u8; len + 9];
                zero_with_cutoff(&mut buf[3..3 + len], cutoff);
                assert!(
                    buf[3..3 + len].iter().all(|&x| x == 0),
                    "len {len} cutoff {cutoff}"
                );
                assert!(buf[..3].iter().chain(&buf[3 + len..]).all(|&x| x == 0x77));
            }
        }
    }

    #[test]
    fn decodes_cpuid_cache_leaves() {
        // A 2-vCPU VM's leaf-4 L3 subleaf: 300 MiB, 20-way, 64-byte lines,
        // 245,760 sets, two addressable thread IDs.
        let vm = LastLevelCache::from_cpuid(0x0400_4163, 0x04C0_003F, 0x0003_BFFF);
        assert_eq!(
            vm,
            Some(LastLevelCache {
                level: 3,
                bytes: 300 << 20,
                threads: 2,
            })
        );
        // 37.5 MiB.
        assert_eq!(vm.unwrap().stream_cutoff(), 75 << 19);
        // A Xeon E5645's L3 (12 MiB, 16-way, 12,288 sets), whose field
        // reports 16 addressable IDs for its 12 threads.
        let e5645 = LastLevelCache::from_cpuid(0x0003_C163, 0x03C0_003F, 12_287).unwrap();
        assert_eq!((e5645.level, e5645.bytes, e5645.threads), (3, 12 << 20, 16));
        assert_eq!(e5645.stream_cutoff(), 192 << 10);
        // The L1 instruction cache and the null entry decode to nothing.
        assert_eq!(
            LastLevelCache::from_cpuid(0x0400_0122, 0x01C0_003F, 0x3F),
            None
        );
        assert_eq!(LastLevelCache::from_cpuid(0, 0, 0), None);
    }

    #[test]
    fn resolved_cutoff_is_the_llc_share_or_the_fallback() {
        let expect = match last_level_cache() {
            Some(llc) => llc.bytes / llc.threads / LLC_SHARE_DIVISOR,
            None => FALLBACK_CUTOFF,
        };
        assert_eq!(stream_cutoff(), expect);
        // Resolved once: every later call returns the same value.
        assert_eq!(stream_cutoff(), expect);
        if let Some(llc) = last_level_cache() {
            assert!(
                llc.level >= 1 && llc.bytes > 0 && llc.threads >= 1,
                "{llc:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn equivalent_to_fill_zero(
            mut data in prop::collection::vec(any::<u8>(), 0..4096),
            cutoff in 0usize..4096,
        ) {
            zero_with_cutoff(&mut data, cutoff);
            prop_assert!(data.iter().all(|&b| b == 0));
        }
    }
}
