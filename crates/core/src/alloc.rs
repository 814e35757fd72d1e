//! Page-aligned, huge-page-backed map buffers (§IV-E and the giant-map
//! regime).
//!
//! Large coverage maps occupy many DTLB slots; the paper's final §IV-E
//! optimization backs the index and coverage bitmaps with huge pages to cut
//! page-walk overhead. This module implements two backends behind one
//! policy knob (`BIGMAP_HUGE`):
//!
//! * **`explicit`** — `mmap(MAP_HUGETLB)` against the hugetlbfs pool,
//!   trying 1 GiB pages first for gigantic buffers and 2 MiB pages
//!   otherwise. Reservation can fail at any moment (empty pool, fragmented
//!   host, unsupported kernel), so the allocator falls back to plain pages
//!   and records the fallback — never an error.
//! * **`off`** (default) — plain pages, with `madvise(MADV_NOHUGEPAGE)` so
//!   even a `transparent_hugepage=always` host does not promote the range
//!   and the reported `plain` backend is what served it.
//!
//! Which backend actually served each buffer, and whether an explicit
//! request fell back, is recorded per buffer ([`MapBuffer::backend`],
//! [`MapBuffer::fell_back`]); the fuzzer's telemetry layer surfaces it
//! per campaign through `CoverageMap::alloc_info`.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// Alignment used for map allocations: the x86-64 huge-page size (2 MiB).
/// Smaller maps still benefit from the page alignment (no straddled lines,
/// SIMD stores are always aligned).
pub const HUGE_PAGE_BYTES: usize = 2 * 1024 * 1024;

/// The x86-64 gigantic-page size (1 GiB), tried first by the explicit
/// backend for buffers that are a whole multiple of it.
pub const GIGANTIC_PAGE_BYTES: usize = 1024 * 1024 * 1024;

// ---------------------------------------------------------------- policies

/// How map memory is requested from the kernel (`BIGMAP_HUGE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HugePolicy {
    /// Reserve hugetlbfs pages via `mmap(MAP_HUGETLB)`; fall back to
    /// plain pages.
    Explicit,
    /// Plain pages, opted out of THP promotion (the default).
    #[default]
    Off,
}

impl HugePolicy {
    /// The knob spelling of this policy.
    pub fn label(self) -> &'static str {
        match self {
            HugePolicy::Explicit => "explicit",
            HugePolicy::Off => "off",
        }
    }
}

impl fmt::Display for HugePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The pure parse policy behind `BIGMAP_HUGE` (`None` = unset). Unknown
/// values — among them `thp`, the deleted transparent-huge-page rung —
/// warn on stderr and read as the default.
pub fn parse_huge(raw: Option<&str>) -> HugePolicy {
    let Some(raw) = raw else {
        return HugePolicy::default();
    };
    match raw.trim() {
        "explicit" => HugePolicy::Explicit,
        "off" => HugePolicy::Off,
        _ => {
            eprintln!("BIGMAP_HUGE={raw}: unknown policy (expected explicit|off), using off");
            HugePolicy::default()
        }
    }
}

/// The backend that actually served an allocation — what the telemetry
/// layer reports per buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocBackend {
    /// `mmap(MAP_HUGETLB | MAP_HUGE_1GB)` gigantic pages.
    ExplicitGigantic,
    /// `mmap(MAP_HUGETLB)` 2 MiB hugetlb pages.
    ExplicitHuge,
    /// Heap allocation on plain pages (the `off` policy, a sub-huge-page
    /// buffer, or an explicit request the host refused).
    Plain,
}

impl AllocBackend {
    /// Stable label used in telemetry and bench output.
    pub fn label(self) -> &'static str {
        match self {
            AllocBackend::ExplicitGigantic => "explicit_1g",
            AllocBackend::ExplicitHuge => "explicit_2m",
            AllocBackend::Plain => "plain",
        }
    }
}

impl fmt::Display for AllocBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// -------------------------------------------------- process / thread state

thread_local! {
    static HUGE_OVERRIDE: Cell<Option<HugePolicy>> = const { Cell::new(None) };
}

/// The effective huge-page policy for allocations on this thread: a scoped
/// [`with_huge_policy`] override if active, else the process-wide
/// `BIGMAP_HUGE` value (parsed once).
pub fn huge_policy() -> HugePolicy {
    if let Some(p) = HUGE_OVERRIDE.with(Cell::get) {
        return p;
    }
    static PROCESS: OnceLock<HugePolicy> = OnceLock::new();
    *PROCESS.get_or_init(crate::env::huge_request)
}

/// Runs `f` with this thread's allocations forced to `policy`, restoring
/// the previous override on exit. This is how the bench harness and the
/// cross-policy equivalence tests compare backends inside one process
/// without touching the environment.
pub fn with_huge_policy<R>(policy: HugePolicy, f: impl FnOnce() -> R) -> R {
    let prev = HUGE_OVERRIDE.with(|c| c.replace(Some(policy)));
    struct Restore(Option<HugePolicy>);
    impl Drop for Restore {
        fn drop(&mut self) {
            HUGE_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------- MapBuffer

/// A fixed-size, zero-initialized, huge-page-aligned buffer of `T`.
///
/// `T` is restricted (via the sealed [`MapElement`] trait) to plain integer
/// element types for which the all-zeroes bit pattern is a valid value,
/// which is what makes zero-initialized allocation sound.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::alloc::MapBuffer;
///
/// let mut buf: MapBuffer<u8> = MapBuffer::zeroed(4096);
/// assert!(buf.iter().all(|&b| b == 0));
/// buf[7] = 42;
/// assert_eq!(buf[7], 42);
/// ```
pub struct MapBuffer<T: MapElement> {
    ptr: *mut T,
    len: usize,
    /// Bytes covered by the backing `mmap`, or 0 for heap allocations —
    /// tells `Drop` whether to `munmap` or `dealloc`.
    mapped: usize,
    backend: AllocBackend,
    fell_back: bool,
    _marker: PhantomData<T>,
}

// SAFETY: MapBuffer owns its allocation exclusively; T is a plain integer.
unsafe impl<T: MapElement> Send for MapBuffer<T> {}
// SAFETY: shared access only hands out &[T]; no interior mutability.
unsafe impl<T: MapElement> Sync for MapBuffer<T> {}

mod private {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// Element types allowed in a [`MapBuffer`].
///
/// This trait is sealed: it is implemented for `u8`, `u16`, `u32` and `u64`
/// and cannot be implemented outside this crate. All implementors are plain
/// integers whose all-zeroes bit pattern is a valid value.
pub trait MapElement: private::Sealed + Copy + 'static {}

impl MapElement for u8 {}
impl MapElement for u16 {}
impl MapElement for u32 {}
impl MapElement for u64 {}

impl<T: MapElement> MapBuffer<T> {
    /// Allocates a zeroed buffer of `len` elements, aligned to
    /// [`HUGE_PAGE_BYTES`], using the thread's effective huge-page policy
    /// ([`huge_policy`]).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or if the allocation size overflows `isize`.
    /// Aborts (via [`handle_alloc_error`]) if the allocator fails.
    pub fn zeroed(len: usize) -> Self {
        Self::zeroed_with(len, huge_policy())
    }

    /// Allocates a zeroed buffer of `len` elements under an explicit
    /// huge-page policy, bypassing the process/thread default.
    ///
    /// Every policy yields a correctly aligned, fully zeroed buffer; only
    /// the backing pages differ. When `policy` asks for explicit huge pages
    /// and the host cannot serve them, the buffer silently degrades to
    /// plain pages and [`MapBuffer::fell_back`] reports it.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or if the allocation size overflows `isize`.
    pub fn zeroed_with(len: usize, policy: HugePolicy) -> Self {
        assert!(len > 0, "MapBuffer length must be non-zero");
        let layout = Self::layout(len);
        let bytes = layout.size();

        let mut fell_back = false;
        if policy == HugePolicy::Explicit && bytes >= HUGE_PAGE_BYTES {
            if let Some(buf) = Self::try_explicit(len, bytes) {
                return buf;
            }
            fell_back = true;
        }

        // Heap path on plain pages, for `off` and the explicit fallback.
        // SAFETY: layout has non-zero size (len > 0, size_of::<T>() >= 1).
        let raw = unsafe { alloc_zeroed(layout) };
        if raw.is_null() {
            handle_alloc_error(layout);
        }
        advise_no_huge_pages(raw, bytes);
        MapBuffer {
            ptr: raw.cast::<T>(),
            len,
            mapped: 0,
            backend: AllocBackend::Plain,
            fell_back,
            _marker: PhantomData,
        }
    }

    /// Attempts the explicit hugetlb backend: 1 GiB pages when `bytes` is a
    /// whole multiple of the gigantic-page size, else 2 MiB pages. `None`
    /// when the kernel refuses (no pool, no support) — the caller falls
    /// back.
    #[cfg(target_os = "linux")]
    fn try_explicit(len: usize, bytes: usize) -> Option<Self> {
        let mut attempts: [Option<(usize, libc::c_int, AllocBackend)>; 2] = [None, None];
        if bytes.is_multiple_of(GIGANTIC_PAGE_BYTES) {
            attempts[0] = Some((bytes, libc::MAP_HUGE_1GB, AllocBackend::ExplicitGigantic));
        }
        let huge_rounded = bytes.div_ceil(HUGE_PAGE_BYTES) * HUGE_PAGE_BYTES;
        attempts[1] = Some((huge_rounded, libc::MAP_HUGE_2MB, AllocBackend::ExplicitHuge));
        for (mapped, size_flag, backend) in attempts.into_iter().flatten() {
            // SAFETY: anonymous private mapping with no address hint; the
            // kernel either returns a fresh zeroed region of `mapped` bytes
            // or MAP_FAILED.
            let addr = unsafe {
                libc::mmap(
                    std::ptr::null_mut(),
                    mapped,
                    libc::PROT_READ | libc::PROT_WRITE,
                    libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_HUGETLB | size_flag,
                    -1,
                    0,
                )
            };
            if addr != libc::MAP_FAILED {
                debug_assert_eq!(addr as usize % HUGE_PAGE_BYTES, 0);
                return Some(MapBuffer {
                    ptr: addr.cast::<T>(),
                    len,
                    mapped,
                    backend,
                    fell_back: false,
                    _marker: PhantomData,
                });
            }
        }
        None
    }

    /// Non-Linux stub: explicit huge pages are unavailable, always fall
    /// back.
    #[cfg(not(target_os = "linux"))]
    fn try_explicit(_len: usize, _bytes: usize) -> Option<Self> {
        None
    }

    /// Allocates a buffer of `len` elements with every element set to `fill`.
    ///
    /// BigMap's index bitmap uses this with `u32::MAX` (the paper's `-1`
    /// sentinel) — the single whole-map touch of the entire campaign.
    pub fn filled(len: usize, fill: T) -> Self {
        let mut buf = Self::zeroed(len);
        buf.as_mut_slice().fill(fill);
        buf
    }

    /// The backend that actually served this buffer.
    #[inline]
    pub fn backend(&self) -> AllocBackend {
        self.backend
    }

    /// Whether an explicit-huge-page request degraded to plain pages.
    #[inline]
    pub fn fell_back(&self) -> bool {
        self.fell_back
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero elements. Always `false` (construction
    /// rejects empty buffers); provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// View of the whole buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len elements for the lifetime of self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Mutable view of the whole buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: ptr is valid for len elements; &mut self guarantees
        // exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Raw pointer to the first element (used by the non-temporal reset).
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr
    }

    /// Raw mutable pointer to the first element.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }

    fn layout(len: usize) -> Layout {
        let size = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("MapBuffer size overflow");
        Layout::from_size_align(size, HUGE_PAGE_BYTES).expect("valid layout")
    }
}

impl<T: MapElement> Drop for MapBuffer<T> {
    fn drop(&mut self) {
        if self.mapped > 0 {
            // SAFETY: [ptr, ptr+mapped) is exactly the region mmap returned
            // in `try_explicit`.
            unsafe {
                libc::munmap(self.ptr.cast(), self.mapped);
            }
        } else {
            let layout = Self::layout(self.len);
            // SAFETY: ptr was allocated with exactly this layout in
            // `zeroed_with`.
            unsafe { dealloc(self.ptr.cast(), layout) }
        }
    }
}

impl<T: MapElement> Deref for MapBuffer<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: MapElement> DerefMut for MapBuffer<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: MapElement + fmt::Debug> fmt::Debug for MapBuffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapBuffer")
            .field("len", &self.len)
            .field("align", &HUGE_PAGE_BYTES)
            .field("backend", &self.backend)
            .finish()
    }
}

impl<T: MapElement> Clone for MapBuffer<T> {
    fn clone(&self) -> Self {
        let mut out = Self::zeroed(self.len);
        out.as_mut_slice().copy_from_slice(self.as_slice());
        out
    }
}

// ------------------------------------------------------------------ advice

/// Best-effort opt-out of THP promotion for heap buffers of at least one
/// huge page, so a `transparent_hugepage=always` host still serves the
/// plain pages the buffer reports. A failed or unsupported call is
/// ignored: page backing is an optimization (§IV-E), never a correctness
/// requirement.
#[cfg(target_os = "linux")]
fn advise_no_huge_pages(ptr: *mut u8, len: usize) {
    if len >= HUGE_PAGE_BYTES {
        // SAFETY: the range [ptr, ptr+len) is a live allocation we own;
        // MADV_NOHUGEPAGE is advice only and does not alter its contents.
        unsafe {
            libc::madvise(ptr.cast(), len, libc::MADV_NOHUGEPAGE);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_no_huge_pages(_ptr: *mut u8, _len: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_all_zero() {
        let buf: MapBuffer<u8> = MapBuffer::zeroed(1 << 16);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(buf.len(), 1 << 16);
        assert!(!buf.is_empty());
    }

    #[test]
    fn filled_sets_sentinel() {
        let buf: MapBuffer<u32> = MapBuffer::filled(1024, u32::MAX);
        assert!(buf.iter().all(|&w| w == u32::MAX));
    }

    #[test]
    fn alignment_is_huge_page() {
        let buf: MapBuffer<u8> = MapBuffer::zeroed(4096);
        assert_eq!(buf.as_ptr() as usize % HUGE_PAGE_BYTES, 0);
    }

    #[test]
    fn deref_and_index() {
        let mut buf: MapBuffer<u8> = MapBuffer::zeroed(64);
        buf[3] = 9;
        assert_eq!(buf[3], 9);
        assert_eq!(buf.iter().filter(|&&b| b != 0).count(), 1);
    }

    #[test]
    fn clone_copies_contents() {
        let mut buf: MapBuffer<u64> = MapBuffer::zeroed(128);
        buf[100] = 0xdead_beef;
        let copy = buf.clone();
        assert_eq!(copy[100], 0xdead_beef);
        assert_eq!(copy.len(), 128);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_length_rejected() {
        let _ = MapBuffer::<u8>::zeroed(0);
    }

    #[test]
    fn large_allocation_works() {
        // The paper's 8 MiB point plus the 32 MiB sweep extreme.
        let buf: MapBuffer<u8> = MapBuffer::zeroed(32 << 20);
        assert_eq!(buf.len(), 32 << 20);
        assert_eq!(buf[32 << 20 >> 1], 0);
    }

    #[test]
    fn every_policy_yields_aligned_zeroed_memory() {
        // The fallback contract: no matter what the host supports, every
        // policy produces a correctly aligned, fully zeroed buffer.
        for policy in [HugePolicy::Explicit, HugePolicy::Off] {
            let mut buf: MapBuffer<u8> = MapBuffer::zeroed_with(4 << 20, policy);
            assert_eq!(
                buf.as_ptr() as usize % HUGE_PAGE_BYTES,
                0,
                "{policy}: misaligned"
            );
            assert!(buf.iter().all(|&b| b == 0), "{policy}: not zeroed");
            buf[3 << 20] = 7;
            assert_eq!(buf[3 << 20], 7, "{policy}: not writable");
        }
    }

    #[test]
    fn explicit_request_is_served_or_recorded_as_fallback() {
        let buf: MapBuffer<u8> = MapBuffer::zeroed_with(4 << 20, HugePolicy::Explicit);
        match buf.backend() {
            AllocBackend::ExplicitHuge | AllocBackend::ExplicitGigantic => {
                assert!(!buf.fell_back());
            }
            // No hugetlb pool on this host: the buffer itself must record
            // the fallback.
            AllocBackend::Plain => assert!(buf.fell_back()),
        }
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn off_policy_reports_plain_backend() {
        let buf: MapBuffer<u8> = MapBuffer::zeroed_with(4 << 20, HugePolicy::Off);
        assert_eq!(buf.backend(), AllocBackend::Plain);
        assert!(!buf.fell_back());
    }

    #[test]
    fn sub_huge_page_buffers_never_use_hugetlb() {
        // Explicit policy on a 4 KiB buffer: hugetlb would waste a full
        // 2 MiB page, so the small-buffer path stays on the heap and is
        // not a fallback.
        let buf: MapBuffer<u8> = MapBuffer::zeroed_with(4096, HugePolicy::Explicit);
        assert_eq!(buf.backend(), AllocBackend::Plain);
        assert!(!buf.fell_back());
    }

    #[test]
    fn with_huge_policy_scopes_and_restores() {
        let outer = huge_policy();
        with_huge_policy(HugePolicy::Off, || {
            assert_eq!(huge_policy(), HugePolicy::Off);
            with_huge_policy(HugePolicy::Explicit, || {
                assert_eq!(huge_policy(), HugePolicy::Explicit);
            });
            assert_eq!(huge_policy(), HugePolicy::Off);
        });
        assert_eq!(huge_policy(), outer);
    }

    #[test]
    fn parse_huge_policy_values() {
        assert_eq!(parse_huge(None), HugePolicy::Off);
        assert_eq!(parse_huge(Some("explicit")), HugePolicy::Explicit);
        assert_eq!(parse_huge(Some(" off ")), HugePolicy::Off);
        assert_eq!(parse_huge(Some("gigantic")), HugePolicy::Off);
        // The deleted transparent-huge-page value reads as off (its
        // warning is checked end to end in tests/docs_sync.rs).
        assert_eq!(parse_huge(Some("thp")), HugePolicy::Off);
    }

    #[test]
    fn explicit_buffers_survive_clone_and_drop() {
        // Clone of an explicit (or fallen-back) buffer re-allocates under
        // the current thread policy; both drops must take the right
        // deallocation path (munmap vs dealloc) without corruption.
        with_huge_policy(HugePolicy::Explicit, || {
            let mut a: MapBuffer<u8> = MapBuffer::zeroed(4 << 20);
            a[123] = 45;
            let b = a.clone();
            drop(a);
            assert_eq!(b[123], 45);
        });
    }
}
