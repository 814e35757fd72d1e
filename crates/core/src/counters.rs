//! Lock-free event counters for runtime telemetry.
//!
//! The fuzzer layer threads a per-instance statistics registry through the
//! campaign loop (see `bigmap-fuzzer::telemetry`); the primitive lives here
//! because the same hooks are useful to anything that owns a coverage map.
//! A counter costs one relaxed atomic add, so it can sit directly on the
//! per-test-case path without perturbing the Figure 3 / Figure 6
//! measurements it exists to observe. Counters hold event counts and, per
//! [`Layer`](crate::Layer), accumulated nanoseconds.

use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free monotone event counter.
///
/// Writers use relaxed atomics: counts are statistics, not synchronization
/// edges, and the campaign threads that increment them never contend with
/// anything but the (rare) snapshot reader.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::EventCounter;
///
/// let resets = EventCounter::new();
/// resets.incr();
/// resets.add(4);
/// assert_eq!(resets.get(), 5);
/// ```
#[derive(Debug, Default)]
pub struct EventCounter(AtomicU64);

impl EventCounter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        EventCounter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_accumulates() {
        let c = EventCounter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn stage_nanos_accumulates() {
        // A layer's clock is a counter of nanoseconds: sums past u32 range
        // (4.3 s) must not wrap.
        let s = EventCounter::new();
        s.add(3_000_000_000);
        s.add(3_000_000_042);
        assert_eq!(s.get(), 6_000_000_042);
    }

    #[test]
    fn counters_are_shareable_across_threads() {
        let c = Arc::new(EventCounter::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4_000);
    }
}
