//! Per-layer runtime accounting (regenerates Figure 3).
//!
//! The paper's Figure 3 decomposes a campaign's wall-clock time into target
//! execution plus the map operations. The fuzzer keeps one running
//! timestamp through its loop and closes each timed step — a [`Layer`] —
//! with a single clock read, adding the elapsed nanoseconds to an
//! [`OpStats`] (and to the live telemetry, when attached). The layers tile
//! the loop, so they sum to its wall time; the Figure 3 harness folds them
//! into the paper's stacked columns.

use std::fmt;
use std::time::Duration;

/// Declares [`Layer`] from one table of `Variant => "label"` rows, so the
/// order, the label and the telemetry key cannot drift apart. The
/// declaration order is the accumulator slot and the serialization order.
macro_rules! layers {
    ($($(#[$doc:meta])* $variant:ident => $label:literal,)*) => {
        /// The timed steps of the campaign loop, named after the
        /// end-to-end benchmark's span labels.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Layer {
            $($(#[$doc])* $variant,)*
        }

        impl Layer {
            /// Number of layers.
            pub const COUNT: usize = [$(stringify!($variant)),*].len();

            /// Every layer, in loop order.
            pub const ALL: [Layer; Layer::COUNT] = [$(Layer::$variant),*];

            /// The span label (`"map.reset"`, `"executor"`, …).
            pub fn label(self) -> &'static str {
                match self {
                    $(Layer::$variant => $label,)*
                }
            }

            /// The telemetry JSON key of this layer's nanoseconds:
            /// `<label>_nanos`.
            pub fn key(self) -> &'static str {
                match self {
                    $(Layer::$variant => concat!($label, "_nanos"),)*
                }
            }
        }
    };
}

layers! {
    /// Choosing the next queue entry and copying its input.
    QueueSchedule => "queue.schedule",
    /// Recording the scheduled parent's snapshot for the compiled engine.
    SnapshotPrime => "snapshot.prime",
    /// Generating a parent's deterministic-stage children.
    MutateDet => "mutate.det",
    /// Generating one havoc/splice child.
    MutateHavoc => "mutate.havoc",
    /// Coverage-map reset before each traced test case.
    MapReset => "map.reset",
    /// Running the target, bitmap updates included (as in the paper, where
    /// the update happens inside the instrumented execution), plus the
    /// untraced fast pass under selective tracing.
    Executor => "executor",
    /// The standalone classify pass (split pipeline only).
    MapClassify => "map.classify",
    /// Virgin-map compare; the merged classify+compare pass counts here.
    MapCompare => "map.compare",
    /// Bitmap hash (admitted test cases only).
    MapHash => "map.hash",
    /// Queue admission: trim, slot scan and queue add.
    QueueAdmit => "queue.admit",
    /// Crash triage (Crashwalk bucketing).
    Crashwalk => "crashwalk",
    /// The sync hook between mutation batches (corpus exchange,
    /// checkpoints), injected faults included.
    Sync => "sync",
}

impl Layer {
    /// The map operations Figure 3 breaks out (reset, classify, compare,
    /// hash): the quantity BigMap attacks.
    pub fn is_map_op(self) -> bool {
        matches!(
            self,
            Layer::MapReset | Layer::MapClassify | Layer::MapCompare | Layer::MapHash
        )
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated nanoseconds per layer.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::{Layer, OpStats};
/// use std::time::Duration;
///
/// let mut stats = OpStats::new();
/// stats.add(Layer::Executor, 30_000_000);
/// stats.add(Layer::MapReset, 10_000_000);
/// assert_eq!(stats.total(), Duration::from_millis(40));
/// assert_eq!(stats.map_ops_total(), Duration::from_millis(10));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStats {
    nanos: [u64; Layer::COUNT],
}

impl OpStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        OpStats::default()
    }

    /// Adds `nanos` to `layer`'s accumulator.
    #[inline]
    pub fn add(&mut self, layer: Layer, nanos: u64) {
        self.nanos[layer as usize] += nanos;
    }

    /// Total time recorded for `layer`.
    pub fn get(&self, layer: Layer) -> Duration {
        Duration::from_nanos(self.nanos[layer as usize])
    }

    /// Sum over all layers.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Scales every accumulator by `factor` — used to extrapolate a measured
    /// run to the paper's "time per one million test cases" normalization.
    pub fn scaled(&self, factor: f64) -> OpStats {
        OpStats {
            nanos: self.nanos.map(|n| (n as f64 * factor) as u64),
        }
    }

    /// Sum of the map-operation layers only ([`Layer::is_map_op`]).
    pub fn map_ops_total(&self) -> Duration {
        Duration::from_nanos(
            Layer::ALL
                .iter()
                .filter(|layer| layer.is_map_op())
                .map(|&layer| self.nanos[layer as usize])
                .sum(),
        )
    }
}

impl fmt::Display for OpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{layer}: {:?}", self.get(layer))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_totals() {
        assert_eq!(OpStats::new().total(), Duration::ZERO);
        let mut s = OpStats::new();
        s.add(Layer::Executor, 5_000_000);
        s.add(Layer::Executor, 5_000_000);
        s.add(Layer::MapHash, 10_000_000);
        assert_eq!(s.get(Layer::Executor), Duration::from_millis(10));
        assert_eq!(s.get(Layer::MapReset), Duration::ZERO);
        assert_eq!(s.total(), Duration::from_millis(20));
    }

    #[test]
    fn scaled_extrapolates() {
        let mut s = OpStats::new();
        s.add(Layer::MapClassify, 100_000_000);
        let doubled = s.scaled(2.0);
        assert_eq!(doubled.get(Layer::MapClassify), Duration::from_millis(200));
    }

    #[test]
    fn map_ops_total_excludes_execution_and_other() {
        let mut s = OpStats::new();
        for layer in Layer::ALL {
            s.add(layer, if layer.is_map_op() { 1 } else { 100 });
        }
        assert_eq!(s.map_ops_total(), Duration::from_nanos(4));
        assert_eq!(
            s.total(),
            Duration::from_nanos(4 + 100 * (Layer::COUNT as u64 - 4))
        );
    }

    #[test]
    fn display_mentions_every_stage() {
        let text = OpStats::new().to_string();
        for layer in Layer::ALL {
            assert!(text.contains(layer.label()), "missing {layer}");
        }
    }

    #[test]
    fn duration_conversion_handles_large_values() {
        let mut s = OpStats::new();
        for _ in 0..1000 {
            s.add(Layer::Executor, 10_000 * 1_000_000_000);
        }
        assert_eq!(s.total(), Duration::from_secs(10_000_000));
    }
}
