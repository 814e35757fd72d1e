//! The [`CoverageMetric`] trait.

use std::any::Any;
use std::fmt;

use crate::event::TraceEvent;

/// Identifies a metric family (used in benchmark report headers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// AFL's edge hit-count metric.
    Edge,
    /// N-gram partial path coverage (hash of the last N blocks).
    NGram(usize),
    /// Calling-context-sensitive edge coverage.
    ContextSensitive,
    /// Plain basic-block coverage.
    Block,
    /// A stack of several metrics writing into one map.
    Stack,
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricKind::Edge => f.write_str("edge"),
            MetricKind::NGram(n) => write!(f, "ngram{n}"),
            MetricKind::ContextSensitive => f.write_str("ctx-edge"),
            MetricKind::Block => f.write_str("block"),
            MetricKind::Stack => f.write_str("stacked"),
        }
    }
}

/// A coverage metric: folds a stream of trace events into raw coverage keys.
///
/// The metric owns the per-execution state that the instrumentation would
/// keep in shared memory or thread-locals (AFL's `prev_loc`, AFL++'s N-gram
/// history, Angora's calling-context hash). [`begin_execution`] resets that
/// state; it does **not** touch any coverage map.
///
/// Keys are raw 32-bit hashes; the coverage map folds them into its hash
/// space. A metric may emit zero or more keys per event.
///
/// Implementors must be `'static` (the [`Any`] supertrait): the fuzzer's
/// executor downcasts a `&mut dyn CoverageMetric` once per execution to
/// find [`EdgeHitCount`](crate::EdgeHitCount) and [`NGram`](crate::NGram)
/// and inline their `on_event`. Any other implementor still works, through
/// the trait object; the downcast is by concrete type, never by
/// [`kind`](CoverageMetric::kind).
///
/// [`begin_execution`]: CoverageMetric::begin_execution
pub trait CoverageMetric: Any + Send {
    /// The metric family.
    fn kind(&self) -> MetricKind;

    /// Resets per-execution state. Call once before each target execution.
    ///
    /// Must reset *all* of it: the keys an execution emits have to be a
    /// pure function of that execution's event stream. The fuzzer skips
    /// tracing an execution whose stream equals one already traced and
    /// judged, which is sound only under this rule.
    fn begin_execution(&mut self);

    /// Processes one trace event, emitting coverage keys through `sink`.
    fn on_event(&mut self, event: TraceEvent, sink: &mut dyn FnMut(u32));

    /// Expected number of distinct keys produced per distinct program edge —
    /// the metric's *map pressure* multiplier relative to plain edge
    /// coverage (§VI: context-sensitive coverage puts up to 8x more pressure
    /// on the bitmap; N-gram raises pressure too).
    fn pressure_factor(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels() {
        assert_eq!(MetricKind::Edge.to_string(), "edge");
        assert_eq!(MetricKind::NGram(3).to_string(), "ngram3");
        assert_eq!(MetricKind::ContextSensitive.to_string(), "ctx-edge");
        assert_eq!(MetricKind::Block.to_string(), "block");
        assert_eq!(MetricKind::Stack.to_string(), "stacked");
    }
}
