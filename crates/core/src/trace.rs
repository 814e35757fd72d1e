//! Trace-mode selection for two-speed execution.
//!
//! The campaign can run every test case with full coverage tracing
//! (`always`), run untraced fast execs and re-trace only the ones the
//! novelty oracle flags (`selective`), or let the campaign fall back to
//! direct tracing in windows where selective tracing is re-tracing
//! almost everything anyway (`auto`). Each campaign picks its mode
//! (`CampaignConfig::trace`, default `always`). The mode is a pure
//! dispatch choice: selective tracing is coverage-preserving by construction
//! (the oracle is strictly conservative), so all three modes produce
//! bit-identical campaign trajectories.

/// Which execution speed(s) the campaign uses per test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Every exec runs fully traced into the coverage map. The default:
    /// maximum telemetry fidelity, no oracle in the loop.
    #[default]
    Always,
    /// Execs run untraced first; only oracle-flagged ones re-run traced.
    Selective,
    /// Selective, with a deterministic windowed fallback to direct
    /// tracing when recent re-trace rates make the fast pass pure
    /// overhead.
    Auto,
}

impl TraceMode {
    /// All modes, for exhaustive tests and equivalence sweeps.
    pub const ALL: [TraceMode; 3] = [TraceMode::Always, TraceMode::Selective, TraceMode::Auto];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_always() {
        assert_eq!(TraceMode::default(), TraceMode::Always);
    }
}
