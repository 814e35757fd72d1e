//! Target-engine selection.
//!
//! The fuzzer's executor runs the synthetic targets on the original
//! tree-walking interpreter (`tree`), or on the flattened threaded-
//! bytecode engine plus snapshot/dirty-state resets that resume mutated
//! children from the parent's memoized trace prefix (`auto`). Until a
//! parent snapshot is armed, `auto` runs the compiled engine front to
//! back. The mode is a pure dispatch choice: the compiled engine is
//! equivalence-proven against the tree walker (same outcomes, same full
//! trace-event sequence, same step counts) and snapshot resumes are
//! strictly conservative (any read possibly touched by the mutated byte
//! range forces re-execution from before that read), so both modes
//! produce bit-identical campaign trajectories.

/// Which target execution engine a fuzzer executor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterpMode {
    /// The original recursive tree-walking interpreter over the CFG IR.
    Tree,
    /// The flattened struct-of-arrays bytecode engine plus snapshot
    /// resets: the campaign memoizes the scheduled parent's trace and
    /// resumes each mutated child from the last step provably unaffected
    /// by the mutated byte range. Runs front to back while no snapshot is
    /// armed. The default: fastest path, trajectory-identical by
    /// construction.
    #[default]
    Auto,
}

impl InterpMode {
    /// The canonical lowercase label (`tree` / `auto`).
    pub fn label(self) -> &'static str {
        match self {
            InterpMode::Tree => "tree",
            InterpMode::Auto => "auto",
        }
    }

    /// Parses a label, case-insensitively. `None` for unknown values.
    pub fn from_label(label: &str) -> Option<Self> {
        match label.to_ascii_lowercase().as_str() {
            "tree" => Some(InterpMode::Tree),
            "auto" => Some(InterpMode::Auto),
            _ => None,
        }
    }

    /// Whether this mode runs the compiled bytecode engine and arms
    /// snapshot resets.
    pub fn uses_compiled(self) -> bool {
        matches!(self, InterpMode::Auto)
    }

    /// All modes, for exhaustive tests and equivalence sweeps.
    pub const ALL: [InterpMode; 2] = [InterpMode::Tree, InterpMode::Auto];
}

/// Resolves the interpreter mode from an env override (the raw value of
/// `BIGMAP_INTERP`, if set). Unknown values warn on stderr and fall back
/// to the default ([`InterpMode::Auto`]).
pub fn select_interp_mode(env_override: Option<&str>) -> InterpMode {
    match env_override {
        None => InterpMode::default(),
        Some(raw) => match InterpMode::from_label(raw.trim()) {
            Some(mode) => mode,
            None => {
                eprintln!(
                    "BIGMAP_INTERP={raw}: unknown engine (expected tree|auto), \
                     using auto"
                );
                InterpMode::default()
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for mode in InterpMode::ALL {
            assert_eq!(InterpMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(InterpMode::from_label("AUTO"), Some(InterpMode::Auto));
        assert_eq!(InterpMode::from_label("compiled"), None);
        assert_eq!(InterpMode::from_label("jit"), None);
    }

    #[test]
    fn select_falls_back_to_auto() {
        assert_eq!(select_interp_mode(None), InterpMode::Auto);
        assert_eq!(select_interp_mode(Some(" Tree ")), InterpMode::Tree);
        assert_eq!(select_interp_mode(Some("compiled")), InterpMode::Auto);
        assert_eq!(select_interp_mode(Some("bogus")), InterpMode::Auto);
    }

    #[test]
    fn only_auto_uses_the_compiled_engine() {
        assert!(!InterpMode::Tree.uses_compiled());
        assert!(InterpMode::Auto.uses_compiled());
        assert_eq!(InterpMode::default(), InterpMode::Auto);
    }
}
