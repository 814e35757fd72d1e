//! The `BIGMAP_*` environment knobs, in one place.
//!
//! Every runtime tunable the workspace reads from the environment is
//! declared here as a [`Knob`]: its name, accepted values, default and
//! one-line description. The typed accessors ([`interp_request`],
//! [`huge_request`], [`fabric_worker`]) parse and validate in one pass and
//! are the only code in the workspace that calls `std::env::var` for a
//! `BIGMAP_*` name, so the registry cannot drift from the behaviour.
//!
//! Knobs are the exception, not the rule: every other policy (sparse
//! dispatch, trace mode, checkpoint retention, liveness deadline) is a
//! per-campaign or per-fleet config field, and the map-op kernel is
//! whatever the CPU supports. Process-wide state is inherited by fleet
//! children and cannot be varied inside one test binary, so a knob has
//! to earn its place.
//!
//! Two consequences of centralizing:
//!
//! * The README's knob table is **generated** from the registry
//!   ([`markdown_table`]) and a facade test asserts the README contains
//!   it verbatim — documentation cannot go stale.
//! * The first knob read scans the process environment for `BIGMAP_*`
//!   names the registry does not know and warns once per process
//!   ([`warn_unrecognized_once`]) — a typo like `BIGMAP_HUGH=off`, or a
//!   knob that no longer exists, surfaces immediately instead of
//!   silently doing nothing.
//!
//! # Examples
//!
//! ```rust
//! use bigmap_core::env;
//!
//! // The registry knows every knob and renders the README table.
//! assert!(env::KNOBS.iter().any(|k| k.name == "BIGMAP_HUGE"));
//! let table = env::markdown_table();
//! assert!(table.contains("`BIGMAP_INTERP`"));
//! ```

use std::sync::OnceLock;

use crate::alloc::HugePolicy;
use crate::interp::InterpMode;

/// One documented environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// The environment variable name.
    pub name: &'static str,
    /// Accepted values, human-readable.
    pub values: &'static str,
    /// The effective default when unset.
    pub default: &'static str,
    /// One-line description (README table cell).
    pub description: &'static str,
}

/// Every `BIGMAP_*` knob the workspace reads, in documentation order.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "BIGMAP_INTERP",
        values: "`tree` \\| `auto`",
        default: "`auto`",
        description: "Target execution engine: `tree` walks the CFG IR, `auto` runs the \
                      flattened threaded bytecode with snapshot resets that resume mutated \
                      children from the scheduled parent's memoized trace prefix. Both modes \
                      produce bit-identical campaign trajectories.",
    },
    Knob {
        name: "BIGMAP_HUGE",
        values: "`explicit` \\| `thp` \\| `off`",
        default: "`thp`",
        description: "Map-buffer page backend: `explicit` reserves hugetlbfs pages via \
                      `mmap(MAP_HUGETLB)` (1 GiB pages where the size allows, else 2 MiB) and \
                      falls back to `thp` with a telemetry-visible record when the pool is \
                      empty; `thp` advises transparent huge pages; `off` opts out of THP — the \
                      benchmark control arm.",
    },
    Knob {
        name: "BIGMAP_FABRIC_WORKER",
        values: "`<index>/<count>/<heartbeat_ms>`",
        default: "unset",
        description: "Internal handshake set by the fleet parent on its child processes; a \
                      host binary that sees it assumes the worker role and heartbeats at the \
                      given cadence (`0`: no heartbeats). Not for manual use.",
    },
];

/// Looks a knob up by name.
pub fn knob(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// Renders the registry as the README's GitHub-flavored markdown table.
pub fn markdown_table() -> String {
    let mut out = String::from("| Variable | Values | Default | Effect |\n|---|---|---|---|\n");
    for knob in KNOBS {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            knob.name, knob.values, knob.default, knob.description
        ));
    }
    out
}

/// Scans the environment for `BIGMAP_*` names the registry does not
/// declare and warns on stderr — once per process, on the first knob
/// read. Returns the unrecognized names (empty almost always).
pub fn warn_unrecognized_once() -> &'static [String] {
    static UNRECOGNIZED: OnceLock<Vec<String>> = OnceLock::new();
    UNRECOGNIZED.get_or_init(|| {
        let mut unknown: Vec<String> = std::env::vars_os()
            .filter_map(|(name, _)| name.into_string().ok())
            .filter(|name| name.starts_with("BIGMAP_") && knob(name).is_none())
            .collect();
        unknown.sort();
        for name in &unknown {
            eprintln!(
                "bigmap: unrecognized environment knob {name} (known: {}); ignoring it",
                KNOBS.iter().map(|k| k.name).collect::<Vec<_>>().join(", ")
            );
        }
        unknown
    })
}

/// Reads a declared knob's raw value, triggering the one-time
/// unrecognized-name scan.
///
/// # Panics
///
/// Panics if `name` is not in [`KNOBS`] — reading an undeclared knob is
/// a bug in this crate, not a user error.
pub fn raw(name: &str) -> Option<String> {
    assert!(knob(name).is_some(), "undeclared BIGMAP knob {name}");
    warn_unrecognized_once();
    std::env::var(name).ok()
}

/// `BIGMAP_INTERP`: the requested target execution engine.
///
/// Unknown values warn on stderr and read as [`InterpMode::Auto`]; the
/// parse policy itself lives in [`crate::interp::select_interp_mode`].
pub fn interp_request() -> InterpMode {
    crate::interp::select_interp_mode(raw("BIGMAP_INTERP").as_deref())
}

/// `BIGMAP_HUGE`: the requested map-buffer page backend.
///
/// Unknown values warn on stderr and read as [`HugePolicy::Thp`]; the
/// parse policy itself lives in [`crate::alloc::parse_huge`].
pub fn huge_request() -> HugePolicy {
    crate::alloc::parse_huge(raw("BIGMAP_HUGE").as_deref())
}

/// `BIGMAP_FABRIC_WORKER`: the worker handshake `(index, count,
/// heartbeat_ms)`, if this process was spawned as a fleet worker. A
/// `heartbeat_ms` of 0 means no heartbeats. Malformed values (wrong
/// shape, `index >= count`) warn and read as `None` — the process then
/// runs its normal (parent) role rather than a half-configured worker.
pub fn fabric_worker() -> Option<(usize, usize, u64)> {
    let raw = raw("BIGMAP_FABRIC_WORKER")?;
    let parsed = parse_fabric_worker(&raw);
    if parsed.is_none() {
        eprintln!(
            "BIGMAP_FABRIC_WORKER={raw}: expected <index>/<count>/<heartbeat_ms> with \
             index < count; ignoring (running as a normal process)"
        );
    }
    parsed
}

/// The pure parse policy behind [`fabric_worker`].
fn parse_fabric_worker(raw: &str) -> Option<(usize, usize, u64)> {
    let mut fields = raw.trim().split('/').map(|f| f.trim().parse::<u64>().ok());
    let index = usize::try_from(fields.next()??).ok()?;
    let count = usize::try_from(fields.next()??).ok()?;
    let heartbeat_ms = fields.next()??;
    (fields.next().is_none() && index < count).then_some((index, count, heartbeat_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate knob names");
        assert!(names.iter().all(|n| n.starts_with("BIGMAP_")));
    }

    #[test]
    fn lookup_finds_declared_knobs_only() {
        assert!(knob("BIGMAP_INTERP").is_some());
        assert!(knob("BIGMAP_HUGE").is_some());
        assert!(knob("BIGMAP_HUGH").is_none());
    }

    #[test]
    fn markdown_table_lists_every_knob() {
        let table = markdown_table();
        for knob in KNOBS {
            assert!(
                table.contains(&format!("`{}`", knob.name)),
                "{} missing from the table",
                knob.name
            );
        }
        // Header plus one row per knob.
        assert_eq!(table.lines().count(), 2 + KNOBS.len());
    }

    #[test]
    #[should_panic(expected = "undeclared BIGMAP knob")]
    fn raw_rejects_undeclared_names() {
        let _ = raw("BIGMAP_NOT_A_KNOB");
    }

    // The typed accessors read the live process environment; tests cover
    // the unset path only (setting env vars in a threaded test binary is
    // racy). The parse policies are covered through their pure
    // counterparts (`select_interp_mode`, `parse_huge`,
    // `parse_fabric_worker`).
    #[test]
    fn unset_knobs_read_as_defaults() {
        if std::env::var_os("BIGMAP_FABRIC_WORKER").is_none() {
            assert_eq!(fabric_worker(), None);
        }
        if std::env::var_os("BIGMAP_INTERP").is_none() {
            assert_eq!(interp_request(), InterpMode::Auto);
        }
        if std::env::var_os("BIGMAP_HUGE").is_none() {
            assert_eq!(huge_request(), HugePolicy::Thp);
        }
    }

    #[test]
    fn fabric_handshake_parses_index_count_and_cadence() {
        assert_eq!(parse_fabric_worker(" 1/4/500 "), Some((1, 4, 500)));
        assert_eq!(parse_fabric_worker("0/1/0"), Some((0, 1, 0)));
        for malformed in ["", "1/4", "4/4/500", "1/4/500/9", "a/4/500", "1/4/-1"] {
            assert_eq!(parse_fabric_worker(malformed), None, "{malformed:?}");
        }
    }

    #[test]
    fn unrecognized_scan_is_stable() {
        // Whatever it returns, it returns the same slice forever after.
        let first = warn_unrecognized_once();
        let second = warn_unrecognized_once();
        assert_eq!(first.as_ptr(), second.as_ptr());
    }
}
