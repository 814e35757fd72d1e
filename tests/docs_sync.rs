//! Keeps generated documentation in sync with the code that defines it.

/// The README's "Environment knobs" table is pasted from
/// `bigmap_core::env::markdown_table()` (via the `print_env_table`
/// example). If a knob is added, removed or reworded, regenerate the
/// README block:
///
/// ```bash
/// cargo run -p bigmap-core --example print_env_table
/// ```
#[test]
fn readme_env_table_matches_declarations() {
    let readme = include_str!("../README.md");
    let table = bigmap::core::env::markdown_table();
    assert!(
        readme.contains(table.trim_end()),
        "README env table is out of date; regenerate with \
         `cargo run -p bigmap-core --example print_env_table`"
    );
}

/// Every declared knob appears in the README at least once outside the
/// table too (prose or examples), so renames can't leave dangling docs.
#[test]
fn readme_mentions_every_knob() {
    let readme = include_str!("../README.md");
    for knob in bigmap::core::env::KNOBS {
        assert!(
            readme.contains(knob.name),
            "README never mentions {}",
            knob.name
        );
    }
}

/// A deleted knob must not be ignored silently: a process that still sets
/// one gets the unrecognized-knob warning on its first knob read (here,
/// the worker binary's handshake check).
#[test]
fn deleted_knobs_warn_as_unrecognized() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_fabric_worker"))
        .env_remove("BIGMAP_FABRIC_WORKER")
        .env("BIGMAP_SPARSE", "off")
        .env("BIGMAP_KERNEL", "scalar")
        .output()
        .expect("run fabric_worker");
    let stderr = String::from_utf8_lossy(&output.stderr);
    for name in ["BIGMAP_SPARSE", "BIGMAP_KERNEL"] {
        assert!(
            stderr.contains(&format!("unrecognized environment knob {name}")),
            "{name} was not reported as unrecognized:\n{stderr}"
        );
    }
}
