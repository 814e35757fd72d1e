//! Quickstart: fuzz a small synthetic target with BigMap.
//!
//! Builds a tiny gate-chain target with a planted crash behind a magic
//! value, fuzzes it for a fixed budget with the two-level map, and prints
//! what the campaign found. Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bigmap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A fuzz target: a chain of byte gates; solving "BUG!" crashes.
    //    In the reproduction, this stands in for an instrumented binary.
    let roadblocked = ProgramBuilder::new("quickstart")
        .gate(0, b'F', false)
        .gate(1, b'U', false)
        .loop_gate(2, 12)
        .magic_gate(4, b"BUG!", true)
        .build()?;

    // A 4-byte magic compare is a 2^32 lottery for blind mutation — so
    // apply laf-intel and let coverage feedback climb it byte by byte.
    let (program, laf) = apply_laf_intel(&roadblocked);
    println!(
        "target: {} blocks, {} static edges, {} crash site(s) \
         (laf-intel split {} comparison(s))",
        program.block_count(),
        program.static_edge_count(),
        program.crash_sites,
        laf.comparisons_split,
    );

    // 2. "Compile" the target for an 8 MiB map. BigMap makes this size
    //    essentially free, so there is no reason to gamble on 64 kB.
    let map_size = MapSize::M8;
    let instrumentation = Instrumentation::assign(
        program.block_count(),
        program.call_sites,
        map_size,
        0xC0FFEE,
    );

    // 3. Run the campaign.
    let interpreter = Interpreter::new(&program);
    let mut campaign = Campaign::new(
        CampaignConfig::builder()
            .scheme(MapScheme::TwoLevel)
            .map_size(map_size)
            .budget_execs(1_500_000)
            .build(),
        &interpreter,
        &instrumentation,
    );
    campaign.add_seeds(vec![b"hello world, have some bytes".to_vec()]);
    let stats = campaign.run();

    // 4. Report.
    println!(
        "ran {} execs in {:?} ({:.0}/sec)",
        stats.execs,
        stats.wall_time,
        stats.throughput()
    );
    println!(
        "queue: {} seeds | coverage slots used: {} of {} ({}%)",
        stats.queue_len,
        stats.used_len,
        map_size.bytes(),
        100 * stats.used_len / map_size.bytes(),
    );
    println!(
        "crashes: {} unique (Crashwalk), {} total",
        stats.unique_crashes, stats.total_crashes
    );
    println!("per-layer time: {}", stats.ops);

    if stats.unique_crashes > 0 {
        println!("\nThe planted BUG! was found — note how little of the 8 MiB");
        println!("map was actually touched: that used prefix is the only part");
        println!("BigMap's reset/classify/compare/hash ever traverse.");
    } else {
        println!("\nNo crash this time — havoc ladders are stochastic; re-run");
        println!("or raise the exec budget.");
    }
    Ok(())
}
