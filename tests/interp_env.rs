//! `BIGMAP_INTERP` selects the engine of campaigns whose
//! `CampaignConfig::interp` is unset, and nothing else: an explicit
//! `interp` overrides it, and an executor built directly runs
//! `InterpMode::Auto` whatever the environment says.
//!
//! The test sets the variable in its own process, so this binary holds
//! this one test and races nothing.

use std::sync::Arc;

use bigmap::fuzzer::EnginePath;
use bigmap::prelude::*;

#[test]
fn bigmap_interp_reaches_campaigns_only() {
    std::env::set_var("BIGMAP_INTERP", "tree");
    let spec = BenchmarkSpec::by_name("zlib").unwrap();
    let program = spec.build(0.05);
    let seeds = spec.build_seeds(&program, 4);
    let instrumentation =
        Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 5);
    let interpreter = Interpreter::new(&program);

    // The engine a campaign reports, and its count of compiled execs.
    let campaign = |interp: Option<InterpMode>| {
        let mut campaign = Campaign::new(
            CampaignConfig {
                budget: Budget::Execs(500),
                interp,
                ..Default::default()
            },
            &interpreter,
            &instrumentation,
        );
        let telemetry = Arc::new(Telemetry::new(0));
        campaign.set_telemetry(Arc::clone(&telemetry));
        campaign.add_seeds(seeds.clone());
        let mode = campaign.interp_mode();
        campaign.run();
        (mode, telemetry.get(TelemetryEvent::CompiledExec))
    };
    assert_eq!(campaign(None), (InterpMode::Tree, 0));
    let (mode, compiled_execs) = campaign(Some(InterpMode::Auto));
    assert_eq!(mode, InterpMode::Auto);
    assert!(compiled_execs > 0);

    let mut executor = Executor::new(
        &interpreter,
        &instrumentation,
        Box::new(EdgeHitCount::new()),
    );
    let mut map = BigMap::new(MapSize::K64).unwrap();
    assert_eq!(
        executor.run(&seeds[0], &mut map).engine,
        EnginePath::Compiled
    );
}
