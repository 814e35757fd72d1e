//! `Executor::run` finds the concrete coverage metric and map once per
//! execution and runs a statically dispatched sink for `EdgeHitCount` and
//! `NGram` on the shipped maps; every other (metric, map) pair runs
//! through the trait objects. Neither choice may show: for every metric ×
//! map × engine path, the executor must return exactly what a reference
//! sink driving the same metric and map by hand through `&mut dyn`
//! returns, and leave identical map bytes.

use std::any::Any;

use bigmap::core::{
    BigMap, CoverageMap, FlatBitmap, InterpMode, MapScheme, MapSize, NewCoverage, SparseMode,
    VirginState,
};
use bigmap::coverage::{
    BlockCoverage, ContextSensitive, CoverageMetric, EdgeHitCount, Instrumentation, MetricKind,
    NGram, TraceEvent,
};
use bigmap::fuzzer::{build_metric, EnginePath, Executor};
use bigmap::target::{
    BoundedRun, ExecRecording, GeneratorConfig, Interpreter, NullSink, Program, SnapshotOutcome,
    TraceSink,
};

/// A user metric that reports [`MetricKind::Block`] without being
/// [`BlockCoverage`]: dispatch must go by type, so it takes the fallback.
struct BlockImpostor;

impl CoverageMetric for BlockImpostor {
    fn kind(&self) -> MetricKind {
        MetricKind::Block
    }

    fn begin_execution(&mut self) {}

    fn on_event(&mut self, event: TraceEvent, sink: &mut dyn FnMut(u32)) {
        match event {
            TraceEvent::Block(id) => sink(id.rotate_left(7) ^ 0x5A5A),
            TraceEvent::Call(site) => sink(site.wrapping_mul(0x9E37_79B9)),
            TraceEvent::Return => {}
        }
    }
}

/// A user map delegating to an inner [`BigMap`]: not a shipped type, so
/// it takes the fallback.
struct Delegating(BigMap);

impl CoverageMap for Delegating {
    fn scheme(&self) -> MapScheme {
        self.0.scheme()
    }
    fn map_size(&self) -> MapSize {
        self.0.map_size()
    }
    fn record(&mut self, key: u32) {
        self.0.record(key)
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn classify(&mut self) {
        self.0.classify()
    }
    fn compare(&mut self, virgin: &mut VirginState) -> NewCoverage {
        self.0.compare(virgin)
    }
    fn hash(&self) -> u32 {
        self.0.hash()
    }
    fn count_nonzero(&self) -> usize {
        self.0.count_nonzero()
    }
    fn used_len(&self) -> usize {
        self.0.used_len()
    }
    fn for_each_nonzero(&self, f: &mut dyn FnMut(usize, u8)) {
        self.0.for_each_nonzero(f)
    }
    fn active_region(&self) -> &[u8] {
        self.0.active_region()
    }
    fn value_of_key(&self, key: u32) -> u8 {
        self.0.value_of_key(key)
    }
}

/// The touch-journal length of a shipped two-level map (`None` for any
/// other map, or for an exec that kept no complete journal).
fn touched_len(map: &dyn CoverageMap) -> Option<usize> {
    (map as &dyn Any).downcast_ref::<BigMap>()?.touched_len()
}

type MetricFactory = fn() -> Box<dyn CoverageMetric>;
type MapFactory = fn() -> Box<dyn CoverageMap>;

const METRICS: [(&str, MetricFactory); 6] = [
    ("edge", || Box::new(EdgeHitCount::new())),
    ("ngram3", || Box::new(NGram::new(3).unwrap())),
    ("ctx", || Box::new(ContextSensitive::new())),
    ("block", || Box::new(BlockCoverage::new())),
    ("stack", || build_metric(MetricKind::Stack)),
    ("impostor", || Box::new(BlockImpostor)),
];

const MAPS: [(&str, MapFactory); 4] = [
    ("flat", || Box::new(FlatBitmap::new(MapSize::K64).unwrap())),
    // `Auto` below the journal gate: every exec records plain.
    ("bigmap", || Box::new(BigMap::new(MapSize::K64).unwrap())),
    // Journal forced on: every exec records through the journaled path.
    ("bigmap-journaled", || {
        let mut map = BigMap::new(MapSize::K64).unwrap();
        map.set_sparse_override(Some(SparseMode::On));
        Box::new(map)
    }),
    ("delegating", || {
        Box::new(Delegating(BigMap::new(MapSize::K64).unwrap()))
    }),
];

/// The reference adapter: the same ID → key → `record` chain, driven
/// through trait objects only.
struct ReferenceSink<'a> {
    instrumentation: &'a Instrumentation,
    metric: &'a mut dyn CoverageMetric,
    map: &'a mut dyn CoverageMap,
    updates: u64,
}

impl ReferenceSink<'_> {
    fn emit(&mut self, event: TraceEvent) {
        let ReferenceSink {
            metric,
            map,
            updates,
            ..
        } = self;
        metric.on_event(event, &mut |key| {
            *updates += 1;
            map.record(key);
        });
    }
}

impl TraceSink for ReferenceSink<'_> {
    fn on_block(&mut self, global_block: usize) {
        let id = self.instrumentation.block_id(global_block);
        self.emit(TraceEvent::Block(id));
    }
    fn on_call(&mut self, call_site: usize) {
        let id = self.instrumentation.call_site_id(call_site);
        self.emit(TraceEvent::Call(id));
    }
    fn on_return(&mut self) {
        self.emit(TraceEvent::Return);
    }
}

/// How an executor is configured for one engine path.
#[derive(Clone, Copy, Debug)]
enum Setup {
    Tree,
    /// `Auto` with no snapshot primed: the compiled engine, front to back.
    Cold,
    /// `Auto` with the parent's snapshot primed.
    Primed,
}

/// The reference run of `input` on the engine `setup` selects, with the
/// engine path it took and its map-update count.
fn reference_run(
    interp: &Interpreter<'_>,
    inst: &Instrumentation,
    recording: Option<&ExecRecording>,
    setup: Setup,
    input: &[u8],
    metric: &mut dyn CoverageMetric,
    map: &mut dyn CoverageMap,
) -> (BoundedRun, EnginePath, u64) {
    let budget = interp.config().max_steps;
    let work = interp.config().work_per_block;
    let compiled = interp.compiled().expect("generated programs lower");
    metric.begin_execution();
    let mut sink = ReferenceSink {
        instrumentation: inst,
        metric,
        map,
        updates: 0,
    };
    let (run, path) = match (setup, recording) {
        (Setup::Tree, _) => (
            interp.run_bounded_mode(input, &mut sink, budget, InterpMode::Tree),
            EnginePath::Tree,
        ),
        (Setup::Cold, _) | (Setup::Primed, None) => (
            compiled.run_bounded(input, &mut sink, budget, work),
            EnginePath::Compiled,
        ),
        (Setup::Primed, Some(recording)) => {
            let (run, outcome) = compiled.run_resumed(recording, input, &mut sink, budget, work);
            (run, path_of(outcome))
        }
    };
    (run, path, sink.updates)
}

fn path_of(outcome: SnapshotOutcome) -> EnginePath {
    match outcome {
        SnapshotOutcome::Miss => EnginePath::SnapshotMiss,
        SnapshotOutcome::FullReplay { .. } => EnginePath::SnapshotReplay,
        SnapshotOutcome::Resumed { .. } => EnginePath::SnapshotResume,
    }
}

/// A program with calls (so the context metric sees `Call`/`Return`)
/// whose first block reads the input, so some single-byte change of the
/// parent diverges at step 0 and misses the snapshot.
fn program() -> Program {
    GeneratorConfig {
        seed: 0,
        functions: 4,
        gates_per_function: 6,
        ..Default::default()
    }
    .generate()
}

/// One child of `parent` per snapshot outcome, found by changing single
/// bytes of the parent and classifying each change against its recording.
fn snapshot_inputs(interp: &Interpreter<'_>, parent: &[u8]) -> Vec<(Vec<u8>, EnginePath)> {
    let budget = interp.config().max_steps;
    let work = interp.config().work_per_block;
    let compiled = interp.compiled().expect("generated programs lower");
    let (_, recording) = compiled.record(parent, &mut NullSink, budget, work);
    let mut found = vec![(parent.to_vec(), EnginePath::SnapshotReplay)];
    for wanted in [EnginePath::SnapshotResume, EnginePath::SnapshotMiss] {
        let child = (0..parent.len())
            .flat_map(|at| (0..=255u8).map(move |byte| (at, byte)))
            .map(|(at, byte)| {
                let mut child = parent.to_vec();
                child[at] = byte;
                child
            })
            .find(|child| {
                let (_, outcome) =
                    compiled.run_resumed(&recording, child, &mut NullSink, budget, work);
                path_of(outcome) == wanted
            })
            .unwrap_or_else(|| panic!("no single-byte change of the parent gives {wanted:?}"));
        found.push((child, wanted));
    }
    found
}

#[test]
fn static_dispatch_matches_the_trait_object_reference() {
    let program = program();
    let inst = Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 3);
    let interp = Interpreter::new(&program);
    let parent: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(37) ^ 0x5C).collect();

    let mut cases: Vec<(Setup, Vec<u8>, EnginePath)> = vec![
        (Setup::Tree, parent.clone(), EnginePath::Tree),
        (Setup::Cold, parent.clone(), EnginePath::Compiled),
    ];
    for (input, path) in snapshot_inputs(&interp, &parent) {
        cases.push((Setup::Primed, input, path));
    }
    let budget = interp.config().max_steps;
    let work = interp.config().work_per_block;
    let (_, recording) = interp.compiled().expect("generated programs lower").record(
        &parent,
        &mut NullSink,
        budget,
        work,
    );

    let mut checked = 0;
    for (metric_name, make_metric) in METRICS {
        for (map_name, make_map) in MAPS {
            for (setup, input, expected_path) in &cases {
                let context = format!("{metric_name} × {map_name} × {expected_path:?}");
                let mut executor = Executor::new(&interp, &inst, make_metric());
                let primed = match setup {
                    Setup::Tree => {
                        executor.set_interp_mode(InterpMode::Tree);
                        None
                    }
                    Setup::Cold => {
                        executor.set_interp_mode(InterpMode::Auto);
                        None
                    }
                    Setup::Primed => {
                        executor.set_interp_mode(InterpMode::Auto);
                        assert!(executor.prime_snapshot(&parent), "{context}: not primed");
                        Some(&recording)
                    }
                };
                let mut map = make_map();
                let mut ref_metric = make_metric();
                let mut ref_map = make_map();
                // The parent first, then the case's input: BigMap's slot
                // assignments carry over between runs, so the second run
                // checks them too.
                let mut last_path = None;
                for run_input in [&parent, input] {
                    map.reset();
                    ref_map.reset();
                    let got = executor.run(run_input, map.as_mut());
                    let (want, want_path, want_updates) = reference_run(
                        &interp,
                        &inst,
                        primed,
                        *setup,
                        run_input,
                        ref_metric.as_mut(),
                        ref_map.as_mut(),
                    );
                    assert_eq!(got.outcome, want.outcome, "{context}: outcome");
                    assert_eq!(got.steps, want.steps, "{context}: steps");
                    assert_eq!(got.planted_hang, want.planted_hang, "{context}: hang");
                    assert_eq!(got.map_updates, want_updates, "{context}: map updates");
                    let touched = touched_len(map.as_ref());
                    assert_eq!(touched, touched_len(ref_map.as_ref()), "{context}: touched");
                    assert_eq!(
                        touched.is_some(),
                        map_name == "bigmap-journaled",
                        "{context}: journaled record path not taken"
                    );
                    assert_eq!(got.engine, want_path, "{context}: engine");
                    assert_eq!(map.used_len(), ref_map.used_len(), "{context}: used_len");
                    assert_eq!(
                        map.active_region(),
                        ref_map.active_region(),
                        "{context}: map bytes"
                    );
                    assert!(got.map_updates > 0, "{context}: nothing recorded");
                    last_path = Some(got.engine);
                }
                assert_eq!(
                    last_path,
                    Some(*expected_path),
                    "{context}: path not reached"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, METRICS.len() * MAPS.len() * 5);
}
