//! The observability determinism contract: enabling event tracing and
//! time-series sampling must not perturb a trial by a single byte.
//!
//! Tracing reads simulator state and never draws randomness; the sampler
//! runs on a dedicated periodic event whose extra sequence numbers shift
//! all later events uniformly (preserving FIFO tie-break order). These
//! tests pin that argument: for every protocol, a fully-instrumented run
//! of the golden `mobile12` scenario must produce a `TrialSummary` equal
//! — field for field, and in `Debug` rendering — to an uninstrumented
//! one. (Profiling is the one exception by design: it attaches
//! wall-clock diagnostics to the summary, so it stays off here and is
//! covered separately below.)

use rica_harness::{ProtocolKind, Scenario, World};
use rica_sim::SimDuration;
use rica_trace::{JsonlSink, RingSink, TraceEvent};

fn golden_mobile12() -> Scenario {
    Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(30.0)
        .mean_speed_kmh(36.0)
        .seed(7)
        .build()
}

#[test]
fn tracing_and_sampling_are_bit_invisible_for_every_protocol() {
    let s = golden_mobile12();
    for kind in ProtocolKind::ALL {
        let plain = s.run(kind);

        let mut world = World::new(&s, kind, s.seed);
        world.enable_trace(Box::new(RingSink::unbounded()));
        world.enable_timeseries(SimDuration::from_millis(250));
        world.start();
        // Only link state asks for the t = 0 topology view; the on-demand
        // protocols' start-up instantiates no channel pair state.
        let pairs = world.diagnostics().channel_active_pairs;
        if kind == ProtocolKind::LinkState {
            assert!(pairs > 0, "{kind}: start-up must install the initial topology view");
        } else {
            assert_eq!(pairs, 0, "{kind}: start-up built a topology view nobody asked for");
        }
        let end = world.now() + s.duration;
        world.step_until(end);
        let mut sink = world.take_trace_sink().expect("sink was installed");
        let ring = sink.downcast_mut::<RingSink>().expect("ring sink");
        assert!(ring.seen() > 0, "{kind}: an instrumented trial must observe events");
        let rows = world.take_timeseries().expect("recorder was installed").rows().len();
        // 30 s at 250 ms + the baseline row at t = 0.
        assert_eq!(rows, 121, "{kind}: sampler cadence drifted");
        let traced = world.finish();

        assert_eq!(traced, plain, "{kind}: tracing/sampling perturbed the summary");
        assert_eq!(
            format!("{traced:?}"),
            format!("{plain:?}"),
            "{kind}: Debug rendering (the golden-hash payload) drifted"
        );
    }
}

/// Profiling is the one opt-in that *does* change the summary — by
/// attaching diagnostics, never by changing the physics. Every metric
/// field must still match an unprofiled run.
#[test]
fn profiling_only_adds_diagnostics() {
    let s = golden_mobile12();
    let plain = s.run(ProtocolKind::Rica);
    let mut world = World::new(&s, ProtocolKind::Rica, s.seed);
    world.enable_profiling();
    world.start();
    let end = world.now() + s.duration;
    world.step_until(end);
    let profiled = world.finish();
    let diag = profiled.diagnostics.as_ref().expect("profiled run carries diagnostics");
    let profile = diag.event_profile.as_ref().expect("profiling rows present");
    // Cancelled events are popped (and discarded) by the queue without
    // ever reaching the dispatch loop, so profiled ≤ popped.
    assert!(profile.total_count() > 0);
    assert!(
        profile.total_count() <= diag.popped_events,
        "profiled {} events but the queue only popped {}",
        profile.total_count(),
        diag.popped_events
    );
    assert!(profile.total_ns() > 0);
    let mut stripped = profiled.clone();
    stripped.diagnostics = None;
    assert_eq!(stripped, plain, "profiling changed the physics, not just the diagnostics");
}

/// Every JSONL line a traced golden trial writes must parse back to a
/// known schema: a `t` nanosecond timestamp, an `ev` from the published
/// name table, and balanced JSON delimiters.
#[test]
fn jsonl_artifact_lines_follow_the_schema() {
    let s = golden_mobile12();
    let path =
        std::env::temp_dir().join(format!("rica_trace_identity_{}.jsonl", std::process::id()));
    let mut world = World::new(&s, ProtocolKind::Rica, s.seed);
    world.enable_trace(Box::new(JsonlSink::create(&path).expect("create artifact")));
    world.start();
    let end = world.now() + s.duration;
    world.step_until(end);
    drop(world.take_trace_sink());
    let body = std::fs::read_to_string(&path).expect("read artifact back");
    let _ = std::fs::remove_file(&path);
    assert!(body.lines().count() > 1_000, "golden trial should emit a rich trace");
    let mut last_t = 0u64;
    for (i, line) in body.lines().enumerate() {
        let rest = line
            .strip_prefix("{\"t\":")
            .unwrap_or_else(|| panic!("line {i} lacks the t prefix: {line}"));
        let (t_str, rest) =
            rest.split_once(",\"ev\":\"").unwrap_or_else(|| panic!("line {i}: no ev: {line}"));
        let t: u64 = t_str.parse().unwrap_or_else(|_| panic!("line {i}: bad t: {line}"));
        assert!(t >= last_t, "line {i}: timestamps must be non-decreasing");
        last_t = t;
        let (name, _) =
            rest.split_once('"').unwrap_or_else(|| panic!("line {i}: unterminated ev: {line}"));
        assert!(TraceEvent::NAMES.contains(&name), "line {i}: unknown event name {name:?}");
        assert!(line.ends_with('}'), "line {i} is not a closed object: {line}");
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "line {i}: unbalanced braces: {line}"
        );
    }
}
