//! One seeded trial through the public `World` API, timed per call and
//! checked: panics, the event valve, packet conservation and finiteness.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rica_harness::{ProtocolKind, Scenario, World};
use rica_metrics::{TrialSummary, WorldDiagnostics};
use rica_sim::SimTime;
use rica_trace::TraceSink;

/// `World`'s built-in `max_events` safety valve; a `step_until` that
/// handles this many events stopped early.
const VALVE_EVENTS: u64 = 500_000_000;

/// Host seconds spent in each public call of one trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTimes {
    pub new_s: f64,
    pub start_s: f64,
    pub step_s: f64,
    pub finish_s: f64,
}

impl CallTimes {
    pub fn setup_s(&self) -> f64 {
        self.new_s + self.start_s
    }

    pub fn total_s(&self) -> f64 {
        self.new_s + self.start_s + self.step_s + self.finish_s
    }
}

/// What a pass installs before `World::start`.
pub enum Instrument {
    None,
    /// A sink that receives every trace event (and profiling, if asked).
    Sink {
        sink: Box<dyn TraceSink>,
        profile: bool,
    },
}

pub struct TrialRun {
    pub summary: TrialSummary,
    pub times: CallTimes,
    /// Host instants bracketing each call: new, start, step, finish, end.
    pub marks: [Instant; 5],
    /// `World::diagnostics()` read just before `finish`.
    pub diagnostics: WorldDiagnostics,
    pub sink: Option<Box<dyn TraceSink>>,
}

/// Runs one trial, capturing a panic as an `Err` instead of unwinding.
pub fn run(
    scenario: &Scenario,
    kind: ProtocolKind,
    seed: u64,
    instrument: Instrument,
) -> Result<TrialRun, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut world = World::new(scenario, kind, seed);
        let with_sink = matches!(instrument, Instrument::Sink { .. });
        if let Instrument::Sink { sink, profile } = instrument {
            if profile {
                world.enable_profiling();
            }
            world.enable_trace(sink);
        }
        let t1 = Instant::now();
        world.start();
        let t2 = Instant::now();
        let events = world.step_until(SimTime::MAX);
        let t3 = Instant::now();
        let diagnostics = world.diagnostics();
        let sink = if with_sink { world.take_trace_sink() } else { None };
        let summary = world.finish();
        let t4 = Instant::now();
        let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        let times = CallTimes {
            new_s: secs(t0, t1),
            start_s: secs(t1, t2),
            step_s: secs(t2, t3),
            finish_s: secs(t3, t4),
        };
        (events, TrialRun { summary, times, marks: [t0, t1, t2, t3, t4], diagnostics, sink })
    }));
    let (events, run) = outcome.map_err(|p| format!("panicked: {}", panic_text(&p)))?;
    if events >= VALVE_EVENTS {
        return Err(format!("max_events valve tripped after {events} events"));
    }
    check_summary(&run.summary)?;
    Ok(run)
}

/// Runs `f` and turns a panic into an `Err` carrying its message.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| format!("panicked: {}", panic_text(&p)))
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Packet conservation (`delivered + dropped ≤ generated`) and finiteness
/// of every floating-point statistic.
pub fn check_summary(s: &TrialSummary) -> Result<(), String> {
    let dropped: u64 = s.drops.values().sum();
    if s.delivered + dropped > s.generated {
        return Err(format!(
            "conservation: delivered {} + dropped {dropped} > generated {}",
            s.delivered, s.generated
        ));
    }
    let floats = [
        s.delay_mean_ms,
        s.delay_std_ms,
        s.delay_p50_ms,
        s.delay_p95_ms,
        s.delay_max_ms,
        s.overhead_kbps,
        s.avg_link_throughput_kbps,
        s.avg_hops,
    ];
    if floats.iter().chain(&s.throughput_kbps).any(|x| !x.is_finite()) {
        return Err("non-finite statistic in summary".to_string());
    }
    Ok(())
}

/// FNV-1a of the summary's `Debug` rendering, the hash
/// `tests/golden_metrics.rs` pins. Profiling diagnostics are left out so
/// traced and untraced passes hash alike.
pub fn digest(s: &TrialSummary) -> u64 {
    if s.diagnostics.is_some() {
        let mut plain = s.clone();
        plain.diagnostics = None;
        return digest(&plain);
    }
    rica_exec::fnv1a(format!("{s:?}").as_bytes())
}

/// The pinned reference digests: `(workload, protocol, seed, digest)`.
pub fn pinned() -> Vec<(&'static str, &'static str, u64, u64)> {
    include_str!("../reference/digests.tsv")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 4, "reference/digests.tsv: bad row {l:?}");
            let seed = f[2].parse().expect("reference seed");
            let hex = f[3].trim_start_matches("0x");
            let digest = u64::from_str_radix(hex, 16).expect("reference digest");
            (f[0], f[1], seed, digest)
        })
        .collect()
}
