//! Traced mode (`--trace 1`): every trial of the list runs three times —
//! plain, with a `NoopSink`, and with profiling plus a counting sink —
//! in rotating order. Spans around each public call are kept in memory
//! and written out at the end; the per-layer metrics come from the
//! passes, the layer probes and a run of the exec pool.

use std::any::Any;
use std::io::Write as _;
use std::time::{Duration, Instant};

use rica_exec::SweepPlan;
use rica_harness::{ProtocolKind, Scenario};
use rica_metrics::{TrialRecord, TrialSummary, WorldDiagnostics};
use rica_net::{ControlKind, DropReason};
use rica_trace::{NoopSink, TraceEvent, TraceSink};

use crate::e2e::{self, Tally};
use crate::probes;
use crate::stats::{iqr, median, ratio, Report};
use crate::trial::{self, CallTimes, Instrument, TrialRun};
use crate::workload::{trial_seed, Shape, Workload};

/// Event kinds whose handler count and self time are reported.
const TIMED_KINDS: [&str; 5] =
    ["traffic", "mac_attempt", "mac_tx_end", "data_tx_end", "proto_timer"];
/// Fault kinds: reported as counts and as one share of handler time, since
/// they occur on `churn_burst` only.
const FAULT_KINDS: [&str; 2] = ["crash", "reboot"];

/// Deterministic per-trial work counts seen by the counting sink.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    ctrl_tx: u64,
    /// Indexed like `ControlKind::ALL`.
    ctrl_bits: [u64; 10],
    /// Indexed like `RoutePhase`'s declaration order.
    phases: [u64; 5],
    link_breaks: u64,
    timers_fired: u64,
    data_hops: u64,
    data_retries: u64,
    /// Indexed like `DropReason::ALL`.
    drops: [u64; 5],
    generated: u64,
    crashes: u64,
    reboots: u64,
    mac_busy: u64,
    mac_abandons: u64,
    mac_collisions: u64,
    ctrl_queue_drops: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        let pairs = [
            (&mut self.ctrl_tx, o.ctrl_tx),
            (&mut self.link_breaks, o.link_breaks),
            (&mut self.timers_fired, o.timers_fired),
            (&mut self.data_hops, o.data_hops),
            (&mut self.data_retries, o.data_retries),
            (&mut self.generated, o.generated),
            (&mut self.crashes, o.crashes),
            (&mut self.reboots, o.reboots),
            (&mut self.mac_busy, o.mac_busy),
            (&mut self.mac_abandons, o.mac_abandons),
            (&mut self.mac_collisions, o.mac_collisions),
            (&mut self.ctrl_queue_drops, o.ctrl_queue_drops),
        ];
        for (a, b) in pairs {
            *a += b;
        }
        self.ctrl_bits.iter_mut().zip(o.ctrl_bits).for_each(|(a, b)| *a += b);
        self.phases.iter_mut().zip(o.phases).for_each(|(a, b)| *a += b);
        self.drops.iter_mut().zip(o.drops).for_each(|(a, b)| *a += b);
    }
}

/// The benchmark's own trace sink: counts events, keeps nothing else.
#[derive(Default)]
pub struct CountingSink {
    counts: Counts,
}

impl TraceSink for CountingSink {
    fn record(&mut self, ev: &TraceEvent) {
        let c = &mut self.counts;
        match ev {
            TraceEvent::DataGenerated { .. } => c.generated += 1,
            TraceEvent::DataHop { .. } => c.data_hops += 1,
            TraceEvent::DataRetry { .. } => c.data_retries += 1,
            TraceEvent::DataDropped { reason, .. } => {
                c.drops[DropReason::ALL.iter().position(|r| r == reason).expect("known reason")] +=
                    1
            }
            TraceEvent::CtrlTx { kind, bits, .. } => {
                c.ctrl_tx += 1;
                c.ctrl_bits
                    [ControlKind::ALL.iter().position(|k| k == kind).expect("known kind")] += bits;
            }
            TraceEvent::CtrlQueueDrop { .. } => c.ctrl_queue_drops += 1,
            TraceEvent::MacBusy { .. } => c.mac_busy += 1,
            TraceEvent::MacAbandon { .. } => c.mac_abandons += 1,
            TraceEvent::MacCollision { .. } => c.mac_collisions += 1,
            TraceEvent::LinkBreak { .. } => c.link_breaks += 1,
            TraceEvent::TimerFired { .. } => c.timers_fired += 1,
            TraceEvent::RoutePhase { phase, .. } => c.phases[*phase as usize] += 1,
            TraceEvent::NodeCrashed { .. } => c.crashes += 1,
            TraceEvent::NodeRebooted { .. } => c.reboots += 1,
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One span: a named host interval, its parent (an index into the span
/// list) and the trial it belongs to.
struct Span {
    trial: u64,
    name: &'static str,
    label: String,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

#[derive(Default)]
struct Spans {
    list: Vec<Span>,
}

impl Spans {
    fn push(
        &mut self,
        trial: u64,
        name: &'static str,
        label: String,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
    ) -> usize {
        self.list.push(Span { trial, name, label, start, end, parent });
        self.list.len() - 1
    }

    /// A trial root span with one child per public `World` call.
    fn trial(&mut self, trial: u64, label: String, run: &TrialRun) {
        let m = run.marks;
        let root = self.push(trial, "trial", label, (m[0], m[4]), None);
        let calls = ["World::new", "World::start", "World::step_until", "World::finish"];
        for (i, name) in calls.into_iter().enumerate() {
            self.push(trial, name, String::new(), (m[i], m[i + 1]), Some(root));
        }
    }

    fn write(&self, path: &str, header: &str, origin: Instant) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos();
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"trial\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.trial,
                s.name,
                s.label,
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()
    }
}

/// The deterministic simulator counters of `WorldDiagnostics` (everything
/// but the wall-clock event profile).
fn diag_counts(d: &WorldDiagnostics) -> [u64; 8] {
    let (hits, misses) = d.decay_cache.unwrap_or((0, 0));
    [
        d.pending_events as u64,
        d.popped_events,
        d.calendar_retunes,
        d.channel_active_pairs as u64,
        d.channel_table_growths as u64,
        hits,
        misses,
        d.medium_txs,
    ]
}

/// The trials of round `round`: one seed under every protocol (serial
/// workloads) or every job of sweep set `round`.
fn round_trials(w: &Workload, seed: u64, round: usize) -> Vec<(Scenario, ProtocolKind, u64)> {
    if !w.is_sweep() {
        let s = trial_seed(seed, round);
        return w.protocols.iter().map(|&k| (w.scenario.clone(), k, s)).collect();
    }
    let mut out = Vec::new();
    for (_, plan) in w.sweep_plans(seed, round) {
        for job in plan.jobs() {
            // The job's scenario, as `rica_harness::sweep::run_job` derives it.
            let mut s = w.scenario.clone();
            s.nodes = job.nodes;
            s.mean_speed_kmh = job.speed_kmh;
            s.workload = plan.workloads[job.workload].clone();
            s.channel.fidelity = job.fidelity;
            s.faults = plan.faults[job.faults].clone();
            out.push((s, job.protocol, job.seed));
        }
    }
    out
}

/// Plan `index` of the exec layer's run: the sweep workload's first set on
/// its worker pool, or one round of a serial workload as a one-worker
/// plan.
fn exec_plan(w: &Workload, seed: u64, index: usize) -> Option<(String, SweepPlan<ProtocolKind>)> {
    if w.is_sweep() {
        return w.sweep_plan(seed, 0, index);
    }
    let s = &w.scenario;
    let plan = SweepPlan::new(
        w.protocols.clone(),
        vec![s.mean_speed_kmh],
        vec![s.nodes],
        1,
        trial_seed(seed, 0),
    )
    .with_workloads(vec![s.workload.clone()])
    .with_faults(vec![s.faults.clone()]);
    (index == 0).then(|| (w.name.to_string(), plan))
}

/// Sums over the traced passes.
#[derive(Default)]
struct Acc {
    plain: Vec<CallTimes>,
    noop_tax: Vec<f64>,
    trace_tax: Vec<f64>,
    events: u64,
    /// Per kind over all traced passes: (count, self ns).
    profile: Vec<(&'static str, u64, u64)>,
    /// List-only deterministic totals.
    counts: Counts,
    diag: [u64; 8],
    kind_counts: Vec<(&'static str, u64)>,
    list: Vec<(u64, TrialSummary)>,
    round0: Vec<u64>,
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    host: &str,
    tally: &mut Tally,
    report: &mut Report,
) {
    let origin = Instant::now();
    let mut spans = Spans::default();
    let mut acc = Acc::default();
    let budget = Duration::from_secs_f64(seconds);
    let mut trial_id = 0u64;
    let mut round = 0;
    while round < w.trace_rounds || origin.elapsed() < budget {
        let in_list = round < w.trace_rounds;
        for (scenario, kind, s) in round_trials(w, seed, round) {
            let what = format!("{} {kind} seed {s}", w.name);
            tally.attempted += 1;
            match traced_trial(&scenario, kind, s, trial_id, &mut spans) {
                Ok((plain, noop, traced, counts)) => {
                    acc.fold(&plain, &noop, &traced, &counts, in_list, s);
                    if round == 0 {
                        acc.round0.push(trial::digest(&plain.summary));
                    }
                }
                Err(e) => tally.fail(&what, &e),
            }
            trial_id += 3;
        }
        round += 1;
    }

    // The exec pool on the same trials: its summaries must match.
    let workers = match w.shape {
        Shape::Sweep { workers, .. } => workers,
        Shape::Serial => 1,
    };
    let set = e2e::sweep_set(w, |p| exec_plan(w, seed, p), workers, false);
    for f in &set.failures {
        tally.fail("exec", f);
    }
    tally.attempted += set.jobs.len();
    let exec_digests: Vec<u64> = set
        .sweeps
        .iter()
        .flat_map(|(_, r)| r.cells.iter().flat_map(|c| c.trials.iter().map(trial::digest)))
        .collect();
    if exec_digests != acc.round0 {
        tally.outputs_ok = false;
        eprintln!("FAILED exec: run_job summaries differ from the World-driven trials");
    }
    let t = Instant::now();
    if let Err(e) = e2e::render_artifact(&set, w.name, seed) {
        tally.outputs_ok = false;
        eprintln!("FAILED artifact: {e}");
    }
    let artifact_s = t.elapsed().as_secs_f64();
    for (p, (label, _)) in set.sweeps.iter().enumerate() {
        let plan_span = spans.push(trial_id, "SweepPlan::run", label.clone(), set.spans[p], None);
        for &(_, secs, end, _) in set.jobs.iter().filter(|j| j.0 == p) {
            let start = end - Duration::from_secs_f64(secs);
            spans.push(trial_id, "run_job", String::new(), (start, end), Some(plan_span));
        }
        trial_id += 1;
    }

    acc.report(w, seed, report);
    exec_report(&set, workers, artifact_s, report);
    match record_roundtrip_us(&acc.list) {
        Ok(us) => report.add("metrics.record_roundtrip_us", us, "us", acc.list.len()),
        Err(e) => {
            tally.outputs_ok = false;
            eprintln!("FAILED metrics codec: {e}");
            report.add("metrics.record_roundtrip_us", f64::NAN, "us", 0);
        }
    }
    let path = format!("benchmark/out/spans-{}-seed{seed}.jsonl", w.name);
    match spans.write(&path, host, origin) {
        Ok(()) => eprintln!("spans: {} written to {path}", spans.list.len()),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

type Passes = (TrialRun, TrialRun, TrialRun, Counts);

/// Runs the three passes of one trial in an order rotated by `id`, checks
/// that they agree, and records their spans.
fn traced_trial(
    scenario: &Scenario,
    kind: ProtocolKind,
    seed: u64,
    id: u64,
    spans: &mut Spans,
) -> Result<Passes, String> {
    let mut runs: [Option<TrialRun>; 3] = [None, None, None];
    for k in 0..3 {
        let pass = (id / 3 + k) as usize % 3;
        let instrument = match pass {
            0 => Instrument::None,
            1 => Instrument::Sink { sink: Box::new(NoopSink), profile: false },
            _ => Instrument::Sink { sink: Box::<CountingSink>::default(), profile: true },
        };
        let run = trial::run(scenario, kind, seed, instrument)?;
        let name = ["plain", "noop", "traced"][pass];
        spans.trial(id + pass as u64, format!("{kind} seed {seed} {name}"), &run);
        runs[pass] = Some(run);
    }
    let [Some(plain), Some(noop), Some(mut traced)] = runs else { unreachable!("three passes") };
    let counts = traced
        .sink
        .as_mut()
        .and_then(|s| s.downcast_mut::<CountingSink>())
        .map(|s| s.counts.clone())
        .ok_or("counting sink lost")?;
    let d = trial::digest(&plain.summary);
    if trial::digest(&noop.summary) != d || trial::digest(&traced.summary) != d {
        return Err("summary differs between plain, noop and traced passes".to_string());
    }
    let c = diag_counts(&plain.diagnostics);
    if diag_counts(&noop.diagnostics) != c || diag_counts(&traced.diagnostics) != c {
        return Err("work counters differ between plain, noop and traced passes".to_string());
    }
    if counts.generated != plain.summary.generated
        || counts.ctrl_tx != plain.summary.control_tx_count
    {
        return Err("counting sink disagrees with the summary".to_string());
    }
    Ok((plain, noop, traced, counts))
}

impl Acc {
    fn fold(
        &mut self,
        plain: &TrialRun,
        noop: &TrialRun,
        traced: &TrialRun,
        counts: &Counts,
        in_list: bool,
        seed: u64,
    ) {
        self.plain.push(plain.times);
        self.noop_tax.push(noop.times.step_s / plain.times.step_s - 1.0);
        self.trace_tax.push(traced.times.step_s / plain.times.step_s - 1.0);
        self.events += plain.diagnostics.popped_events;
        let profile = traced.diagnostics.event_profile.as_ref().expect("profiling enabled");
        if self.profile.is_empty() {
            self.profile = profile.kinds.iter().map(|k| (k.kind, 0, 0)).collect();
            self.kind_counts = profile.kinds.iter().map(|k| (k.kind, 0)).collect();
        }
        for (acc, k) in self.profile.iter_mut().zip(&profile.kinds) {
            acc.1 += k.count;
            acc.2 += k.total_ns;
        }
        if in_list {
            for (acc, k) in self.kind_counts.iter_mut().zip(&profile.kinds) {
                acc.1 += k.count;
            }
            self.counts.add(counts);
            for (a, b) in self.diag.iter_mut().zip(diag_counts(&plain.diagnostics)) {
                *a += b;
            }
            self.list.push((seed, plain.summary.clone()));
        }
    }

    fn kind(&self, name: &str) -> (u64, u64, u64) {
        let count = self.kind_counts.iter().find(|k| k.0 == name).map_or(0, |k| k.1);
        let (_, all, ns) = self.profile.iter().find(|k| k.0 == name).copied().unwrap_or(("", 0, 0));
        (count, all, ns)
    }

    fn report(&self, w: &Workload, seed: u64, r: &mut Report) {
        let n = self.plain.len();
        let l = self.list.len();
        let times =
            |f: fn(&CallTimes) -> f64| median(&self.plain.iter().map(f).collect::<Vec<_>>());
        r.add("harness.new_s", times(|t| t.new_s), "s", n);
        r.add("harness.start_s", times(|t| t.start_s), "s", n);
        r.add("harness.step_s", times(|t| t.step_s), "s", n);
        r.add("harness.finish_s", times(|t| t.finish_s), "s", n);
        let step_total: f64 = self.plain.iter().map(|t| t.step_s).sum();
        r.add("harness.ns_per_event", step_total * 1e9 / self.events as f64, "ns", n);
        for kind in TIMED_KINDS.iter().chain(&FAULT_KINDS) {
            let (count, _, _) = self.kind(kind);
            r.add(format!("harness.{kind}.count"), count as f64, "count", l);
        }
        for kind in TIMED_KINDS {
            let (_, all, ns) = self.kind(kind);
            r.add(format!("harness.{kind}.self_ns"), ratio(ns as f64, all as f64), "ns", n);
        }
        let handler_ns: u64 = self.profile.iter().map(|k| k.2).sum();
        let fault_ns: u64 = FAULT_KINDS.iter().map(|k| self.kind(k).2).sum();
        r.add("harness.crash_reboot.share", ratio(fault_ns as f64, handler_ns as f64), "ratio", n);

        let [pending, popped, retunes, pairs, growths, hits, misses, txs] = self.diag;
        r.add("sim.events", popped as f64, "count", l);
        r.add("sim.pending_end", pending as f64, "count", l);
        r.add("sim.calendar_retunes", retunes as f64, "count", l);

        // Mean medium concurrency = Σ txs × mean control airtime / Σ duration.
        let ctrl_bits: u64 = self.list.iter().flat_map(|(_, s)| s.control_bits.values()).sum();
        let ctrl_tx: u64 = self.list.iter().map(|(_, s)| s.control_tx_count).sum();
        let secs: f64 = self.list.iter().map(|(_, s)| s.duration.as_secs_f64()).sum();
        let airtime = w.scenario.mac.tx_duration(ctrl_bits / ctrl_tx.max(1)).as_secs_f64();
        let costs = probes::measure(&w.scenario, trial_seed(seed, 0), txs as f64 * airtime / secs);
        r.add("mobility.position_ns", costs.position_ns, "ns", 1);
        r.add("mobility.grid_rebuild_us", costs.grid_rebuild_us, "us", 1);
        r.add("mobility.grid_query_ns", costs.grid_query_ns, "ns", 1);
        r.add("mobility.grid_candidates", costs.grid_candidates, "count", w.scenario.nodes);
        r.add("mobility.grid_hit_frac", costs.grid_hit_frac, "ratio", w.scenario.nodes);

        r.add("channel.active_pairs", pairs as f64, "count", l);
        r.add("channel.table_growths", growths as f64, "count", l);
        r.add("channel.decay_hits", hits as f64, "count", l);
        r.add("channel.decay_misses", misses as f64, "count", l);
        r.add("channel.decay_hit_frac", ratio(hits as f64, (hits + misses) as f64), "ratio", l);
        r.add("channel.class_ns", costs.class_ns, "ns", 1);

        let c = &self.counts;
        let (attempts, _, _) = self.kind("mac_attempt");
        r.add("mac.attempts", attempts as f64, "count", l);
        r.add("mac.medium_txs", txs as f64, "count", l);
        r.add("mac.tx_frac", ratio(txs as f64, attempts as f64), "ratio", l);
        r.add("mac.busy", c.mac_busy as f64, "count", l);
        r.add("mac.abandons", c.mac_abandons as f64, "count", l);
        r.add("mac.collisions", c.mac_collisions as f64, "count", l);
        r.add("mac.ctrl_queue_drops", c.ctrl_queue_drops as f64, "count", l);
        r.add("mac.busy_check_ns", costs.busy_check_ns, "ns", 1);
        r.add("mac.delivered_check_ns", costs.delivered_check_ns, "ns", 1);

        // The share of mac_tx_end self time the probes do not explain:
        // per event, every fan-out candidate's position plus, for each
        // receiver in range, the collision check and the classification.
        let (_, tx_end_all, tx_end_ns) = self.kind("mac_tx_end");
        let explained = costs.fanout_candidates * costs.position_ns
            + costs.in_range * (costs.delivered_check_ns + costs.class_ns);
        let per_event = ratio(tx_end_ns as f64, tx_end_all as f64);
        r.add(
            "harness.mac_tx_end.unattributed_frac",
            1.0 - ratio(explained, per_event),
            "ratio",
            n,
        );

        r.add("proto.ctrl_tx", c.ctrl_tx as f64, "count", l);
        for (k, bits) in ControlKind::ALL.iter().zip(c.ctrl_bits) {
            r.add(format!("proto.ctrl_bits.{k:?}"), bits as f64, "bits", l);
        }
        let phases =
            ["discoveries", "discovery_retries", "route_selected", "repairs", "routes_lost"];
        for (name, v) in phases.iter().zip(c.phases) {
            r.add(format!("proto.{name}"), v as f64, "count", l);
        }
        r.add("proto.link_breaks", c.link_breaks as f64, "count", l);
        r.add("proto.timers_fired", c.timers_fired as f64, "count", l);

        r.add("net.data_hops", c.data_hops as f64, "count", l);
        r.add("net.data_retries", c.data_retries as f64, "count", l);
        for (reason, v) in DropReason::ALL.iter().zip(c.drops) {
            r.add(format!("net.drops.{reason:?}"), v as f64, "count", l);
        }
        r.add("traffic.generated", c.generated as f64, "count", l);
        r.add("faults.crashes", c.crashes as f64, "count", l);
        r.add("faults.reboots", c.reboots as f64, "count", l);

        r.add("metrics.finish_ns", times(|t| t.finish_s) * 1e9, "ns", n);
        r.add("trace.overhead_frac", median(&self.trace_tax), "ratio", n);
        r.add("trace.noop_tax_frac", median(&self.noop_tax), "ratio", n);
        r.add("trace.noop_tax_iqr", iqr(&self.noop_tax), "ratio", n);

        let digest = self.count_digest();
        println!("counts_digest {digest:016x} (deterministic counters of the trial list)");
    }

    /// FNV-1a over every deterministic counter of the list, so two runs at
    /// one seed can be compared by a single value.
    fn count_digest(&self) -> u64 {
        let text = format!("{:?}{:?}{:?}", self.counts, self.diag, self.kind_counts);
        rica_exec::fnv1a(text.as_bytes())
    }
}

fn exec_report(set: &e2e::SweepSet, workers: usize, artifact_s: f64, r: &mut Report) {
    let makespan: f64 = set.spans.iter().map(|(a, b)| b.duration_since(*a).as_secs_f64()).sum();
    let busy: f64 = set.jobs.iter().map(|j| j.1).sum();
    // Per plan and worker thread: the time from its last job's end to the
    // plan's end.
    let mut tail = 0.0;
    for (p, &(_, end)) in set.spans.iter().enumerate() {
        let mut last: Vec<(std::thread::ThreadId, Instant)> = Vec::new();
        for &(_, _, t, id) in set.jobs.iter().filter(|j| j.0 == p) {
            match last.iter_mut().find(|l| l.0 == id) {
                Some(l) => l.1 = l.1.max(t),
                None => last.push((id, t)),
            }
        }
        tail += last.iter().map(|l| end.duration_since(l.1).as_secs_f64()).sum::<f64>();
    }
    let jobs = set.jobs.len();
    r.add("exec.makespan_s", makespan, "s", jobs);
    r.add("exec.busy_frac", busy / (workers as f64 * makespan), "ratio", jobs);
    r.add("exec.tail_idle_s", tail, "s", jobs);
    r.add("exec.artifact_s", artifact_s, "s", 1);
}

/// Mean host µs to render one trial record line and parse it back; the
/// parsed summary must equal the original.
fn record_roundtrip_us(list: &[(u64, TrialSummary)]) -> Result<f64, String> {
    let records: Vec<TrialRecord> = list
        .iter()
        .enumerate()
        .map(|(i, (seed, s))| TrialRecord {
            job: i,
            cell: 0,
            trial: i,
            seed: *seed,
            summary: s.clone(),
        })
        .collect();
    let t0 = Instant::now();
    let back: Vec<_> = records.iter().map(|r| TrialRecord::parse(&r.to_line())).collect();
    let us = t0.elapsed().as_secs_f64() * 1e6 / list.len().max(1) as f64;
    for (i, (b, r)) in back.into_iter().zip(&records).enumerate() {
        if b?.summary != r.summary {
            return Err(format!("record {i} does not round-trip"));
        }
    }
    Ok(us)
}
