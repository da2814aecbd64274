//! End-to-end mode (`--trace 0`): the workload's trial list with tracing
//! off, timed from outside the program.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use rica_exec::{ExecOptions, SweepPlan, SweepResult};
use rica_harness::sweep::{run_job, sweeps_json};
use rica_harness::ProtocolKind;
use rica_metrics::TrialSummary;

use crate::calib::{self, Calibration, NOMINAL_S};
use crate::stats::{mean, median, quantile, Report};
use crate::trial::{self, Instrument};
use crate::workload::{trial_seed, Shape, Workload};

/// Attempted and failed trials, and what the end-to-end metrics are
/// computed from.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// Per-trial host seconds (`World::new` through `finish`, or around
    /// `run_job`).
    pub trial_s: Vec<f64>,
    /// The samples `trial_s_p50` is the median of: per serial round, the
    /// mean trial time of its protocols (one seed under each); per sweep
    /// job, its time. Averaging within a round keeps the median off the
    /// gaps between protocols' time ranges.
    pub p50_samples: Vec<f64>,
    /// Per-trial (serial) or per-plan (sweep) set-up seconds.
    pub setup_s: Vec<f64>,
    /// Summaries of the fixed trial list, in list order.
    pub list: Vec<TrialSummary>,
    /// Host wall seconds of the trial list, calibration slices excluded.
    pub wall_s: f64,
    /// Calibration slice times taken between trials (see `calib`).
    pub calibration: Vec<f64>,
    /// False when an output check other than a per-trial one failed.
    pub outputs_ok: bool,
}

impl Tally {
    pub fn fail(&mut self, what: &str, err: &str) {
        self.failed += 1;
        eprintln!("FAILED {what}: {err}");
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, tally: &mut Tally) {
    match &w.shape {
        Shape::Serial => serial(w, seed, seconds, tally),
        Shape::Sweep { workers, .. } => sweep(w, seed, seconds, *workers, tally),
    }
}

fn serial(w: &Workload, seed: u64, seconds: f64, tally: &mut Tally) {
    let list_rounds = w.list_rounds;
    let budget = Duration::from_secs_f64(seconds);
    let mut cal = Calibration::default();
    let t0 = Instant::now();
    let mut round = 0;
    while round < list_rounds || t0.elapsed() < budget {
        cal.take();
        let s = trial_seed(seed, round);
        let mut round_s = Vec::new();
        for &kind in &w.protocols {
            tally.attempted += 1;
            match trial::run(&w.scenario, kind, s, Instrument::None) {
                Ok(r) => {
                    tally.trial_s.push(r.times.total_s());
                    round_s.push(r.times.total_s());
                    tally.setup_s.push(r.times.setup_s());
                    if round < list_rounds {
                        tally.list.push(r.summary);
                    }
                }
                Err(e) => tally.fail(&format!("{} {kind} seed {s}", w.name), &e),
            }
        }
        if !round_s.is_empty() {
            tally.p50_samples.push(mean(&round_s));
        }
        round += 1;
    }
    tally.wall_s = t0.elapsed().as_secs_f64() - cal.samples.iter().sum::<f64>();
    tally.calibration = cal.samples;
}

/// One executed sweep set: the labelled results plus per-job host times.
pub struct SweepSet {
    pub sweeps: Vec<(String, SweepResult<ProtocolKind>)>,
    /// Per job in completion order: `(plan index, job seconds, job end
    /// instant, worker thread)`.
    pub jobs: Vec<(usize, f64, Instant, std::thread::ThreadId)>,
    /// Per plan: from the start of its construction up to the first job's
    /// entry.
    pub setup_s: Vec<f64>,
    /// Per plan: `(start, end)` of `SweepPlan::run`.
    pub spans: Vec<(Instant, Instant)>,
    pub failures: Vec<String>,
    /// Calibration slice times, one per job, taken on the job's worker
    /// just before it (empty when not calibrating).
    pub calibration: Vec<f64>,
}

thread_local! {
    static CAL_TABLE: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Builds plan `p` with `plan_at(p)` for `p = 0, 1, ...` until it returns
/// `None`, and runs each on `workers` threads, every job through `run_job`
/// inside a closure that times it, catches panics and optionally takes a
/// calibration slice before it.
pub fn sweep_set(
    w: &Workload,
    plan_at: impl Fn(usize) -> Option<(String, SweepPlan<ProtocolKind>)>,
    workers: usize,
    calibrate: bool,
) -> SweepSet {
    let opts = ExecOptions::with_workers(workers);
    let mut out = SweepSet {
        sweeps: Vec::new(),
        jobs: Vec::new(),
        setup_s: Vec::new(),
        spans: Vec::new(),
        failures: Vec::new(),
        calibration: Vec::new(),
    };
    let jobs = Mutex::new(Vec::new());
    let calibration = Mutex::new(Vec::new());
    let failures = Mutex::new(Vec::new());
    let mut p = 0;
    loop {
        let t0 = Instant::now();
        let Some((label, plan)) = plan_at(p) else { break };
        let first = OnceLock::new();
        let result = plan.run(&opts, |job| {
            first.get_or_init(Instant::now);
            if calibrate {
                let c = CAL_TABLE.with(|t| calib::slice(&mut t.borrow_mut()));
                calibration.lock().expect("calibration log poisoned").push(c);
            }
            let t = Instant::now();
            let summary = trial::catch(|| run_job(&w.scenario, &plan, job))
                .and_then(|s| trial::check_summary(&s).map(|_| s));
            let end = Instant::now();
            jobs.lock().expect("job log poisoned").push((
                p,
                end.duration_since(t).as_secs_f64(),
                end,
                std::thread::current().id(),
            ));
            summary.unwrap_or_else(|e| {
                let what =
                    format!("{label} job {} {} seed {}: {e}", job.index, job.protocol, job.seed);
                failures.lock().expect("failure log poisoned").push(what);
                rica_metrics::Metrics::new().finish(w.scenario.duration)
            })
        });
        let t1 = Instant::now();
        let first = *first.get().expect("a plan runs at least one job");
        out.setup_s.push(first.duration_since(t0).as_secs_f64());
        out.spans.push((t0, t1));
        out.sweeps.push((label, result));
        p += 1;
    }
    out.jobs = jobs.into_inner().expect("job log poisoned");
    out.failures = failures.into_inner().expect("failure log poisoned");
    out.calibration = calibration.into_inner().expect("calibration log poisoned");
    out
}

/// Renders the sweep artifact and checks it parses with one entry per
/// sweep; returns the document.
pub fn render_artifact(set: &SweepSet, workload: &str, seed: u64) -> Result<String, String> {
    let meta = [("workload", workload.to_string()), ("seed", seed.to_string())];
    let doc = sweeps_json(&set.sweeps, &meta);
    let parsed = rica_metrics::parse_json(&doc)?;
    let sweeps = parsed.get("sweeps").ok_or("artifact has no sweeps")?;
    for (label, _) in &set.sweeps {
        sweeps.get(label).ok_or_else(|| format!("artifact lacks sweep {label}"))?;
    }
    Ok(doc)
}

fn sweep(w: &Workload, seed: u64, seconds: f64, workers: usize, tally: &mut Tally) {
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut set = 0;
    let mut calibrated = 0.0;
    while set < w.list_rounds || t0.elapsed() < budget {
        let result = sweep_set(w, |p| w.sweep_plan(seed, set, p), workers, true);
        if let Err(e) = render_artifact(&result, w.name, seed) {
            tally.outputs_ok = false;
            eprintln!("FAILED figure_sweep artifact: {e}");
        }
        tally.attempted += result.jobs.len();
        for f in &result.failures {
            tally.fail("figure_sweep", f);
        }
        tally.trial_s.extend(result.jobs.iter().map(|j| j.1));
        tally.p50_samples.extend(result.jobs.iter().map(|j| j.1));
        tally.setup_s.extend(&result.setup_s);
        // Slices ran on the workers in parallel: each worker spent about
        // its share of their sum.
        calibrated += result.calibration.iter().sum::<f64>() / workers as f64;
        tally.calibration.extend(&result.calibration);
        if set < w.list_rounds {
            for (_, sweep) in &result.sweeps {
                for cell in &sweep.cells {
                    tally.list.extend(cell.trials.iter().cloned());
                }
            }
        }
        set += 1;
    }
    tally.wall_s = t0.elapsed().as_secs_f64() - calibrated;
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Fills the end-to-end report; returns the metrics marked absent.
pub fn report(tally: &Tally, report: &mut Report) -> Vec<(&'static str, &'static str)> {
    let n = tally.trial_s.len();
    let list = &tally.list;
    let generated: u64 = list.iter().map(|s| s.generated).sum();
    let delivered: u64 = list.iter().map(|s| s.delivered).sum();
    let delays: Vec<f64> = list.iter().map(|s| s.delay_p50_ms).collect();
    let overheads: Vec<f64> = list.iter().map(|s| s.overhead_kbps).collect();
    // Host times in reference seconds (see `calib`); the raw wall figures
    // are printed alongside.
    let scale = NOMINAL_S / median(&tally.calibration);
    report.add("trials_per_s", n as f64 / (tally.wall_s * scale), "trials/s", n);
    let p50 = median(&tally.p50_samples);
    report.add("trial_s_p50", p50 * scale, "s", tally.p50_samples.len());
    report.add("setup_s", median(&tally.setup_s) * scale, "s", tally.setup_s.len());
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    report.add("delivery_ratio", delivered as f64 / generated as f64, "ratio", list.len());
    report.note("delay_ms_p50", median(&delays), "ms", list.len());
    report.add("overhead_kbps", mean(&overheads), "kbps", list.len());
    let mut absent = Vec::new();
    // A p90 needs at least ten samples beyond it.
    if n >= 100 {
        report.note("trial_s_p90", quantile(&tally.trial_s, 0.9) * scale, "s", n);
    } else {
        absent.push(("trial_s_p90", "fewer than 10 trials beyond p90"));
    }
    let frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    report.note("failed_frac", frac, "ratio", tally.attempted);
    report.note("host.speed_scale", scale, "ratio", tally.calibration.len());
    report.note("trials_per_s.wall", n as f64 / tally.wall_s, "trials/s", n);
    report.note("trial_s_p50.wall", p50, "s", tally.p50_samples.len());
    report.note("setup_s.wall", median(&tally.setup_s), "s", tally.setup_s.len());
    absent
}
