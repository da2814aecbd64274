//! Seeded benchmark of the RICA simulator: end-to-end metrics of four
//! trial workloads (`--trace 0`) and per-layer metrics from a separate
//! traced run (`--trace 1`). See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod e2e;
mod probes;
mod stats;
mod traced;
mod trial;
mod workload;

use std::process::ExitCode;

use rica_harness::sweep::run_job;

use crate::e2e::Tally;
use crate::stats::Report;
use crate::trial::Instrument;
use crate::workload::{trial_seed, Workload, DEFAULT_SEED};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        print_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--print-reference" => args.print_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seed >= 1 << 40 {
        return Err("--seed must be below 2^40".to_string());
    }
    Ok(args)
}

/// `nproc`, the `rustc` version and the CPU model, for every result.
fn host_fingerprint(seed: u64, workload: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"rustc\":\"{rustc}\",\"cpu\":\"{cpu}\"}},\"workload\":\"{workload}\",\"seed\":{seed}}}"
    )
}

/// Runs the workload's reference trial per protocol at the default seed
/// and compares each summary digest with the pinned one. Also warms the
/// process up before anything is timed.
fn check_reference(w: &Workload, tally: &mut Tally, print: bool) {
    let pinned = trial::pinned();
    let seed = trial_seed(DEFAULT_SEED, 0);
    let plan = w.sweep_plan(DEFAULT_SEED, 0, 0);
    for &kind in &w.protocols {
        tally.attempted += 1;
        let what = format!("{} {kind} reference", w.name);
        let (seed, summary) = match &plan {
            None => {
                (seed, trial::run(&w.scenario, kind, seed, Instrument::None).map(|r| r.summary))
            }
            Some((_, plan)) => {
                let job = plan
                    .jobs()
                    .into_iter()
                    .find(|j| j.protocol == kind && j.speed_kmh == 36.0 && j.trial == 0)
                    .expect("the speed sweep has a 36 km/h cell per protocol");
                let run = trial::catch(|| run_job(&w.scenario, plan, &job))
                    .and_then(|s| trial::check_summary(&s).map(|_| s));
                (job.seed, run)
            }
        };
        let summary = match summary {
            Ok(s) => s,
            Err(e) => {
                tally.fail(&what, &e);
                continue;
            }
        };
        let got = trial::digest(&summary);
        if print {
            println!("{}\t{}\t{seed}\t0x{got:016x}", w.name, kind.name());
            continue;
        }
        let want = pinned.iter().find(|p| p.0 == w.name && p.1 == kind.name());
        match want {
            Some(&(_, _, s, d)) if s == seed && d == got => {}
            Some(&(_, _, s, d)) => tally.fail(
                &what,
                &format!("digest 0x{got:016x} at seed {seed}, pinned 0x{d:016x} at seed {s}"),
            ),
            None => tally.fail(&what, "no pinned digest"),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: rica-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.print_reference {
        for name in workload::NAMES {
            let w = Workload::by_name(name).expect("known workload");
            check_reference(&w, &mut Tally::default(), true);
        }
        return ExitCode::SUCCESS;
    }
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!(
            "error: unknown workload {:?}; known: {}",
            args.workload,
            workload::NAMES.join(" ")
        );
        return ExitCode::from(2);
    };
    let host = host_fingerprint(args.seed, w.name);
    println!("# {host}");

    let mut tally = Tally { outputs_ok: true, ..Tally::default() };
    check_reference(&w, &mut tally, false);
    let mut report = Report::new();
    let mut absent = Vec::new();
    if args.trace {
        traced::run(&w, args.seed, args.seconds, &host, &mut tally, &mut report);
    } else {
        e2e::run(&w, args.seed, args.seconds, &mut tally);
        absent = e2e::report(&tally, &mut report);
    }
    let correct = tally.failed == 0 && tally.outputs_ok;
    report.print(tally.attempted, tally.failed, correct, &absent);
    ExitCode::SUCCESS
}
