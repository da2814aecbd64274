//! The approx channel tier's acceptance gate.
//!
//! `ChannelFidelity::Approx` deliberately realises *different bits* than
//! the Exact tier (ziggurat innovations, dt-quantised decay), so it
//! cannot ride on the Exact goldens. Instead it is
//! held to three standards:
//!
//! 1. **Its own pinned goldens** — the Approx realisation is still fully
//!    deterministic, so fixed-seed trials pin an FNV-1a hash of the
//!    summary exactly like `golden_metrics.rs` does for Exact. Regenerate
//!    (only on an intentional approx-tier change) with:
//!
//!    ```text
//!    GOLDEN_PRINT=1 cargo test -q --test approx_equivalence -- --nocapture
//!    ```
//!
//! 2. **Exact A/B identity** — making the default tier *explicit* must
//!    not move a single bit: `ChannelFidelity::Exact` summaries equal the
//!    default-config summaries, which is what lets every pre-existing
//!    golden stay green un-regenerated.
//!
//! 3. **Statistical equivalence** — across a sweep grid under common
//!    random numbers, delivery/latency aggregates sit within CI
//!    half-widths of Exact, and the class process observed through the
//!    trace layer (SNR-class dwell times, `ClassTransition` rates) agrees
//!    within standard-error bounds. This is the distributional standard
//!    the tier is designed for.

use rica_channel::{ChannelConfig, ChannelFidelity};
use rica_exec::{ExecOptions, SweepPlan};
use rica_harness::{sweep::run_plan, ProtocolKind, Scenario, World};
use rica_trace::{RingSink, TraceEvent};

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The `golden_metrics.rs` mobile-12 scenario, with a selectable tier.
fn mobile12(fidelity: ChannelFidelity) -> Scenario {
    Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(30.0)
        .mean_speed_kmh(36.0)
        .seed(7)
        .channel(ChannelConfig { fidelity, ..ChannelConfig::default() })
        .build()
}

/// `(protocol, summary-debug hash, generated, delivered)`.
type GoldenRow = (ProtocolKind, u64, u64, u64);

#[test]
fn approx_mobile_12_node_summaries_are_pinned() {
    const GOLDEN: &[GoldenRow] = &[
        (ProtocolKind::Rica, 0x41c588fcde755c76, 866, 250),
        (ProtocolKind::Bgca, 0xef8eb6ccf87ba914, 866, 258),
        (ProtocolKind::Abr, 0xee46ee4092cf8ed4, 866, 258),
        (ProtocolKind::Aodv, 0x886a5f64a45aa1f1, 866, 251),
        (ProtocolKind::LinkState, 0xa28db55506acaf0a, 866, 232),
    ];
    let s = mobile12(ChannelFidelity::Approx);
    for &(kind, want_hash, want_generated, want_delivered) in GOLDEN {
        let summary = s.run(kind);
        let debug = format!("{summary:?}");
        let hash = fnv1a(&debug);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!(
                "(approx-mobile12) (ProtocolKind::{kind:?}, 0x{hash:016x}, {}, {}),",
                summary.generated, summary.delivered
            );
            continue;
        }
        assert_eq!(
            (summary.generated, summary.delivered),
            (want_generated, want_delivered),
            "approx-mobile12/{kind}: generated/delivered drifted from the golden trial"
        );
        assert_eq!(
            hash, want_hash,
            "approx-mobile12/{kind}: summary no longer byte-identical; full summary:\n{debug}"
        );
    }
}

#[test]
fn explicit_exact_is_bit_identical_to_the_default() {
    // The A/B test behind "every pre-existing golden stays green": naming
    // the default tier explicitly must not perturb one bit of any
    // protocol's realisation.
    let explicit = mobile12(ChannelFidelity::Exact);
    let implicit = Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(30.0)
        .mean_speed_kmh(36.0)
        .seed(7)
        .build();
    assert_eq!(implicit.channel.fidelity, ChannelFidelity::Exact, "Exact must be the default");
    for kind in [
        ProtocolKind::Rica,
        ProtocolKind::Bgca,
        ProtocolKind::Abr,
        ProtocolKind::Aodv,
        ProtocolKind::LinkState,
    ] {
        let a = format!("{:?}", explicit.run(kind));
        let b = format!("{:?}", implicit.run(kind));
        assert_eq!(fnv1a(&a), fnv1a(&b), "{kind}: explicit Exact diverged from default:\n{a}\n{b}");
    }
}

/// Mean and squared standard error of the mean.
fn mean_se_sq(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, var / n)
}

/// Asserts `|mean_a − mean_b|` within `3σ` of the paired difference plus
/// an absolute slack (for quantisation-scale bias), with a labelled
/// diagnostic.
fn assert_equivalent(label: &str, a: &[f64], b: &[f64], slack: f64) {
    let (ma, se2_a) = mean_se_sq(a);
    let (mb, se2_b) = mean_se_sq(b);
    let half_width = 3.0 * (se2_a + se2_b).sqrt();
    assert!(
        (ma - mb).abs() < half_width + slack,
        "{label}: exact {ma:.4} vs approx {mb:.4} exceeds 3σ {half_width:.4} + slack {slack}"
    );
}

#[test]
fn sweep_aggregates_are_statistically_equivalent() {
    // CI-half-width gate across a sweep grid: both tiers run the same
    // seeds (common random numbers along the fidelity axis), and per-cell
    // delivery and delay means must agree within 3σ of the per-trial
    // spread. Grid kept small — this runs in the dev profile.
    let base = Scenario::builder().nodes(12).flows(3).rate_pps(10.0).duration_secs(20.0).build();
    let plan = SweepPlan::new(
        vec![ProtocolKind::Rica, ProtocolKind::Aodv],
        vec![18.0, 54.0],
        vec![12],
        10,
        400,
    )
    .with_fidelities(vec![ChannelFidelity::Exact, ChannelFidelity::Approx]);
    let result = run_plan(&plan, &base, &ExecOptions::serial());
    // Cells alternate Exact/Approx (fidelity is the innermost cell axis).
    assert_eq!(result.cells.len() % 2, 0);
    for pair in result.cells.chunks(2) {
        let (e, a) = (&pair[0], &pair[1]);
        assert_eq!(e.fidelity, ChannelFidelity::Exact);
        assert_eq!(a.fidelity, ChannelFidelity::Approx);
        let cell_label = format!("{}@{}kmh", e.protocol.name(), e.speed_kmh);
        let delivery = |c: &rica_exec::SweepCell<ProtocolKind>| -> Vec<f64> {
            c.trials.iter().map(|t| t.delivery_pct()).collect()
        };
        let delay = |c: &rica_exec::SweepCell<ProtocolKind>| -> Vec<f64> {
            c.trials.iter().map(|t| t.delay_mean_ms).collect()
        };
        assert_equivalent(&format!("{cell_label}/delivery_pct"), &delivery(e), &delivery(a), 2.0);
        assert_equivalent(&format!("{cell_label}/delay_mean_ms"), &delay(e), &delay(a), 5.0);
    }
}

/// Per-trial class-process statistics from `ClassTransition` events:
/// `(transition rate per pair-second, mean dwell secs)`.
fn class_process_stats(fidelity: ChannelFidelity, seed: u64) -> (f64, f64) {
    let s = Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(20.0)
        .mean_speed_kmh(36.0)
        .seed(seed)
        .channel(ChannelConfig { fidelity, ..ChannelConfig::default() })
        .build();
    let mut world = World::new(&s, ProtocolKind::Rica, seed);
    world.enable_trace(Box::new(RingSink::unbounded()));
    world.start();
    let end = world.now() + s.duration;
    world.step_until(end);
    let mut sink = world.take_trace_sink().expect("sink installed");
    let ring = sink.downcast_mut::<RingSink>().expect("ring sink");
    let mut transitions = 0u64;
    let mut pairs = std::collections::BTreeMap::<(u32, u32), f64>::new();
    let mut dwell_sum = 0.0;
    let mut dwell_n = 0u64;
    for ev in ring.events() {
        if let TraceEvent::ClassTransition { t, a, b, .. } = *ev {
            transitions += 1;
            let key = (a.0.min(b.0), a.0.max(b.0));
            let now = t.as_secs_f64();
            if let Some(prev) = pairs.insert(key, now) {
                dwell_sum += now - prev;
                dwell_n += 1;
            }
        }
    }
    assert!(transitions > 0, "a 20 s mobile trial must observe class transitions");
    let rate = transitions as f64 / (pairs.len().max(1) as f64 * s.duration.as_secs_f64());
    let dwell = dwell_sum / dwell_n.max(1) as f64;
    (rate, dwell)
}

#[test]
fn class_dwell_and_transition_rates_are_statistically_equivalent() {
    // The level-crossing behaviour of the SNR-class process — what
    // channel-adaptive routing actually consumes — observed through the
    // PR 6 trace layer, compared across tiers over independent seeds.
    let seeds: Vec<u64> = (0..12).map(|i| 9_000 + i * 13).collect();
    let collect = |fidelity: ChannelFidelity| -> (Vec<f64>, Vec<f64>) {
        let mut rates = Vec::new();
        let mut dwells = Vec::new();
        for &seed in &seeds {
            let (r, d) = class_process_stats(fidelity, seed);
            rates.push(r);
            dwells.push(d);
        }
        (rates, dwells)
    };
    let (rates_e, dwells_e) = collect(ChannelFidelity::Exact);
    let (rates_a, dwells_a) = collect(ChannelFidelity::Approx);
    assert_equivalent("class transition rate", &rates_e, &rates_a, 0.02);
    assert_equivalent("class dwell secs", &dwells_e, &dwells_a, 0.2);
    // Both tiers stay in the paper's adaptation regime: dwell times of
    // order a second, so the 1 s CSI-checking period can track them.
    for (label, dwells) in [("exact", &dwells_e), ("approx", &dwells_a)] {
        let mean = dwells.iter().sum::<f64>() / dwells.len() as f64;
        assert!((0.2..10.0).contains(&mean), "{label} mean dwell {mean} s out of regime");
    }
}
