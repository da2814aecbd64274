//! The four benchmark workloads: what each runs and how its trial seeds
//! derive from `--seed`.

use rica_exec::SweepPlan;
use rica_faults::FaultPlan;
use rica_harness::experiments::Scale;
use rica_harness::{ProtocolKind, Scenario};
use rica_traffic::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};

/// The `--seed` whose reference trials carry pinned digests.
pub const DEFAULT_SEED: u64 = 1;

/// Names accepted by `--workload`, in documentation order.
pub const NAMES: [&str; 4] = ["paper_grid", "scale200", "churn_burst", "figure_sweep"];

/// The four on-demand protocols of the paper's comparison.
const ON_DEMAND: [ProtocolKind; 4] =
    [ProtocolKind::Rica, ProtocolKind::Bgca, ProtocolKind::Abr, ProtocolKind::Aodv];

/// How a workload executes its trial list.
pub enum Shape {
    /// One thread runs `World` trials back to back; a round is one seed
    /// under every protocol.
    Serial,
    /// A round (set) is the `Scale::quick()` Figs. 2–5 sweeps, run through
    /// `SweepPlan::run` on the worker pool.
    Sweep { scale: Scale, workers: usize },
}

pub struct Workload {
    pub name: &'static str,
    pub protocols: Vec<ProtocolKind>,
    /// Template scenario (sweeps override speed, nodes and seed per job).
    pub scenario: Scenario,
    pub shape: Shape,
    /// Rounds that form the fixed trial list: the simulated statistics
    /// come from them. Later rounds only add timing samples.
    pub list_rounds: usize,
    /// Rounds the traced run counts over (each runs three passes).
    pub trace_rounds: usize,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let paper = || Scenario::builder().nodes(50).flows(10).mean_speed_kmh(36.0);
        let w = match name {
            "paper_grid" => Workload {
                name: "paper_grid",
                protocols: ON_DEMAND.to_vec(),
                scenario: paper().rate_pps(10.0).duration_secs(100.0).build(),
                shape: Shape::Serial,
                list_rounds: 33,
                trace_rounds: 24,
            },
            "scale200" => Workload {
                name: "scale200",
                protocols: vec![ProtocolKind::Rica],
                scenario: Scenario::builder()
                    .nodes(200)
                    .flows(20)
                    .rate_pps(10.0)
                    .mean_speed_kmh(36.0)
                    .duration_secs(25.0)
                    .build(),
                shape: Shape::Serial,
                list_rounds: 30,
                trace_rounds: 20,
            },
            "churn_burst" => Workload {
                name: "churn_burst",
                protocols: ON_DEMAND.to_vec(),
                scenario: paper()
                    .rate_pps(20.0)
                    .duration_secs(100.0)
                    .workload(WorkloadSpec {
                        arrival: ArrivalSpec::OnOffBurst {
                            on_mean_secs: 0.5,
                            off_mean_secs: 1.5,
                            dwell: Dwell::Exponential,
                        },
                        size: SizeSpec::Bimodal { small: 40, large: 1460, p_small: 0.3 },
                    })
                    .faults(FaultPlan::none().with_churn(40.0, 10.0, 5.0))
                    .build(),
                shape: Shape::Serial,
                list_rounds: 36,
                trace_rounds: 24,
            },
            "figure_sweep" => {
                let scale = Scale::quick();
                let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
                Workload {
                    name: "figure_sweep",
                    protocols: ProtocolKind::ALL.to_vec(),
                    scenario: Scenario::builder()
                        .nodes(scale.nodes)
                        .flows(scale.flows)
                        .duration_secs(scale.duration_secs)
                        .rate_pps(10.0)
                        .build(),
                    shape: Shape::Sweep { scale, workers },
                    list_rounds: 2,
                    trace_rounds: 1,
                }
            }
            _ => return None,
        };
        Some(w)
    }

    pub fn is_sweep(&self) -> bool {
        matches!(self.shape, Shape::Sweep { .. })
    }

    /// Plan `index` of sweep set `set`, as `(artifact label, plan)`; `None`
    /// past the last. Fig. 2–4 share the 10 pkt/s speed sweep; Fig. 5 is
    /// the 72 km/h route-quality run, as `experiments::run_all_with` builds
    /// them.
    pub fn sweep_plan(
        &self,
        seed: u64,
        set: usize,
        index: usize,
    ) -> Option<(String, SweepPlan<ProtocolKind>)> {
        let Shape::Sweep { scale, .. } = &self.shape else { return None };
        let base = trial_seed(seed, set * 64);
        let (label, speeds, base) = match index {
            0 => ("speed_sweep_10pps", scale.speeds.clone(), base),
            1 => ("route_quality_72kmh", vec![72.0], base + 32),
            _ => return None,
        };
        let plan =
            SweepPlan::new(self.protocols.clone(), speeds, vec![scale.nodes], scale.trials, base);
        Some((label.to_string(), plan))
    }

    /// Every plan of sweep set `set`.
    pub fn sweep_plans(&self, seed: u64, set: usize) -> Vec<(String, SweepPlan<ProtocolKind>)> {
        (0..).map_while(|i| self.sweep_plan(seed, set, i)).collect()
    }
}

/// Seed of round `round` under `--seed seed`. Distinct `--seed` values
/// give disjoint seed ranges for the first 2^20 rounds.
pub fn trial_seed(seed: u64, round: usize) -> u64 {
    (seed << 20).wrapping_add(round as u64)
}
