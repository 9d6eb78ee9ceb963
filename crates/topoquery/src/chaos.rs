//! Differential chaos fuzzing of the self-healing runtime.
//!
//! A [`ChaosScenario`] bundles everything one fuzz case needs: a random
//! deployment, a random scalar field, and a random [`ChaosPlan`] of typed
//! fault injections. [`run_scenario`] executes the distributed quad-tree
//! labeling under [`wsn_runtime::PhysicalRuntime::run_chaos_mission`] and
//! differentially checks every surviving answer against the centralized
//! [`label_regions`] oracle on the same field.
//!
//! The safety contract mirrors `tests/churn_and_loss.rs`: under arbitrary
//! injected faults the network may *stall* (produce no answer within the
//! epoch budget), but any answer it does produce must equal the oracle's
//! region count. A wrong answer is always a bug; [`shrink_plan`] then
//! greedily minimizes the offending plan one event at a time so the
//! failure reproduces from the smallest schedule.
//!
//! Everything is seeded: the same scenario seed regenerates the same
//! deployment, field, plan, and — because the kernel is deterministic —
//! the same verdict, which is what makes failures replayable from a
//! one-line report. A post-mortem is such a replay:
//! [`replay_scenario_traced`] re-runs a schedule with telemetry and the
//! kernel's dispatch log on and returns the run's trace.

use crate::dandc::{DandcMsg, DandcProgram};
use crate::field::{Field, FieldSpec};
use crate::regions::label_regions;
use wsn_net::{ChaosPlan, DeliveryChaos, DeploymentSpec, LinkModel, RadioModel};
use wsn_runtime::{ChaosMissionReport, PhysicalRuntime, SelfHealConfig};
use wsn_sim::{DetRng, SimTime};

/// RNG stream tag for scenario generation (distinct from any kernel
/// stream so fuzz draws never alias simulation draws).
const STREAM_SCENARIO: u64 = 0xCA05;
/// Field generation gets its own seed lane.
const FIELD_SEED_XOR: u64 = 0xF1E1D;

/// One self-contained fuzz case.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// The seed that regenerates this scenario exactly.
    pub seed: u64,
    /// Virtual grid side (cells per side).
    pub side: u32,
    /// Physical nodes deployed per cell.
    pub per_cell: usize,
    /// Feature threshold for the labeling query.
    pub threshold: f64,
    /// The sensed field.
    pub field: Field,
    /// The fault schedule under test.
    pub plan: ChaosPlan,
    /// Optional hop-by-hop ARQ `(max_retries, timeout_ticks)`.
    pub arq: Option<(u32, u64)>,
    /// Optional per-node energy budget.
    pub budget: Option<f64>,
}

/// Outcome of differentially checking one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosVerdict {
    /// Every exfiltrated answer matched the centralized oracle.
    Correct,
    /// No answer survived the fault schedule — explicit silence, the
    /// acceptable failure mode.
    Stall,
    /// An answer disagreed with the oracle — always a bug.
    Wrong {
        /// Region count the network reported.
        got: usize,
        /// Region count the oracle computed.
        want: usize,
    },
}

impl ChaosVerdict {
    /// `true` unless the verdict is [`ChaosVerdict::Wrong`].
    pub fn is_safe(self) -> bool {
        !matches!(self, ChaosVerdict::Wrong { .. })
    }
}

/// Everything [`run_scenario`] observed about one execution.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The differential verdict.
    pub verdict: ChaosVerdict,
    /// The self-healing mission's own report.
    pub report: ChaosMissionReport,
    /// Answers that survived (exfiltrated region counts, in order).
    pub answers: Vec<usize>,
    /// The oracle's region count for the scenario's field.
    pub oracle: usize,
}

impl ChaosScenario {
    /// Deterministically generates the fuzz case for `seed`: a small
    /// deployment, a random field shape, and a bounded random schedule of
    /// typed faults (crashes, recoveries, link degradation, a partition
    /// with a later heal, delivery chaos, energy shocks), with ARQ and a
    /// finite energy budget mixed in occasionally.
    pub fn generate(seed: u64) -> Self {
        let mut rng = DetRng::stream(seed, STREAM_SCENARIO);
        let side = if rng.chance(0.5) { 2 } else { 4 };
        let per_cell = 3 + rng.bounded_usize(3);
        let n = (side * side) as usize * per_cell;
        let threshold = 5.0;
        let spec = match rng.bounded_usize(3) {
            0 => FieldSpec::Blobs {
                count: 1 + rng.bounded_usize(4),
                amplitude: 10.0,
                radius: 1.0 + rng.unit_f64() * 2.0,
            },
            1 => FieldSpec::RandomCells {
                p: 0.2 + 0.6 * rng.unit_f64(),
                hot: 10.0,
                cold: 0.0,
            },
            _ => FieldSpec::Gradient {
                west: 0.0,
                east: 10.0,
            },
        };
        let field = Field::generate(spec, side, seed ^ FIELD_SEED_XOR);
        // Faults land anywhere from bring-up through the first few
        // epochs; events during bring-up are legal (the mission must
        // still answer correctly or stall).
        let horizon = 600;
        let mut plan = ChaosPlan::none();
        for _ in 0..(1 + rng.bounded_usize(6)) {
            let at = SimTime::from_ticks(1 + rng.bounded_u64(horizon));
            match rng.bounded_usize(6) {
                0 => plan = plan.crash_at(at, rng.bounded_usize(n)),
                1 => plan = plan.recover_at(at, rng.bounded_usize(n)),
                2 => {
                    let a = rng.bounded_usize(n);
                    let b = (a + 1 + rng.bounded_usize(n - 1)) % n;
                    plan = plan.degrade_link_at(at, a, b, 0.3 + 0.7 * rng.unit_f64());
                }
                3 => {
                    // Split the deployment in two and heal soon after —
                    // a permanent partition would only exercise Stall.
                    let cut = 1 + rng.bounded_usize(n - 1);
                    plan = plan
                        .partition_at(at, (0..cut).collect(), (cut..n).collect())
                        .heal_partition_at(at + 40 + rng.bounded_u64(120));
                }
                4 => {
                    plan = plan.delivery_at(
                        at,
                        DeliveryChaos {
                            dup_prob: 0.3 * rng.unit_f64(),
                            reorder_prob: 0.5 * rng.unit_f64(),
                            reorder_max_extra_ticks: 1 + rng.bounded_u64(4),
                        },
                    );
                }
                _ => {
                    plan = plan.energy_shock_at(
                        at,
                        rng.bounded_usize(n),
                        50.0 + 200.0 * rng.unit_f64(),
                    );
                }
            }
        }
        let arq = rng.chance(0.3).then_some((4, 24));
        let budget = rng.chance(0.25).then_some(400.0);
        ChaosScenario {
            seed,
            side,
            per_cell,
            threshold,
            field,
            plan,
            arq,
            budget,
        }
    }

    /// The centralized ground truth: region count of the thresholded
    /// field under [`label_regions`].
    pub fn oracle_region_count(&self) -> usize {
        label_regions(&self.field.threshold(self.threshold)).region_count()
    }
}

/// Runs the scenario's own plan. See [`run_scenario_with_plan`].
pub fn run_scenario(scenario: &ChaosScenario) -> ScenarioOutcome {
    run_scenario_with_plan(scenario, scenario.plan.clone())
}

/// Executes the distributed quad-tree labeling under `plan` (which may be
/// a shrunk variant of the scenario's own) and differentially checks
/// every exfiltrated answer against the centralized oracle.
pub fn run_scenario_with_plan(scenario: &ChaosScenario, plan: ChaosPlan) -> ScenarioOutcome {
    run_mission(scenario, plan, false).0
}

/// Replays the scenario under `plan` with telemetry and the kernel's
/// complete dispatch log on, returning the outcome and the run's trace
/// as JSONL (`wsn_obs::TraceDocument`, rendered by `netscope`). Tracing
/// observes the run without perturbing it, so the outcome equals
/// [`run_scenario_with_plan`]'s: this is how a failing seed is taken
/// apart after the fact.
pub fn replay_scenario_traced(
    scenario: &ChaosScenario,
    plan: ChaosPlan,
) -> (ScenarioOutcome, String) {
    let (outcome, rt) = run_mission(scenario, plan, true);
    (outcome, rt.record_trace().to_jsonl())
}

/// The one mission set-up behind both entry points: deploys the
/// scenario, optionally turns telemetry and the dispatch log on
/// (`traced`), runs the self-healing mission under `plan` and judges the
/// answers against the oracle.
fn run_mission(
    scenario: &ChaosScenario,
    plan: ChaosPlan,
    traced: bool,
) -> (ScenarioOutcome, PhysicalRuntime<DandcMsg>) {
    let deployment =
        DeploymentSpec::per_cell(scenario.side, scenario.per_cell).generate(scenario.seed);
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    let field = scenario.field.clone();
    let mut rt: PhysicalRuntime<DandcMsg> = PhysicalRuntime::new(
        deployment,
        RadioModel::uniform(range),
        LinkModel::ideal(),
        scenario.budget,
        1,
        scenario.seed,
        move |c| field.value(c),
    );
    if traced {
        rt.enable_telemetry(true);
    }
    let (side, threshold) = (scenario.side, scenario.threshold);
    rt.install_programs(move |_| Box::new(DandcProgram::new(side, threshold)));
    if let Some((max_retries, timeout_ticks)) = scenario.arq {
        rt.enable_arq(max_retries, timeout_ticks);
    }
    rt.install_chaos(plan).expect("generated plans validate");
    // Lease expiry catches dead leaders; the §5.1 periodic re-emulation
    // additionally routes around dead *relays*, whose death expires no
    // lease but silently eats forwarded envelopes.
    let cfg = SelfHealConfig {
        refresh_every_epochs: 4,
        ..SelfHealConfig::default()
    };
    let report = rt.run_chaos_mission(cfg, 1);
    let oracle = scenario.oracle_region_count();
    let answers: Vec<usize> = rt
        .take_exfiltrated()
        .iter()
        .map(|e| e.payload.data.expect_complete().region_count())
        .collect();
    let verdict = match answers.iter().find(|&&got| got != oracle) {
        Some(&got) => ChaosVerdict::Wrong { got, want: oracle },
        None if answers.is_empty() => ChaosVerdict::Stall,
        None => ChaosVerdict::Correct,
    };
    let outcome = ScenarioOutcome {
        verdict,
        report,
        answers,
        oracle,
    };
    (outcome, rt)
}

/// Greedy delta-debugging: starting from `scenario.plan`, repeatedly
/// drops any single event whose removal keeps `failing` true, until no
/// single removal preserves the failure. Returns the minimized plan.
///
/// `failing` receives each candidate's outcome; pass a predicate matching
/// the failure you are chasing (e.g. "verdict is Wrong").
pub fn shrink_plan(
    scenario: &ChaosScenario,
    failing: impl Fn(&ScenarioOutcome) -> bool,
) -> ChaosPlan {
    let mut plan = scenario.plan.clone();
    loop {
        let mut shrunk = false;
        for i in 0..plan.len() {
            let candidate = plan.without_event(i);
            if failing(&run_scenario_with_plan(scenario, candidate.clone())) {
                plan = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return plan;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..20 {
            let a = ChaosScenario::generate(seed);
            let b = ChaosScenario::generate(seed);
            assert_eq!(a.plan.events(), b.plan.events(), "seed {seed}");
            assert_eq!(a.side, b.side);
            assert_eq!(a.per_cell, b.per_cell);
            assert!(!a.plan.is_empty(), "every scenario injects something");
            let n = (a.side * a.side) as usize * a.per_cell;
            a.plan
                .validate(n, SimTime::ZERO)
                .unwrap_or_else(|e| panic!("seed {seed} generated invalid plan: {e}"));
        }
    }

    #[test]
    fn distinct_seeds_diversify_fault_kinds() {
        use std::collections::BTreeSet;
        let kinds: BTreeSet<String> = (0..40)
            .flat_map(|seed| {
                ChaosScenario::generate(seed)
                    .plan
                    .events()
                    .iter()
                    .map(|e| {
                        let s = e.kind.to_string();
                        s[..s.find('(').unwrap_or(s.len())].to_string()
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(
            kinds.len() >= 5,
            "40 seeds should exercise most fault kinds, got {kinds:?}"
        );
    }

    #[test]
    fn benign_scenario_is_correct_and_replays_identically() {
        // A delivery-chaos-only plan on a healthy net must stay correct.
        let scenario = ChaosScenario {
            seed: 7,
            side: 2,
            per_cell: 3,
            threshold: 5.0,
            field: Field::generate(
                FieldSpec::Blobs {
                    count: 2,
                    amplitude: 10.0,
                    radius: 1.5,
                },
                2,
                7,
            ),
            plan: ChaosPlan::none().delivery_at(
                SimTime::from_ticks(5),
                DeliveryChaos {
                    dup_prob: 0.3,
                    reorder_prob: 0.3,
                    reorder_max_extra_ticks: 3,
                },
            ),
            arq: None,
            budget: None,
        };
        let a = run_scenario(&scenario);
        assert_eq!(a.verdict, ChaosVerdict::Correct, "{a:?}");
        let b = run_scenario(&scenario);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.report, b.report, "bit-identical replay");
        assert_eq!(a.answers, b.answers);
    }

    #[test]
    fn shrink_drops_irrelevant_events() {
        // A scenario whose plan contains one event that forces a stall
        // (partition never healed) plus harmless link noise: shrinking a
        // "stalled" failure must keep the partition and drop the rest.
        let base = ChaosScenario::generate(3);
        let n = (base.side * base.side) as usize * base.per_cell;
        let scenario = ChaosScenario {
            plan: ChaosPlan::none()
                .degrade_link_at(SimTime::from_ticks(2), 0, 1, 0.4)
                .partition_at(
                    SimTime::from_ticks(4),
                    (0..n / 2).collect(),
                    (n / 2..n).collect(),
                )
                .degrade_link_at(SimTime::from_ticks(6), 1, 2, 0.4),
            arq: None,
            budget: None,
            ..base
        };
        let outcome = run_scenario(&scenario);
        assert_eq!(outcome.verdict, ChaosVerdict::Stall, "{outcome:?}");
        let minimal = shrink_plan(&scenario, |o| o.verdict == ChaosVerdict::Stall);
        assert_eq!(minimal.len(), 1, "only the partition matters: {minimal:?}");
        assert!(
            minimal.events()[0]
                .kind
                .to_string()
                .starts_with("partition"),
            "{minimal:?}"
        );
    }
}
