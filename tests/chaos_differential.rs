//! Differential chaos fuzzing at the stack level (the safety property of
//! `churn_and_loss.rs`, generalized): random fields × random typed fault
//! schedules, executed under the self-healing runtime, must either match
//! the centralized `label_regions` oracle or stall explicitly — never
//! report a wrong region count. Failures shrink to a minimal schedule and
//! replay from their seed alone, and a traced replay reproduces the run
//! with its complete dispatch log.

use wsn::obs::TraceDocument;
use wsn::topoquery::chaos::{
    replay_scenario_traced, run_scenario, run_scenario_with_plan, shrink_plan, ChaosScenario,
    ChaosVerdict,
};

/// Seed lane for this suite (disjoint from the wsn-chaos CLI's default
/// sweep so CI exercises fresh schedules).
const BASE_SEED: u64 = 1000;
const CASES: u64 = 40;

#[test]
fn random_chaos_never_yields_wrong_region_count() {
    let mut correct = 0u64;
    let mut stalls = 0u64;
    let mut heals = 0u64;
    for seed in BASE_SEED..BASE_SEED + CASES {
        let scenario = ChaosScenario::generate(seed);
        let outcome = run_scenario(&scenario);
        heals += u64::from(outcome.report.heals);
        match outcome.verdict {
            ChaosVerdict::Correct => correct += 1,
            ChaosVerdict::Stall => stalls += 1,
            ChaosVerdict::Wrong { got, want } => {
                // Minimize before failing so the report is actionable.
                let minimal = shrink_plan(&scenario, |o| !o.verdict.is_safe());
                panic!(
                    "seed {seed}: distributed answer {got} vs oracle {want}; \
                     minimal schedule ({} of {} events): {:#?}",
                    minimal.len(),
                    scenario.plan.len(),
                    minimal.events()
                );
            }
        }
    }
    assert_eq!(correct + stalls, CASES);
    assert!(
        correct > stalls,
        "chaos should usually be survivable: {correct} correct vs {stalls} stalled"
    );
    assert!(
        heals > 0,
        "some schedule must have tripped the self-healing loop"
    );
}

#[test]
fn scenarios_replay_bit_identically() {
    for seed in BASE_SEED..BASE_SEED + 5 {
        let scenario = ChaosScenario::generate(seed);
        let a = run_scenario(&scenario);
        let b = run_scenario(&scenario);
        assert_eq!(a.verdict, b.verdict, "seed {seed}");
        assert_eq!(a.report, b.report, "seed {seed}");
        assert_eq!(a.answers, b.answers, "seed {seed}");
        // The post-mortem replay: telemetry and the dispatch log on must
        // reproduce the untraced outcome and log every dispatch.
        let (traced, jsonl) = replay_scenario_traced(&scenario, scenario.plan.clone());
        assert_eq!(a.verdict, traced.verdict, "seed {seed}");
        assert_eq!(a.report, traced.report, "seed {seed}");
        assert_eq!(a.answers, traced.answers, "seed {seed}");
        let doc = TraceDocument::from_jsonl(&jsonl)
            .unwrap_or_else(|e| panic!("seed {seed}: traced replay does not parse: {e}"));
        let meta = doc.meta.expect("a replay trace carries its meta record");
        assert!(meta.events > 0, "seed {seed}");
        assert_eq!(doc.events.len() as u64, meta.events, "seed {seed}");
    }
}

#[test]
fn shrunk_schedules_still_reproduce_their_failure() {
    // Find a stalling scenario in the lane, shrink it, and verify the
    // minimized schedule still stalls — the contract that makes shrunk
    // reports trustworthy.
    let stalled = (BASE_SEED..BASE_SEED + CASES)
        .map(ChaosScenario::generate)
        .find(|s| run_scenario(s).verdict == ChaosVerdict::Stall);
    let Some(scenario) = stalled else {
        // Lane produced no stall — acceptable (nothing to shrink).
        return;
    };
    let minimal = shrink_plan(&scenario, |o| o.verdict == ChaosVerdict::Stall);
    assert!(minimal.len() <= scenario.plan.len());
    assert!(!minimal.is_empty(), "a stall needs at least one fault");
    let replay = run_scenario_with_plan(&scenario, minimal.clone());
    assert_eq!(replay.verdict, ChaosVerdict::Stall, "{minimal:?}");
    // 1-minimality: removing any remaining event loses the stall.
    for i in 0..minimal.len() {
        let weaker = minimal.without_event(i);
        assert_ne!(
            run_scenario_with_plan(&scenario, weaker).verdict,
            ChaosVerdict::Stall,
            "event {i} of the shrunk schedule is removable"
        );
    }
}
