//! `wsn-chaos` — seeded chaos fuzzer for the self-healing runtime.
//!
//! ```text
//! wsn-chaos                 200-scenario sweep (seeds 1..=200)
//! wsn-chaos --smoke         40-scenario sweep + determinism recheck (CI)
//! wsn-chaos --sweep N       N-scenario sweep
//! wsn-chaos --seed B        start the sweep at base seed B
//! wsn-chaos --no-shrink     skip minimizing failing schedules
//! ```
//!
//! Each seed deterministically generates a deployment, a scalar field,
//! and a [`wsn_net::ChaosPlan`] of typed fault injections, then runs the
//! distributed quad-tree labeling under the runtime's self-healing chaos
//! mission and differentially checks every surviving answer against the
//! centralized `label_regions` oracle. Stalling under fire is acceptable;
//! a wrong answer is a bug: its schedule is replayed with the dispatch log
//! on into `chaos-trace-<seed>.jsonl` (render it with `netscope`), it is
//! minimized by greedy delta-debugging, and it fails the process (exit 1).
//! A sample of seeds is re-run to prove the sweep replays bit-identically,
//! and one telemetry-enabled mission verifies the recovery counters
//! surface in the telemetry store.

use std::process::ExitCode;
use wsn_net::{ChaosPlan, DeploymentSpec, LinkModel, RadioModel};
use wsn_runtime::{PhysicalRuntime, SelfHealConfig};
use wsn_sim::SimTime;
use wsn_topoquery::{
    chaos::{replay_scenario_traced, run_scenario, shrink_plan, ChaosScenario, ChaosVerdict},
    DandcMsg, DandcProgram,
};

/// How many stalled schedules to shrink and display (shrinking re-runs
/// the mission per candidate event, so it is rationed).
const SHRUNK_STALLS_SHOWN: usize = 3;
/// Seeds re-run verbatim to prove the sweep is replayable.
const DETERMINISM_SAMPLE: u64 = 5;

struct SweepTally {
    correct: u64,
    stalls: u64,
    wrong: u64,
    heals: u64,
    leases_expired: u64,
    reelections: u64,
    epochs: u64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let shrink = !args.iter().any(|a| a == "--no-shrink");
    let sweep = match flag_value(&args, "--sweep") {
        Ok(v) => v.unwrap_or(if smoke { 40 } else { 200 }),
        Err(e) => return usage_error(&e),
    };
    let base = match flag_value(&args, "--seed") {
        Ok(v) => v.unwrap_or(1),
        Err(e) => return usage_error(&e),
    };

    let mut tally = SweepTally {
        correct: 0,
        stalls: 0,
        wrong: 0,
        heals: 0,
        leases_expired: 0,
        reelections: 0,
        epochs: 0,
    };
    let mut stalls_shown = 0;
    for seed in base..base + sweep {
        let scenario = ChaosScenario::generate(seed);
        let outcome = run_scenario(&scenario);
        tally.heals += u64::from(outcome.report.heals);
        tally.leases_expired += outcome.report.leases_expired;
        tally.reelections += outcome.report.reelections;
        tally.epochs += u64::from(outcome.report.epochs);
        match outcome.verdict {
            ChaosVerdict::Correct => tally.correct += 1,
            ChaosVerdict::Stall => {
                tally.stalls += 1;
                if shrink && stalls_shown < SHRUNK_STALLS_SHOWN {
                    stalls_shown += 1;
                    let minimal = shrink_plan(&scenario, |o| o.verdict == ChaosVerdict::Stall);
                    println!(
                        "seed {seed}: stall ({} node(s), {} event(s)) — minimal schedule:",
                        scenario.side * scenario.side * scenario.per_cell as u32,
                        scenario.plan.len(),
                    );
                    for ev in minimal.events() {
                        println!("    {ev}");
                    }
                }
            }
            ChaosVerdict::Wrong { got, want } => {
                tally.wrong += 1;
                eprintln!(
                    "seed {seed}: WRONG ANSWER — distributed {got} vs oracle {want} \
                     (side {}, {} per cell, {} fault(s))",
                    scenario.side,
                    scenario.per_cell,
                    scenario.plan.len(),
                );
                let (_, jsonl) = replay_scenario_traced(&scenario, scenario.plan.clone());
                let path = format!("chaos-trace-{seed}.jsonl");
                match std::fs::write(&path, jsonl) {
                    Ok(()) => eprintln!("  traced replay written to {path} (netscope {path})"),
                    Err(e) => eprintln!("  cannot write traced replay {path}: {e}"),
                }
                if shrink {
                    let minimal = shrink_plan(&scenario, |o| !o.verdict.is_safe());
                    eprintln!("  minimal failing schedule:");
                    for ev in minimal.events() {
                        eprintln!("    {ev}");
                    }
                }
            }
        }
    }

    println!(
        "sweep: {} scenario(s), seeds {}..={}",
        sweep,
        base,
        base + sweep - 1
    );
    println!(
        "  verdicts: {} correct, {} stalled, {} wrong",
        tally.correct, tally.stalls, tally.wrong
    );
    println!(
        "  recovery: {} heal(s), {} lease(s) expired, {} re-election(s), {} epoch(s) run",
        tally.heals, tally.leases_expired, tally.reelections, tally.epochs
    );

    let replayable = determinism_recheck(base, sweep);
    let telemetry_ok = telemetry_check();

    if tally.wrong > 0 {
        eprintln!("FAIL: {} wrong answer(s)", tally.wrong);
        return ExitCode::FAILURE;
    }
    if !replayable || !telemetry_ok {
        return ExitCode::FAILURE;
    }
    println!("OK: no wrong answers; sweep replays bit-identically");
    ExitCode::SUCCESS
}

/// Re-runs a sample of seeds and demands identical mission reports and
/// answers — the property that makes any reported failure reproducible
/// from its seed alone.
fn determinism_recheck(base: u64, sweep: u64) -> bool {
    let step = (sweep / DETERMINISM_SAMPLE).max(1);
    let mut ok = true;
    for seed in (base..base + sweep).step_by(step as usize) {
        let scenario = ChaosScenario::generate(seed);
        let a = run_scenario(&scenario);
        let b = run_scenario(&scenario);
        if a.report != b.report || a.answers != b.answers {
            eprintln!("seed {seed}: NON-DETERMINISTIC replay\n  a: {a:?}\n  b: {b:?}");
            ok = false;
        }
    }
    if ok {
        println!("  determinism: sampled seeds replay bit-identically");
    }
    ok
}

/// One telemetry-enabled mission with a mid-application leader-killing
/// crash: the recovery counters must surface in the telemetry store.
fn telemetry_check() -> bool {
    let deployment = DeploymentSpec::per_cell(2, 4).generate(21);
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    let mut rt: PhysicalRuntime<DandcMsg> = PhysicalRuntime::new(
        deployment,
        RadioModel::uniform(range),
        LinkModel::ideal(),
        None,
        1,
        21,
        |c| f64::from(c.col + c.row),
    );
    rt.enable_telemetry(false);
    rt.install_programs(|_| Box::new(DandcProgram::new(2, 5.0)));
    let cfg = SelfHealConfig::default();
    // A far-future pending event holds every bounded bring-up phase to
    // its full horizon, so the application starts at exactly
    // 3 × phase_budget_ticks; the crash lands one tick later. Node 0 is
    // not guaranteed to lead a cell, so fall back to periodic refresh to
    // guarantee at least one heal either way.
    let crash_at = 3 * cfg.phase_budget_ticks + 1;
    rt.install_chaos(ChaosPlan::none().crash_at(SimTime::from_ticks(crash_at), 0))
        .expect("static plan validates");
    let report = rt.run_chaos_mission(
        SelfHealConfig {
            refresh_every_epochs: 2,
            ..cfg
        },
        1,
    );
    let telemetry = rt.telemetry();
    let exported = [
        ("heal.epochs", u64::from(report.epochs)),
        ("heal.reemulations", u64::from(report.heals)),
        ("heal.reelections", report.reelections),
        ("heal.leases_expired", report.leases_expired),
    ];
    let mut ok = true;
    for (name, expect) in exported {
        if telemetry.counter(name) != expect {
            eprintln!(
                "telemetry mismatch: {name} = {} but mission reported {expect}",
                telemetry.counter(name)
            );
            ok = false;
        }
    }
    if telemetry.counter("heal.epochs") == 0 {
        eprintln!("telemetry check: heal.epochs never incremented");
        ok = false;
    }
    if ok {
        println!(
            "  telemetry: heal.* counters recorded (epochs {}, heals {}, re-elections {}, leases {})",
            report.epochs, report.heals, report.reelections, report.leases_expired
        );
    }
    ok
}

fn flag_value(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("{flag} expects a number, got {v:?}")),
            None => Err(format!("{flag} expects a value")),
        },
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("wsn-chaos: {msg}");
    print_usage();
    ExitCode::from(2)
}

fn print_usage() {
    eprintln!(
        "usage: wsn-chaos [--smoke] [--sweep N] [--seed B] [--no-shrink]\n\
         seeded differential chaos fuzzing of the self-healing runtime;\n\
         exit 1 on any wrong answer, non-deterministic replay, or missing\n\
         telemetry counters"
    );
}
