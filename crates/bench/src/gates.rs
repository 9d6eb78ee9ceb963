//! The gate table: the one list of checks that prove the runtime matches
//! its analytical predictions (§5), each with the planted defect that
//! proves the check has teeth.
//!
//! A row names a check and, optionally, a typed [`Mutation`] plus the
//! detectors the mutated run's report must name. The check receives the
//! mutation as a value and hands it to the code it sabotages — the radio
//! model, the program, the deployment side, or the sharded runtime
//! ([`wsn_runtime::PhysicalRuntime::plant_shard_mutation`]). Sides, cut
//! levels, lanes, volleys and tolerances are constants of the rows.
//!
//! `wsn-lint gate <row> [--mutate]` and `wsn-lint gate --all` run the
//! table, `run_all` runs its `conform` and `perf` rows before rewriting
//! the perf baseline, and the exit-code suite takes its gate rows from it.

use crate::experiments::{
    record_end_to_end_trace_mutated, record_end_to_end_trace_with, record_model_fidelity_trace,
    record_shard_leak_trace, RunEngine,
};
use crate::hotpath::{allocprobe, sharded_hotpath, steady_state_hotpath};
use crate::{lint, perfbase};
use wsn_analyze::{check_shard_conformance, Diagnostics};
use wsn_obs::TraceDocument;
use wsn_runtime::ShardMutation::{self, MisorderedMerge, UndercountTap};

/// A planted defect, handed as a value to the layer it sabotages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    /// The runtime radio mis-prices the certified cost model: ticks per
    /// unit × `hop_cost`, transmit energy × `tx_energy`.
    Radio { hop_cost: f64, tx_energy: f64 },
    /// The planted cross-shard leak: [`lint::leak_mutated_figure4`]
    /// statically, and the leaking program's extra message in the
    /// recorded trace ([`crate::experiments::record_shard_leak_trace`]).
    ShardLeak,
    /// The side-32 deployment, whose root summary overflows the fixed
    /// frame.
    PayloadOverflow,
    /// A defect of the sharded runtime.
    Shard(ShardMutation),
}

impl Mutation {
    /// The runtime radio prices each hop at `k` times the certified cost.
    pub const fn hop_cost(k: f64) -> Mutation {
        Mutation::Radio {
            hop_cost: k,
            tx_energy: 1.0,
        }
    }

    /// The radio's (hop cost, transmit energy) multipliers under
    /// `mutation`: `(1.0, 1.0)` unless it mis-prices the radio.
    pub fn radio_scale(mutation: Option<Mutation>) -> (f64, f64) {
        match mutation {
            Some(Mutation::Radio {
                hop_cost,
                tx_energy,
            }) => (hop_cost, tx_energy),
            _ => (1.0, 1.0),
        }
    }
}

/// A check's verdict: `Ok(report)` when it passes, `Err(report)` when it
/// fails.
type Verdict = Result<String, String>;

/// One row of the gate table.
pub struct Gate {
    /// Row name, as `wsn-lint gate <name>` takes it.
    pub name: &'static str,
    /// The planted defect and the detectors its failing report must name.
    pub mutation: Option<(Mutation, &'static [&'static str])>,
    check: Check,
}

/// A row's check: runs clean on `None`, or with the planted mutation.
type Check = fn(Option<Mutation>) -> Verdict;

/// What one run of a row produced.
pub struct Run {
    /// The check passed.
    pub passed: bool,
    /// The run met the table: a clean run passed, or a mutated run failed
    /// with a report naming every detector.
    pub expected: bool,
    /// The check's report.
    pub report: String,
    /// One line naming the row, the run and its verdict.
    pub line: String,
}

impl Gate {
    /// Whether the check passed, and its report ending in a newline.
    fn outcome(&self, mutation: Option<Mutation>) -> (bool, String) {
        let (passed, mut report) = match (self.check)(mutation) {
            Ok(report) => (true, report),
            Err(report) => (false, report),
        };
        if !report.ends_with('\n') {
            report.push('\n');
        }
        (passed, report)
    }

    /// Runs the check clean.
    pub fn clean(&self) -> Run {
        let (passed, report) = self.outcome(None);
        let verdict = if passed { "pass" } else { "FAIL" };
        Run {
            passed,
            expected: passed,
            report,
            line: format!("{verdict:<7} {}", self.name),
        }
    }

    /// Runs the check with its planted mutation; `None` for rows without
    /// one.
    pub fn mutated(&self) -> Option<Run> {
        let (mutation, detectors) = self.mutation?;
        let (passed, report) = self.outcome(Some(mutation));
        let named = detectors.iter().all(|d| report.contains(d));
        let detectors = detectors.join(", ");
        let (verdict, how) = match (passed, named) {
            (false, true) => ("caught", format!("by {detectors}")),
            (false, false) => ("MISSED", format!("failed without naming {detectors}")),
            (true, _) => ("MISSED", "the check passed".to_string()),
        };
        Some(Run {
            passed,
            expected: !passed && named,
            report,
            line: format!("{verdict:<7} {} --mutate: {how}", self.name),
        })
    }
}

/// The row called `name`.
pub fn find(name: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.name == name)
}

/// Allowed drift of the perf and scale rows, and the obs row's overhead
/// bound, in percent.
const TOLERANCE_PCT: f64 = 10.0;

/// The committed perf baseline, relative to the workspace root.
pub const BASELINE_PATH: &str = "BENCH_topoquery.json";

const fn gate(name: &'static str, check: Check) -> Gate {
    Gate {
        name,
        mutation: None,
        check,
    }
}

const fn planted(
    name: &'static str,
    check: Check,
    mutation: Mutation,
    detectors: &'static [&'static str],
) -> Gate {
    Gate {
        name,
        mutation: Some((mutation, detectors)),
        check,
    }
}

/// The gate table.
pub static GATES: &[Gate] = &[
    gate("lint", lint_row),
    planted("conform", conform_row, Mutation::hop_cost(2.0), &["TC004"]),
    planted("shard", shard_row, Mutation::ShardLeak, &["SI003", "TC009"]),
    planted("frame", frame_row, Mutation::PayloadOverflow, &["FL001"]),
    planted("shard-metrics", shard_metrics_row, SKEW, &["TC010"]),
    planted("perf", perf_row, Mutation::hop_cost(1.5), PERF_DRIFT),
    planted("parallel", parallel_row, MISORDER, &["side 4 cut 1 seed 5"]),
    gate("alloc", alloc_row),
    gate("obs", obs_row),
    gate("scale", scale_row),
];

const SKEW: Mutation = Mutation::Shard(UndercountTap);
const MISORDER: Mutation = Mutation::Shard(MisorderedMerge);
const PERF_DRIFT: &[&str] = &["latency_ticks", "critpath_ticks"];

/// `Ok(ok)` when no configuration failed, else every failing one's
/// diagnostics under its label.
fn verdict(failures: Vec<(String, Diagnostics)>, ok: &str) -> Verdict {
    if failures.is_empty() {
        return Ok(ok.to_string());
    }
    Err(failures
        .into_iter()
        .map(|(at, diags)| format!("{at} failed:\n{}", diags.render_text()))
        .collect())
}

/// The paper's Figure-4 deployments (depths 1–3) lint error-free.
fn lint_row(_: Option<Mutation>) -> Verdict {
    let failures = (1..=3)
        .map(|depth| (format!("depth {depth}"), lint::lint_figure4(depth)))
        .filter(|(_, diags)| diags.has_errors())
        .collect();
    verdict(
        failures,
        "paper deployments (depths 1..=3) are error-free\n",
    )
}

/// The §4 certificate derives clean at depth 2, and the seeded
/// model-fidelity runs at sides 4 and 8 land inside every certified
/// bound.
fn conform_row(mutation: Option<Mutation>) -> Verdict {
    let (cert, diags) = lint::certify_figure4(2);
    if diags.has_errors() {
        return Err(format!("{}{}", cert.render_text(), diags.render_text()));
    }
    match lint::conformance_gate_with(&[4, 8], mutation) {
        Ok(bounds) => Ok(format!(
            "sides 4 and 8 inside all {bounds} certified bounds\n"
        )),
        Err(f) => verdict(
            f.into_iter()
                .map(|(s, d)| (format!("side {s}"), d))
                .collect(),
            "",
        ),
    }
}

/// The shard certificates hold statically, and the seeded causal traces
/// replay inside the certified boundary (TC009), at (depth, cut) ∈
/// {2, 3} × {1, 2}. The planted leak is checked statically
/// ([`lint::leak_mutated_figure4`]) and replayed from its recorded run.
fn shard_row(mutation: Option<Mutation>) -> Verdict {
    let leak = mutation == Some(Mutation::ShardLeak);
    let mut failures = Vec::new();
    for depth in [2u8, 3] {
        let side = 2u32.pow(u32::from(depth));
        let trace = if leak {
            record_shard_leak_trace(side, 3, 5)
        } else {
            record_model_fidelity_trace(side, 3, 5, 1.0, 1.0)
        };
        let trace = TraceDocument::from_jsonl(&trace.to_jsonl()).expect("own trace round-trips");
        for cut in [1u8, 2] {
            let (cert, mut diags) = lint::shard_check_figure4(depth, cut, false)?;
            if leak {
                diags.extend(lint::shard_check_figure4(depth, cut, true)?.1);
            }
            if let Some(cert) = &cert {
                diags.extend(check_shard_conformance(cert, &trace));
            }
            diags.sort();
            if diags.has_errors() || cert.is_none() {
                failures.push((format!("depth {depth} cut {cut}"), diags));
            }
        }
    }
    let ok = "shard certificates hold, statically and on the seeded traces (sides 4, 8 at \
              cut levels 1, 2)\n";
    verdict(failures, ok)
}

/// The frame layout certifies at depths 2 and 3. The planted overflow is
/// the depth-5 (side-32) deployment.
fn frame_row(mutation: Option<Mutation>) -> Verdict {
    let depths: &[u8] = if mutation == Some(Mutation::PayloadOverflow) {
        &[5]
    } else {
        &[2, 3]
    };
    let failures = depths
        .iter()
        .map(|&depth| (depth, lint::frame_check_figure4(depth)))
        .filter(|(_, (cert, diags))| cert.is_none() || diags.has_errors())
        .map(|(depth, (_, diags))| (format!("depth {depth}"), diags))
        .collect();
    verdict(failures, "frame layout certifies at depths 2 and 3\n")
}

/// TC010: per-shard telemetry reconciles with the certificate and the
/// kernel's dispatch total at (depth, cut) ∈ {(2,1), (3,2), (4,2)}.
fn shard_metrics_row(mutation: Option<Mutation>) -> Verdict {
    let skew = mutation == Some(SKEW);
    let mut failures = Vec::new();
    for (depth, cut) in [(2u8, 1u8), (3, 2), (4, 2)] {
        let (_, diags) = lint::shard_metrics_figure4(depth, cut, skew)?;
        if diags.has_errors() {
            failures.push((format!("depth {depth} cut {cut}"), diags));
        }
    }
    verdict(
        failures,
        "per-shard counters reconcile at sides 4, 8 and 16\n",
    )
}

/// The seeded perf snapshots at sides 4 and 8 stay within the tolerance
/// of the committed `BENCH_topoquery.json`.
fn perf_row(mutation: Option<Mutation>) -> Verdict {
    let text = std::fs::read_to_string(BASELINE_PATH)
        .map_err(|e| format!("cannot read {BASELINE_PATH}: {e}\n"))?;
    let baseline =
        perfbase::parse_snapshots(&text).map_err(|e| format!("{BASELINE_PATH}: {e}\n"))?;
    let (hop_cost, tx_energy) = Mutation::radio_scale(mutation);
    let current = perfbase::perf_snapshots(&[4, 8], hop_cost, tx_energy)?;
    perfbase::regression_gate(&current, &baseline, TOLERANCE_PCT, false)
}

/// Certificate gating holds — the sharded engine engages on the clean
/// Figure-4 program and refuses the leak-mutated one — and sharded runs
/// on 4 lanes at sides 4 and 8, cut levels 1 and 2, seeds 5 and 6 are
/// byte-identical to the sequential reference: the JSONL trace (dispatch
/// and causal logs inside it) and the `RunMetrics`. A divergence names
/// its (side, cut, seed) cell.
fn parallel_row(mutation: Option<Mutation>) -> Verdict {
    if lint::certified_engine(4, 1, 4, true).0 != RunEngine::Sequential {
        return Err(
            "certificate gating is broken: the leak-mutated program still selected \
                    the sharded engine"
                .to_string(),
        );
    }
    for (side, cut) in [(4u32, 1u8), (4, 2), (8, 1), (8, 2)] {
        let (engine, diags) = lint::certified_engine(side, cut, 4, false);
        if engine == RunEngine::Sequential {
            return Err(format!(
                "side {side} cut {cut}: shard certificate not clean, sharded kernel refused \
                 to engage:\n{}",
                diags.render_text()
            ));
        }
        for seed in [5u64, 6] {
            let (seq, seq_metrics) =
                record_end_to_end_trace_with(side, 3, seed, true, RunEngine::Sequential);
            let (par, par_metrics) =
                record_end_to_end_trace_mutated(side, 3, seed, true, engine, mutation);
            let cell = format!("side {side} cut {cut} seed {seed}");
            if seq.to_jsonl() != par.to_jsonl() {
                return Err(format!(
                    "{cell}: sharded trace diverged from the sequential reference"
                ));
            }
            if format!("{seq_metrics:?}") != format!("{par_metrics:?}") {
                return Err(format!(
                    "{cell}: sharded RunMetrics diverged: {par_metrics:?} vs {seq_metrics:?}"
                ));
            }
        }
    }
    Ok(
        "certificate gating holds and 8 sharded runs (sides 4, 8 at cut levels 1, 2) are \
        byte-identical to the sequential reference\n"
            .to_string(),
    )
}

/// The frame certificate holds at side 8 and its steady-state round of
/// 200 volleys allocates nothing, on the sequential engine and, after
/// warm-up rounds, on the sharded one (cut 1, one lane); two warm side-4
/// rounds of 50 volleys allocate nothing and dispatch equal event counts.
/// Needs the counting allocator only `wsn-lint` installs, in a process of
/// its own.
fn alloc_row(_: Option<Mutation>) -> Verdict {
    if allocprobe::allocations().is_none() {
        return Err("no counting allocator installed; run `wsn-lint gate alloc`\n".to_string());
    }
    let mut report = lint::alloc_gate(8, 200)?;
    let sharded = sharded_hotpath(8, 200, 2);
    report.push_str(&format!(
        "  warm sharded round (cut 1, 1 lane): {} allocations, {} events\n",
        sharded.allocations.unwrap_or_default(),
        sharded.events
    ));
    let a = steady_state_hotpath(4, 50, 3);
    let b = steady_state_hotpath(4, 50, 3);
    report.push_str(&format!(
        "  warm side-4 rounds: {} and {} allocations, {} and {} events\n",
        a.allocations.unwrap_or_default(),
        b.allocations.unwrap_or_default(),
        a.events,
        b.events
    ));
    if sharded.allocations == Some(0)
        && a.allocations == Some(0)
        && b.allocations == Some(0)
        && a.events == b.events
    {
        Ok(report)
    } else {
        Err(report)
    }
}

/// The instrumented steady-state hot path costs at most 10% more per
/// event than the bare one; the report prints both ns/event figures.
fn obs_row(_: Option<Mutation>) -> Verdict {
    lint::obs_gate(8, 1000, TOLERANCE_PCT)
}

/// The side-512 sharded smoke (cut 2, 8 lanes), recorded twice after an
/// untimed warm-up, with the peak-RSS mark reset before each: the seeded
/// columns must be equal, and events/sec and peak RSS within the
/// tolerance of the first recording. The warm-up makes both recordings
/// start from the same allocator state; without it the second inherits
/// the first's freed-but-retained heap and peaks higher.
fn scale_row(_: Option<Mutation>) -> Verdict {
    let (engine, diags) = lint::certified_engine(512, 2, 8, false);
    if engine == RunEngine::Sequential {
        return Err(format!(
            "shard certificate not clean at side 512 cut 2:\n{}",
            diags.render_text()
        ));
    }
    let record = || {
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("cannot reset the peak-RSS mark: {e}"))?;
        perfbase::perf_snapshots_with(&[512], 1.0, 1.0, engine, true)
    };
    let (_, first, second) = (record()?, record()?, record()?);
    let seeded = |r: &perfbase::RunSnapshot| {
        let counts = [
            r.latency_ticks,
            r.messages,
            r.critpath_ticks,
            r.critpath_hops,
        ];
        (counts, r.events, r.energy_total)
    };
    let gated = perfbase::regression_gate(&second, &first, TOLERANCE_PCT, true);
    if first.iter().map(seeded).eq(second.iter().map(seeded)) {
        gated
    } else {
        let report = gated.unwrap_or_else(|e| e);
        Err(format!(
            "{report}\nseeded columns differ between the two recordings\n"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_found_by_their_unique_names() {
        for gate in GATES {
            assert!(
                std::ptr::eq(find(gate.name).unwrap(), gate),
                "{}",
                gate.name
            );
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn the_static_rows_pass_clean_and_catch_their_mutations() {
        for name in ["lint", "shard", "frame"] {
            let gate = find(name).unwrap();
            let run = gate.clean();
            assert!(run.passed && run.expected, "{name}: {}", run.report);
            if let Some(run) = gate.mutated() {
                assert!(!run.passed && run.expected, "{name}: {}", run.report);
                assert!(run.line.starts_with("caught"), "{}", run.line);
            }
        }
        assert!(find("lint").unwrap().mutated().is_none());
    }

    #[test]
    fn the_alloc_row_refuses_to_run_unmeasured() {
        // No counting allocator in the unit-test process.
        let run = find("alloc").unwrap().clean();
        assert!(!run.passed && !run.expected);
        assert!(
            run.report.contains("no counting allocator"),
            "{}",
            run.report
        );
    }
}
