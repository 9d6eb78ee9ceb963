//! Machine-readable run snapshots and the perf-baseline regression gate.
//!
//! `run_all` distills each seeded topoquery run into a [`RunSnapshot`]
//! (latency, messages, energy, critical-path shape per grid side), writes
//! the set to `BENCH_topoquery.json`, and diffs it against the committed
//! baseline with [`regression_gate`]: any per-metric drift beyond the
//! tolerance fails the build. The causal layer makes the gate sharp — the
//! critical-path length is an *exact* quantity on seeded runs, so a +50%
//! hop-delay mutation shifts it deterministically and must trip the gate.
//!
//! Two snapshot columns are machine-dependent rather than seeded:
//! `events_per_sec` (simulator throughput) and `peak_rss_bytes` (process
//! memory high-water mark). They are always *recorded* so the baseline
//! documents the scale runs, but only *gated* when the caller opts in
//! (`gate_throughput`) — CI gates them against a same-machine baseline,
//! never against numbers committed from another box. Snapshots marked
//! `scale: true` (the side-512 sharded-kernel row) are likewise exempt
//! from the missing-side check unless the caller re-records them.

use crate::experiments::RunEngine;
use wsn_obs::{extract_critical_path, Json, TraceDocument};

/// Headline numbers of one seeded topoquery run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot {
    /// Grid side (the run simulates a `side x side` virtual grid).
    pub side: u32,
    /// Application span duration in ticks.
    pub latency_ticks: u64,
    /// Application messages (`net.messages`).
    pub messages: u64,
    /// Total energy spent across the network.
    pub energy_total: f64,
    /// Critical-path length in ticks (equals `latency_ticks` on faithful
    /// seeded runs — the exactness invariant).
    pub critpath_ticks: u64,
    /// Radio hops on the critical path.
    pub critpath_hops: u64,
    /// Kernel events dispatched over the whole mission (deterministic).
    pub events: u64,
    /// Events dispatched per wall-clock second (machine-dependent).
    pub events_per_sec: f64,
    /// Process peak RSS after the run, from `/proc/self/status` VmHWM
    /// (machine-dependent; 0 where the proc interface is unavailable).
    pub peak_rss_bytes: u64,
    /// Heap allocations per dispatched event in the steady-state round
    /// of the framed hot-path mission (see
    /// [`crate::hotpath::steady_state_hotpath`]). Deterministic — the
    /// zero-copy contract pins it to exactly `0.0` — but measurable only
    /// under a counting allocator; `-1.0` means unmeasured, and the gate
    /// only compares the column when both sides measured it.
    pub allocs_per_event: f64,
    /// Scale-experiment row (sharded kernel at a large side): exempt
    /// from the default gate's missing-side check so routine `perf` gate
    /// runs stay cheap.
    pub scale: bool,
}

/// The process's peak resident-set size in bytes, read from
/// `/proc/self/status` (`VmHWM`). Returns 0 on platforms or sandboxes
/// without that interface — callers treat 0 as "unmeasured".
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kib * 1024;
        }
    }
    0
}

/// Distills a recorded trace into a [`RunSnapshot`]. `wall_secs` is the
/// measured wall-clock duration of the recording (throughput
/// denominator); the RSS high-water mark is read at call time.
pub fn snapshot_from_trace(
    side: u32,
    doc: &TraceDocument,
    wall_secs: f64,
) -> Result<RunSnapshot, String> {
    let span = doc
        .spans
        .iter()
        .find(|s| s.name == "application")
        .ok_or("trace has no application span")?;
    let energy = doc
        .gauges
        .iter()
        .find(|(k, _)| k == "energy.total")
        .map(|&(_, v)| v)
        .ok_or("trace has no energy.total gauge")?;
    let events = doc.meta.as_ref().map(|m| m.events).unwrap_or(0);
    let path = extract_critical_path(&doc.causal)?;
    Ok(RunSnapshot {
        side,
        latency_ticks: span.duration_ticks(),
        messages: doc.counter("net.messages"),
        energy_total: energy,
        critpath_ticks: path.total_ticks(),
        critpath_hops: path.hop_count() as u64,
        events,
        events_per_sec: events as f64 / wall_secs.max(1e-9),
        peak_rss_bytes: peak_rss_bytes(),
        allocs_per_event: -1.0,
        scale: false,
    })
}

/// Renders snapshots as the `BENCH_topoquery.json` document.
pub fn render_snapshots(runs: &[RunSnapshot]) -> String {
    let arr = runs
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("side".to_string(), Json::from_u64(u64::from(r.side))),
                ("latency_ticks".to_string(), Json::from_u64(r.latency_ticks)),
                ("messages".to_string(), Json::from_u64(r.messages)),
                ("energy_total".to_string(), Json::Num(r.energy_total)),
                (
                    "critpath_ticks".to_string(),
                    Json::from_u64(r.critpath_ticks),
                ),
                ("critpath_hops".to_string(), Json::from_u64(r.critpath_hops)),
                ("events".to_string(), Json::from_u64(r.events)),
                (
                    "events_per_sec".to_string(),
                    Json::Num((r.events_per_sec * 10.0).round() / 10.0),
                ),
                (
                    "peak_rss_bytes".to_string(),
                    Json::from_u64(r.peak_rss_bytes),
                ),
                (
                    "allocs_per_event".to_string(),
                    Json::Num((r.allocs_per_event * 10000.0).round() / 10000.0),
                ),
                ("scale".to_string(), Json::Bool(r.scale)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![("runs".to_string(), Json::Arr(arr))]);
    let mut text = doc.render();
    text.push('\n');
    text
}

/// Parses a `BENCH_topoquery.json` document. The throughput columns and
/// the scale flag default to zero/false so baselines recorded before
/// those columns existed still parse.
pub fn parse_snapshots(text: &str) -> Result<Vec<RunSnapshot>, String> {
    let doc = Json::parse(text.trim()).map_err(|e| e.to_string())?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("baseline without a runs array")?;
    runs.iter()
        .map(|r| {
            let u = |key: &str| {
                r.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("run without {key}"))
            };
            Ok(RunSnapshot {
                side: u("side")? as u32,
                latency_ticks: u("latency_ticks")?,
                messages: u("messages")?,
                energy_total: r
                    .get("energy_total")
                    .and_then(Json::as_f64)
                    .ok_or("run without energy_total")?,
                critpath_ticks: u("critpath_ticks")?,
                critpath_hops: u("critpath_hops")?,
                events: u("events").unwrap_or(0),
                events_per_sec: r
                    .get("events_per_sec")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                peak_rss_bytes: u("peak_rss_bytes").unwrap_or(0),
                allocs_per_event: r
                    .get("allocs_per_event")
                    .and_then(Json::as_f64)
                    .unwrap_or(-1.0),
                scale: r.get("scale").and_then(Json::as_bool).unwrap_or(false),
            })
        })
        .collect()
}

/// Records the seeded fidelity run at each side and distills snapshots.
/// The multipliers mirror
/// [`record_model_fidelity_trace`](crate::experiments::record_model_fidelity_trace):
/// `1.0`/`1.0` is the faithful run; `hop_cost_multiplier = 1.5` is the
/// +50% hop-delay mutation the gate must catch.
pub fn perf_snapshots(
    sides: &[u32],
    hop_cost_multiplier: f64,
    tx_energy_multiplier: f64,
) -> Result<Vec<RunSnapshot>, String> {
    perf_snapshots_with(
        sides,
        hop_cost_multiplier,
        tx_energy_multiplier,
        RunEngine::Sequential,
        false,
    )
}

/// [`perf_snapshots`] on an explicit engine. `scale` marks the resulting
/// rows as scale-experiment rows (recorded but side-set-exempt in the
/// default gate); scale rows deploy one node per cell — at side 512 that
/// is already a quarter-million physical nodes.
pub fn perf_snapshots_with(
    sides: &[u32],
    hop_cost_multiplier: f64,
    tx_energy_multiplier: f64,
    engine: RunEngine,
    scale: bool,
) -> Result<Vec<RunSnapshot>, String> {
    sides
        .iter()
        .map(|&side| {
            let started = std::time::Instant::now();
            let doc = crate::experiments::record_model_fidelity_trace_with(
                side,
                if scale { 1 } else { 3 },
                5,
                hop_cost_multiplier,
                tx_energy_multiplier,
                engine,
            );
            let wall = started.elapsed().as_secs_f64();
            snapshot_from_trace(side, &doc, wall)
                .map(|mut s| {
                    s.scale = scale;
                    // The per-event allocation column rides the standard
                    // rows only: the steady-state framed mission is a
                    // fixed side-`side` workload, pointless (and slow) to
                    // repeat at scale sides outside the frame envelope.
                    if !scale && wsn_core::framed_payload_fits(side) {
                        s.allocs_per_event = crate::hotpath::steady_state_hotpath(side, 100, 2)
                            .allocs_per_event()
                            .unwrap_or(-1.0);
                    }
                    s
                })
                .map_err(|e| format!("side {side}: {e}"))
        })
        .collect()
}

fn drift_pct(baseline: f64, current: f64) -> f64 {
    if baseline == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((current - baseline) / baseline * 100.0).abs()
    }
}

/// Diffs `current` against `baseline`, metric by metric. Returns the
/// rendered report; `Err` when any gated metric drifts more than
/// `tolerance_pct` percent (or a non-scale side is missing from either
/// set).
///
/// Seeded metrics (latency, messages, energy, critical path, events) are
/// always gated. The machine-dependent throughput metrics
/// (`events_per_sec`, `peak_rss_bytes`) are reported as `info` unless
/// `gate_throughput` is set — only meaningful against a baseline recorded
/// on the same machine. Rows flagged `scale` are skipped (not failed)
/// when the other set lacks them.
pub fn regression_gate(
    current: &[RunSnapshot],
    baseline: &[RunSnapshot],
    tolerance_pct: f64,
    gate_throughput: bool,
) -> Result<String, String> {
    let mut report = String::new();
    let mut failures = 0usize;
    for base in baseline {
        let Some(cur) = current.iter().find(|r| r.side == base.side) else {
            if base.scale {
                report.push_str(&format!(
                    "side {}: scale row not re-recorded (skipped)\n",
                    base.side
                ));
            } else {
                report.push_str(&format!("side {}: MISSING from current run\n", base.side));
                failures += 1;
            }
            continue;
        };
        // (name, baseline, current, gated)
        let metrics: [(&str, f64, f64, bool); 9] = [
            (
                "latency_ticks",
                base.latency_ticks as f64,
                cur.latency_ticks as f64,
                true,
            ),
            ("messages", base.messages as f64, cur.messages as f64, true),
            ("energy_total", base.energy_total, cur.energy_total, true),
            (
                "critpath_ticks",
                base.critpath_ticks as f64,
                cur.critpath_ticks as f64,
                true,
            ),
            (
                "critpath_hops",
                base.critpath_hops as f64,
                cur.critpath_hops as f64,
                true,
            ),
            ("events", base.events as f64, cur.events as f64, true),
            (
                "events_per_sec",
                base.events_per_sec,
                cur.events_per_sec,
                gate_throughput,
            ),
            (
                "peak_rss_bytes",
                base.peak_rss_bytes as f64,
                cur.peak_rss_bytes as f64,
                gate_throughput,
            ),
            // Deterministic (a seeded count, not wall clock), so gated
            // like latency — but only when both sides measured it
            // (`-1.0` = no counting allocator was installed).
            (
                "allocs_per_event",
                base.allocs_per_event,
                cur.allocs_per_event,
                base.allocs_per_event >= 0.0 && cur.allocs_per_event >= 0.0,
            ),
        ];
        for (name, b, c, gated) in metrics {
            let drift = drift_pct(b, c);
            let verdict = if !gated {
                "info"
            } else if drift > tolerance_pct {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            report.push_str(&format!(
                "side {}: {name:<16} {b:>12.1} -> {c:<12.1} drift {drift:>6.1}%  {verdict}\n",
                base.side
            ));
        }
    }
    for cur in current {
        if !baseline.iter().any(|r| r.side == cur.side) {
            if cur.scale {
                report.push_str(&format!(
                    "side {}: new scale row (re-commit BENCH_topoquery.json to keep it)\n",
                    cur.side
                ));
            } else {
                report.push_str(&format!(
                    "side {}: not in baseline (re-commit BENCH_topoquery.json)\n",
                    cur.side
                ));
                failures += 1;
            }
        }
    }
    if failures > 0 {
        Err(format!(
            "{report}perf baseline gate: {failures} metric(s) beyond +/-{tolerance_pct}%"
        ))
    } else {
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(side: u32) -> RunSnapshot {
        RunSnapshot {
            side,
            latency_ticks: 31,
            messages: 20,
            energy_total: 99.0,
            critpath_ticks: 31,
            critpath_hops: 3,
            events: 500,
            events_per_sec: 120000.0,
            peak_rss_bytes: 40 * 1024 * 1024,
            allocs_per_event: 0.0,
            scale: false,
        }
    }

    fn scale_snap(side: u32) -> RunSnapshot {
        RunSnapshot {
            scale: true,
            ..snap(side)
        }
    }

    #[test]
    fn snapshots_round_trip_through_json() {
        let runs = vec![snap(4), snap(8), scale_snap(512)];
        let text = render_snapshots(&runs);
        let parsed = parse_snapshots(&text).unwrap();
        assert_eq!(parsed, runs);
    }

    #[test]
    fn legacy_baseline_without_throughput_columns_still_parses() {
        let text = r#"{"runs": [{"side": 4, "latency_ticks": 31, "messages": 20,
            "energy_total": 99.0, "critpath_ticks": 31, "critpath_hops": 3}]}"#;
        let parsed = parse_snapshots(text).unwrap();
        assert_eq!(parsed[0].events, 0);
        assert_eq!(parsed[0].events_per_sec, 0.0);
        assert_eq!(parsed[0].peak_rss_bytes, 0);
        assert_eq!(parsed[0].allocs_per_event, -1.0);
        assert!(!parsed[0].scale);
    }

    #[test]
    fn gate_passes_identical_runs_and_reports_every_metric() {
        let runs = vec![snap(4)];
        let report = regression_gate(&runs, &runs, 10.0, false).unwrap();
        assert_eq!(report.matches(" ok\n").count(), 7);
        assert_eq!(report.matches(" info\n").count(), 2);
        assert!(!report.contains("FAIL"));
    }

    #[test]
    fn any_steady_state_allocation_trips_the_gate() {
        let baseline = vec![snap(4)];
        let mut current = vec![snap(4)];
        // The committed contract is exactly zero; a single allocation
        // per thousand events is infinite drift from it.
        current[0].allocs_per_event = 0.001;
        let err = regression_gate(&current, &baseline, 10.0, false).unwrap_err();
        assert!(err.contains("allocs_per_event"), "{err}");
        assert!(err.contains("FAIL"), "{err}");
        // Unmeasured on either side: informational, never gated.
        current[0].allocs_per_event = -1.0;
        let report = regression_gate(&current, &baseline, 10.0, false).unwrap();
        assert!(!report.contains("FAIL"), "{report}");
    }

    #[test]
    fn gate_fails_on_latency_drift_beyond_tolerance() {
        let baseline = vec![snap(4)];
        let mut current = vec![snap(4)];
        current[0].latency_ticks = 47; // the +50% hop-delay shape
        current[0].critpath_ticks = 47;
        let err = regression_gate(&current, &baseline, 10.0, false).unwrap_err();
        assert!(err.contains("latency_ticks"), "{err}");
        assert!(err.contains("FAIL"), "{err}");
        assert!(err.contains("beyond"), "{err}");
    }

    #[test]
    fn gate_fails_on_missing_or_extra_sides() {
        let baseline = vec![snap(4), snap(8)];
        let current = vec![snap(4), snap(16)];
        let err = regression_gate(&current, &baseline, 10.0, false).unwrap_err();
        assert!(err.contains("side 8: MISSING"), "{err}");
        assert!(err.contains("side 16: not in baseline"), "{err}");
    }

    #[test]
    fn scale_rows_are_exempt_from_the_side_set_check() {
        let baseline = vec![snap(4), scale_snap(512)];
        let current = vec![snap(4)];
        let report = regression_gate(&current, &baseline, 10.0, false).unwrap();
        assert!(
            report.contains("side 512: scale row not re-recorded"),
            "{report}"
        );
        // And a freshly recorded scale row not yet committed passes too.
        let report = regression_gate(&[snap(4), scale_snap(512)], &[snap(4)], 10.0, false).unwrap();
        assert!(report.contains("side 512: new scale row"), "{report}");
    }

    #[test]
    fn throughput_gating_is_opt_in() {
        let baseline = vec![snap(4)];
        let mut current = vec![snap(4)];
        current[0].events_per_sec = 10.0; // collapsed throughput
        current[0].peak_rss_bytes = 100 * 1024 * 1024 * 1024; // blown RSS
        assert!(
            regression_gate(&current, &baseline, 10.0, false).is_ok(),
            "throughput drift must not fail the default gate"
        );
        let err = regression_gate(&current, &baseline, 10.0, true).unwrap_err();
        assert!(err.contains("events_per_sec"), "{err}");
        assert!(err.contains("peak_rss_bytes"), "{err}");
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let baseline = vec![snap(4)];
        let mut current = vec![snap(4)];
        current[0].energy_total = 101.0; // ~2% drift
        assert!(regression_gate(&current, &baseline, 10.0, false).is_ok());
    }

    #[test]
    fn peak_rss_reads_a_plausible_value_on_linux() {
        let rss = peak_rss_bytes();
        // On Linux this process certainly exceeds 1 MiB; elsewhere 0 is
        // the documented "unmeasured" value.
        assert!(rss == 0 || rss > 1024 * 1024, "implausible VmHWM {rss}");
    }
}
