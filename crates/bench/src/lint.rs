//! Shared logic of the `wsn-lint` binary: assemble the paper's artifacts
//! (or decode serialized ones), run the static analyzer, and render the
//! verdict for terminals, JSON consumers, or the CI gate. Also home of
//! the certification entry points: symbolic bound derivation
//! (`--certify`) and measured-trace conformance (`--conform`), plus the
//! checks the rows of [`crate::gates::GATES`] run.

use crate::experiments::RunEngine;
use crate::gates::Mutation;
use crate::hotpath::HotpathReport;
use wsn_analyze::{
    analyze_deployment, analyze_frames, analyze_program, analyze_shards, certify,
    check_conformance, check_deadlock, check_shard_accounting, check_shard_conformance, CertConfig,
    Certificate, Diagnostics, FrameCertificate, ReachConfig, ShardCertificate,
};
use wsn_core::ShardPlan;
use wsn_obs::{Json, TraceDocument};
use wsn_synth::{
    quadtree_task_graph, synthesize_quadtree_program, Expr, Mapper, QuadTree, QuadrantMapper,
};

/// The paper's quad-tree deployment at hierarchy depth `depth`: the task
/// graph for a `2^depth`-sided grid, the Figure-2/3 quadrant mapping, and
/// the synthesized Figure-4 program.
pub fn paper_deployment(depth: u8) -> (QuadTree, wsn_synth::Mapping, wsn_synth::GuardedProgram) {
    let side = 2u32.pow(u32::from(depth));
    let qt = quadtree_task_graph(side, &|l| u64::from(l) + 1, &|l| u64::from(l));
    let mapping = QuadrantMapper.map(&qt);
    let program = synthesize_quadtree_program(depth);
    (qt, mapping, program)
}

/// Lints the paper's full deployment at `depth`: program dynamics, graph
/// and mapping structure, and cross-node deadlock.
pub fn lint_figure4(depth: u8) -> Diagnostics {
    let (qt, mapping, program) = paper_deployment(depth);
    analyze_deployment(&qt, &mapping, &program)
}

/// Lints a serialized program (the [`wsn_analyze::model_json`] encoding).
/// The program is analyzed on its own, then — when it declares a
/// hierarchy (`max_level ≥ 1`) — its quorums are checked for deadlock
/// against the paper's quadrant mapping at the matching grid side.
pub fn lint_program_text(text: &str) -> Result<Diagnostics, String> {
    let json = Json::parse(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let program = wsn_analyze::program_from_json(&json)?;
    let mut diags = analyze_program(&program);
    if program.max_level >= 1 && program.max_level <= 5 {
        let side = 2u32.pow(u32::from(program.max_level));
        let qt = quadtree_task_graph(side, &|l| u64::from(l) + 1, &|l| u64::from(l));
        let mapping = QuadrantMapper.map(&qt);
        diags.extend(check_deadlock(&qt, &mapping, &program));
        diags.sort();
    }
    Ok(diags)
}

/// The Figure-4 program at `depth`, in the JSON program model (used to
/// produce lintable fixtures and to feed external tools).
pub fn figure4_program_json(depth: u8) -> String {
    wsn_analyze::program_to_json(&synthesize_quadtree_program(depth)).render()
}

/// Certifies the paper's Figure-4 program at hierarchy depth `depth`
/// under the §3.2 uniform cost model: symbolic per-quantity bounds,
/// evaluated at side `2^depth`.
pub fn certify_figure4(depth: u8) -> (Certificate, Diagnostics) {
    let side = 2u32.pow(u32::from(depth));
    let program = synthesize_quadtree_program(depth);
    certify(&program, &CertConfig::paper(side))
}

/// Checks a serialized `wsn-obs` JSONL trace against the Figure-4
/// certificate at the trace's own grid side. Returns the certificate
/// (for rendering) and the combined certification + conformance report.
pub fn conform_trace_text(text: &str) -> Result<(Certificate, Diagnostics), String> {
    let doc = TraceDocument::from_jsonl(text).map_err(|e| e.to_string())?;
    let side = doc
        .meta
        .as_ref()
        .map(|m| m.grid)
        .ok_or("trace has no meta record, so its grid side is unknown")?;
    let side = u32::try_from(side).map_err(|_| format!("absurd grid side {side}"))?;
    if side < 2 || !side.is_power_of_two() {
        return Err(format!(
            "trace grid side {side} is not a power of two ≥ 2; the quad-tree certifier \
             does not apply"
        ));
    }
    let depth = u8::try_from(side.trailing_zeros()).map_err(|_| "depth overflow".to_owned())?;
    let (cert, mut diags) = certify_figure4(depth);
    diags.extend(check_conformance(&cert, &doc));
    diags.sort();
    Ok((cert, diags))
}

/// The model-fidelity gate: re-record the seeded EXP-9 uniform-field run
/// on the emulated physical network at each side, certify the Figure-4
/// program, and demand the measurements land inside every certified
/// bound. Returns the number of bounds checked, or the per-side reports
/// on failure.
pub fn conformance_gate(sides: &[u32]) -> Result<usize, Vec<(u32, Diagnostics)>> {
    conformance_gate_with(sides, None)
}

/// [`conformance_gate`] over runs whose radio `mutation` mis-prices.
pub fn conformance_gate_with(
    sides: &[u32],
    mutation: Option<Mutation>,
) -> Result<usize, Vec<(u32, Diagnostics)>> {
    let (hop_cost, tx_energy) = Mutation::radio_scale(mutation);
    let mut checked = 0;
    let mut failures = Vec::new();
    for &side in sides {
        let depth = u8::try_from(side.trailing_zeros()).expect("side fits");
        let doc = crate::experiments::record_model_fidelity_trace(side, 3, 5, hop_cost, tx_energy);
        let (cert, mut diags) = certify_figure4(depth);
        diags.extend(check_conformance(&cert, &doc));
        diags.sort();
        checked += cert.bounds.len();
        if diags.has_errors() {
            failures.push((side, diags));
        }
    }
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(failures)
    }
}

/// Validated [`ShardPlan`] for a depth-`depth` paper deployment — a
/// friendly error instead of a panic on absurd cut levels.
fn shard_plan(depth: u8, cut: u8) -> Result<ShardPlan, String> {
    if cut > depth {
        return Err(format!(
            "cut level {cut} exceeds the hierarchy depth {depth} (shards are level-L \
             quadrants, so L must be 0..={depth})"
        ));
    }
    Ok(ShardPlan::new(2u32.pow(u32::from(depth)), cut))
}

/// The Figure-4 program with the planted static shard leak of the shard
/// gate's [`Mutation::ShardLeak`]: every cell also addresses the
/// global root directly at boot — reachable, same-slot (`SI002`) and,
/// once there is more than one shard, off the region boundary (`SI003`).
pub fn leak_mutated_figure4(depth: u8) -> wsn_synth::GuardedProgram {
    let mut program = synthesize_quadtree_program(depth);
    program.rules[0]
        .actions
        .push(wsn_synth::Action::SendSummaryToLeader {
            group_level: Expr::var("maxrecLevel"),
            data_level: Expr::Int(0),
        });
    program
}

/// The deepest hierarchy the shard checks accept: depth 9 is side 512,
/// the repository's scale deployment.
pub const SHARD_CHECK_MAX_DEPTH: u8 = 9;

/// Runs the shard-interference analyzer on the paper's Figure-4 program
/// at hierarchy depth `depth` under the level-`cut` quadrant plan.
/// `mutate` plants the [`leak_mutated_figure4`] defect first.
pub fn shard_check_figure4(
    depth: u8,
    cut: u8,
    mutate: bool,
) -> Result<(Option<ShardCertificate>, Diagnostics), String> {
    let plan = shard_plan(depth, cut)?;
    let program = if mutate {
        leak_mutated_figure4(depth)
    } else {
        synthesize_quadtree_program(depth)
    };
    Ok(analyze_shards(&program, &plan, ReachConfig::default()))
}

/// Shard-checks a serialized program (the [`wsn_analyze::model_json`]
/// encoding) under the quadrant plan at the program's own grid side.
pub fn shard_check_program_text(
    text: &str,
    cut: u8,
) -> Result<(Option<ShardCertificate>, Diagnostics), String> {
    let json = Json::parse(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let program = wsn_analyze::program_from_json(&json)?;
    if program.max_level < 1 || program.max_level > SHARD_CHECK_MAX_DEPTH {
        return Err(format!(
            "program declares maxrecLevel {}; the shard analyzer needs a hierarchy \
             (1..={SHARD_CHECK_MAX_DEPTH})",
            program.max_level
        ));
    }
    let plan = shard_plan(program.max_level, cut)?;
    Ok(analyze_shards(&program, &plan, ReachConfig::default()))
}

/// Replays a serialized `wsn-obs` JSONL causal trace against the
/// Figure-4 shard certificate at the trace's own grid side (`TC009`):
/// every observed cross-shard delivery hop must be a certified boundary
/// edge of the cut-`cut` plan.
pub fn shard_conform_trace_text(
    text: &str,
    cut: u8,
) -> Result<(ShardCertificate, Diagnostics), String> {
    let doc = TraceDocument::from_jsonl(text).map_err(|e| e.to_string())?;
    let side = doc
        .meta
        .as_ref()
        .map(|m| m.grid)
        .ok_or("trace has no meta record, so its grid side is unknown")?;
    let side = u32::try_from(side).map_err(|_| format!("absurd grid side {side}"))?;
    if side < 2 || !side.is_power_of_two() {
        return Err(format!(
            "trace grid side {side} is not a power of two ≥ 2; the quad-tree shard \
             plan does not apply"
        ));
    }
    let depth = u8::try_from(side.trailing_zeros()).map_err(|_| "depth overflow".to_owned())?;
    let (cert, mut diags) = shard_check_figure4(depth, cut, false)?;
    let cert = cert.ok_or_else(|| {
        format!(
            "the Figure-4 program failed to certify at depth {depth} cut {cut}:\n{}",
            diags.render_text()
        )
    })?;
    diags.extend(check_shard_conformance(&cert, &doc));
    diags.sort();
    Ok((cert, diags))
}

/// The TC010 driver behind the `shard-metrics` gate row: certify the
/// Figure-4 shard plan at `(depth, cut)`, re-record the seeded
/// uniform-field run on the sharded engine with per-shard telemetry
/// merged into the trace, and reconcile the `shard=`-labeled counters
/// against the certificate and the kernel's own dispatch total.
///
/// `skew` plants the runtime's undercounting tap: shard 0 silently drops
/// one event per barrier window from its counter, which TC010 must
/// catch.
pub fn shard_metrics_figure4(
    depth: u8,
    cut: u8,
    skew: bool,
) -> Result<(ShardCertificate, Diagnostics), String> {
    let (cert, mut diags) = shard_check_figure4(depth, cut, false)?;
    let cert = cert.ok_or_else(|| {
        format!(
            "the Figure-4 program failed to certify at depth {depth} cut {cut}:\n{}",
            diags.render_text()
        )
    })?;
    let side = 2u32.pow(u32::from(depth));
    let doc = crate::experiments::record_shard_metrics_trace(side, 3, 5, cut, skew);
    diags.extend(check_shard_accounting(&cert, &doc));
    diags.sort();
    Ok((cert, diags))
}

/// The live-export overhead gate behind the `obs` gate row: the
/// instrumented steady-state hot path (every counter, gauge, and kernel
/// metric live) must stay within `threshold_pct` percent of the bare
/// run's per-event cost, judged by the median of five interleaved
/// bare/instrumented pairs on the same machine. Returns the rendered
/// comparison, which lists every sample in run order, or it as an error
/// when the bound is exceeded.
pub fn obs_gate(side: u32, volleys: u64, threshold_pct: f64) -> Result<String, String> {
    // Five sandwich samples, judged by the *median* ratio. Each sample
    // measures bare → instrumented → bare and centers the bare cost on
    // the instrumented round's position in time, so linear machine
    // drift (thermal, scheduler, cache warmup) divides out of the
    // ratio; the median then discards samples that straddled an abrupt
    // load spike. A min-of-each-column estimator has neither defense
    // and reports phantom overhead on a busy host.
    let mut samples: Vec<(f64, HotpathReport)> = Vec::new();
    for _ in 0..5 {
        let before = crate::hotpath::steady_state_hotpath_with(side, volleys, 1, false);
        let instrumented = crate::hotpath::steady_state_hotpath_with(side, volleys, 1, true);
        let after = crate::hotpath::steady_state_hotpath_with(side, volleys, 1, false);
        if before.events != instrumented.events {
            return Err(format!(
                "telemetry perturbed the run: {} events instrumented vs {} bare",
                instrumented.events, before.events
            ));
        }
        let bare_ns = (before.ns_per_event() + after.ns_per_event()) / 2.0;
        samples.push((bare_ns, instrumented));
    }
    let listed: String = samples
        .iter()
        .enumerate()
        .map(|(i, (bare_ns, instrumented))| {
            let ns = instrumented.ns_per_event();
            format!(
                "  sample {}: bare {bare_ns:>8.1}, instrumented {ns:>8.1} ns/event, ratio {:.3}\n",
                i + 1,
                ns / bare_ns
            )
        })
        .collect();
    samples.sort_by(|x, y| {
        let rx = x.1.ns_per_event() / x.0;
        let ry = y.1.ns_per_event() / y.0;
        rx.partial_cmp(&ry).expect("finite ratios")
    });
    let (bare_ns, instrumented) = samples[samples.len() / 2];
    let overhead = (((instrumented.ns_per_event() - bare_ns) / bare_ns) * 100.0).max(0.0);
    let report = format!(
        "obs gate: side {side}, {volleys} volleys, {} events in the measured round\n\
         \x20 bare:         {:>8.1} ns/event ({:.0} events/sec)\n\
         \x20 instrumented: {:>8.1} ns/event ({:.0} events/sec)\n\
         \x20 telemetry overhead: {overhead:.1}% (bound {threshold_pct}%), the median of:\n\
         {listed}",
        instrumented.events,
        bare_ns,
        1e9 / bare_ns,
        instrumented.ns_per_event(),
        1e9 / instrumented.ns_per_event(),
    );
    if overhead > threshold_pct {
        Err(format!(
            "{report}obs gate: telemetry overhead {overhead:.1}% exceeds the {threshold_pct}% bound"
        ))
    } else {
        Ok(report)
    }
}

/// Runs the frame-layout and allocation certifier (`wsn-analyze` pass 7,
/// `FL001`–`FL003` / `AL001`–`AL003`) on the paper's Figure-4 program at
/// hierarchy depth `depth`. Depth 5 (side 32) is the deployment the
/// fixed frame cannot carry — the root exfiltration's full-boundary
/// summary (5624 bytes) exceeds the certified payload capacity, which is
/// how the frame gate's [`Mutation::PayloadOverflow`] plants `FL001`:
/// every payload bound is a closed form in the extent side, so scaling
/// the deployment past the frame envelope is exactly how a real overflow
/// would arrive.
pub fn frame_check_figure4(depth: u8) -> (Option<FrameCertificate>, Diagnostics) {
    let side = 2u32.pow(u32::from(depth));
    analyze_frames(
        &synthesize_quadtree_program(depth),
        side,
        ReachConfig::default(),
    )
}

/// The no-alloc gate behind the `alloc` gate row: the frame
/// certificate must hold at the gate side, and the measured steady-state
/// round of the framed ping-pong mission must dispatch its events with
/// **zero** heap allocations (when a counting allocator is installed —
/// see [`crate::hotpath::allocprobe`]; without one the run still checks
/// the certificate but reports the allocation column unmeasured).
/// Returns the rendered report, or what went over budget.
pub fn alloc_gate(side: u32, volleys: u64) -> Result<String, String> {
    let depth = u8::try_from(side.trailing_zeros()).expect("side fits");
    let (cert, diags) = frame_check_figure4(depth);
    if cert.is_none() || diags.has_errors() {
        return Err(format!(
            "frame certificate refused at side {side}:\n{}",
            diags.render_text()
        ));
    }
    let report = crate::hotpath::steady_state_hotpath(side, volleys, 2);
    let mut out = format!(
        "alloc gate: side {side}, {volleys} volleys, {} events in the measured round\n",
        report.events
    );
    match report.allocations {
        Some(0) => {
            out.push_str("  steady-state allocations: 0 (zero-copy hot path holds)\n");
            Ok(out)
        }
        Some(n) => Err(format!(
            "{out}  steady-state allocations: {n} ({:.4}/event) — the certified hot path \
             must not touch the heap",
            report.allocs_per_event().unwrap_or(0.0)
        )),
        None => {
            out.push_str(
                "  steady-state allocations: unmeasured (no counting allocator installed)\n",
            );
            Ok(out)
        }
    }
}

/// Certificate-gated engine selection: the sharded kernel engages only
/// when the Figure-4 program shard-checks clean (no SI/CC errors and a
/// certificate was produced) under the level-`cut` quadrant plan at the
/// deployment's own depth; otherwise the run falls back to the
/// sequential reference kernel. Returns the selected engine together
/// with the analyzer's report. `mutate` plants the
/// [`leak_mutated_figure4`] defect first — the fallback path the
/// parallel gate proves.
pub fn certified_engine(
    side: u32,
    cut: u8,
    workers: usize,
    mutate: bool,
) -> (RunEngine, Diagnostics) {
    let sequential = RunEngine::Sequential;
    if side < 2 || !side.is_power_of_two() {
        let mut d = Diagnostics::new();
        d.push(wsn_analyze::Diagnostic::error(
            wsn_analyze::Code::CC001,
            wsn_analyze::Span::Program,
            format!("side {side} is not a power of two; no quad-tree shard plan"),
        ));
        return (sequential, d);
    }
    let depth = side.trailing_zeros() as u8;
    match shard_check_figure4(depth, cut, mutate) {
        Ok((Some(_), diags)) if !diags.has_errors() => (
            RunEngine::Sharded {
                cut_level: u32::from(cut),
                workers,
            },
            diags,
        ),
        Ok((_, diags)) => (sequential, diags),
        Err(e) => {
            let mut d = Diagnostics::new();
            d.push(wsn_analyze::Diagnostic::error(
                wsn_analyze::Code::CC001,
                wsn_analyze::Span::Program,
                e,
            ));
            (sequential, d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_analyze::Code;

    #[test]
    fn figure4_lints_clean_and_round_trips_through_the_cli_path() {
        let d = lint_figure4(2);
        assert_eq!(d.error_count(), 0, "{}", d.render_text());
        let text = figure4_program_json(2);
        let d = lint_program_text(&text).unwrap();
        assert_eq!(d.error_count(), 0, "{}", d.render_text());
        // The paper's scan-order overlap is still visible through JSON.
        assert!(d.has_code(Code::RD002), "{}", d.render_text());
    }

    #[test]
    fn garbage_input_is_a_decode_error_not_a_panic() {
        assert!(lint_program_text("{nope").is_err());
        assert!(lint_program_text("{\"name\": \"x\"}").is_err());
    }

    #[test]
    fn shard_check_certifies_the_paper_deployments() {
        for (depth, cut) in [(2u8, 1u8), (2, 2), (3, 1), (3, 2)] {
            let (cert, diags) = shard_check_figure4(depth, cut, false).unwrap();
            assert_eq!(
                diags.error_count(),
                0,
                "depth {depth} cut {cut}: {}",
                diags.render_text()
            );
            let cert = cert.expect("certificate");
            assert_eq!(cert.cut_level, cut);
            // And through the serialized-program path too.
            let (cert2, _) = shard_check_program_text(&figure4_program_json(depth), cut).unwrap();
            assert_eq!(cert2.unwrap(), cert);
        }
        assert!(shard_check_figure4(2, 3, false).is_err());
    }

    #[test]
    fn shard_conformance_holds_on_the_seeded_trace_and_trips_on_the_leak() {
        let faithful = crate::experiments::record_model_fidelity_trace(4, 3, 5, 1.0, 1.0);
        let (cert, diags) = shard_conform_trace_text(&faithful.to_jsonl(), 1).unwrap();
        assert_eq!(cert.cross_shard_messages, 3);
        assert_eq!(diags.error_count(), 0, "{}", diags.render_text());

        let leak = crate::experiments::record_shard_leak_trace(4, 3, 5);
        let (_, diags) = shard_conform_trace_text(&leak.to_jsonl(), 1).unwrap();
        assert!(diags.has_code(Code::TC009), "{}", diags.render_text());
    }

    #[test]
    fn frame_check_certifies_the_paper_depths() {
        for depth in [2u8, 3] {
            let (cert, diags) = frame_check_figure4(depth);
            assert_eq!(
                diags.error_count(),
                0,
                "depth {depth}: {}",
                diags.render_text()
            );
            let cert = cert.expect("certificate");
            assert!(cert.fits());
            assert_eq!(cert.side, 2u32.pow(u32::from(depth)));
        }
    }

    #[test]
    fn alloc_gate_runs_unprobed_and_refuses_overflowing_sides() {
        // Without a counting allocator the gate still certifies and runs
        // the mission; the allocation column is unmeasured.
        let report = alloc_gate(4, 10).unwrap();
        assert!(report.contains("unmeasured"), "{report}");
        // A side past the frame envelope is refused by the certificate,
        // not by a runtime panic.
        let err = alloc_gate(32, 1).unwrap_err();
        assert!(err.contains("frame certificate refused"), "{err}");
    }

    #[test]
    fn shard_metrics_reconcile_and_the_skew_tap_trips_tc010() {
        for (depth, cut) in [(2u8, 1u8), (3, 2)] {
            let (cert, diags) = shard_metrics_figure4(depth, cut, false).unwrap();
            assert_eq!(cert.cut_level, cut);
            assert_eq!(
                diags.error_count(),
                0,
                "depth {depth} cut {cut}: {}",
                diags.render_text()
            );
        }
        let (_, diags) = shard_metrics_figure4(2, 1, true).unwrap();
        assert!(diags.has_code(Code::TC010), "{}", diags.render_text());
        assert!(diags.has_errors());
        // Absurd cuts are a usage error, not a panic.
        assert!(shard_metrics_figure4(2, 3, false).is_err());
    }

    #[test]
    fn obs_gate_reports_the_overhead_and_honors_its_bound() {
        // An unreachable bound always passes and renders both columns;
        // the real ≤10% bound is asserted in CI where the machine is
        // quiet, not in the unit suite.
        let report = obs_gate(4, 20, 1e9).unwrap();
        assert!(report.contains("telemetry overhead:"), "{report}");
        assert!(report.contains("instrumented:"), "{report}");
        // Every sample is listed, not only the median.
        for i in 1..=5 {
            assert!(report.contains(&format!("sample {i}: bare")), "{report}");
        }
        // A negative bound must trip deterministically (overhead >= 0).
        let err = obs_gate(4, 20, -1.0).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }
}
