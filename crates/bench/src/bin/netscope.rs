//! `netscope` — inspect a wsn JSONL trace.
//!
//! Reads a trace produced by [`wsn_runtime::PhysicalRuntime::record_trace`]
//! (or any conforming JSONL document) and prints the phase breakdown, span
//! tree, counters, histogram summaries, the hottest nodes by
//! energy, and — when the trace carries kernel events — an activity
//! timeline.
//!
//! ```text
//! netscope <trace.jsonl> [--top K] [--no-timeline]
//! netscope --demo [--side N] [--per-cell K] [--seed S] [--out FILE] [--top K]
//! netscope critical-path <trace.jsonl> [--width W]
//! netscope critical-path --demo [--side N] [--per-cell K] [--seed S] [--width W]
//! netscope shards <trace.jsonl>
//! netscope shards --demo [--side N] [--per-cell K] [--seed S] [--cut-level L]
//! netscope diff <a.jsonl> <b.jsonl>
//! ```
//!
//! `--demo` records a fresh end-to-end run (topology emulation → binding →
//! divide-and-conquer application, 16×16 virtual grid by default) and
//! inspects it in place; `--out` additionally writes the JSONL to a file.
//! On power-of-two demo grids the report also re-runs the mission on the
//! sharded engine to show the per-shard telemetry table. A post-mortem
//! trace — `wsn-chaos` writes `chaos-trace-<seed>.jsonl` for a wrong
//! answer by replaying its seed with the dispatch log on — is inspected
//! like any other trace.
//!
//! `critical-path` walks the trace's causal log back from the final
//! exfiltration, renders the per-hop/per-merge-level waterfall, and
//! cross-checks the telescoped path length against the measured
//! application span, so CI can assert the exactness invariant. `diff`
//! prints per-counter/per-span deltas between two traces.
//!
//! `shards` decodes a shard-metrics trace
//! (`wsn_bench::experiments::record_shard_metrics_trace`, or its own
//! `--demo` run) into the per-shard utilization/skew/barrier-stall table.
//!
//! Every mode exits 0 when clean, 1 on a finding (a critical path that
//! misses the application span, per-shard counters that fail to
//! reconcile with the kernel's dispatch total) and 2 on a usage or
//! decode error.

use std::process::ExitCode;
use wsn_obs::{
    extract_critical_path, render_span_forest, render_timeline, render_trace_diff, shard_table,
    TimelineConfig, TraceDocument,
};

struct Options {
    input: Option<String>,
    demo: bool,
    side: u32,
    per_cell: usize,
    seed: u64,
    out: Option<String>,
    top: usize,
    timeline: bool,
}

const USAGE: &str = "usage: netscope <trace.jsonl> [--top K] [--no-timeline]
       netscope --demo [--side N] [--per-cell K] [--seed S] [--out FILE] [--top K]
       netscope critical-path <trace.jsonl> [--width W]
       netscope critical-path --demo [--side N] [--per-cell K] [--seed S] [--width W]
       netscope shards <trace.jsonl>
       netscope shards --demo [--side N] [--per-cell K] [--seed S] [--cut-level L]
       netscope diff <a.jsonl> <b.jsonl>";

/// A mode's rendered report and whether it is clean (`false` → exit 1);
/// `Err` is a usage or decode error (exit 2).
type Outcome = Result<(String, bool), String>;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        input: None,
        demo: false,
        side: 16,
        per_cell: 2,
        seed: 5,
        out: None,
        top: 8,
        timeline: true,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--demo" => opts.demo = true,
            "--side" => opts.side = parse_num(&value("--side")?)?,
            "--per-cell" => opts.per_cell = parse_num(&value("--per-cell")?)?,
            "--seed" => opts.seed = parse_num(&value("--seed")?)?,
            "--out" => opts.out = Some(value("--out")?),
            "--top" => opts.top = parse_num(&value("--top")?)?,
            "--no-timeline" => opts.timeline = false,
            other if !other.starts_with('-') && opts.input.is_none() => {
                opts.input = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if opts.demo == opts.input.is_some() {
        return Err(format!(
            "pass exactly one of a trace file or --demo\n{USAGE}"
        ));
    }
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

fn load_trace(path: &str) -> Result<TraceDocument, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    TraceDocument::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// `netscope <trace.jsonl>` / `netscope --demo …`: the full inspection
/// report. A demo on a quad-tree-shardable grid also shows the engine's
/// per-shard telemetry, so the demo exercises every view netscope has.
fn cmd_inspect(args: &[String]) -> Outcome {
    let opts = parse_args(args)?;
    let doc = if opts.demo {
        eprintln!(
            "recording end-to-end demo trace: {}x{} grid, {} nodes/cell, seed {}",
            opts.side, opts.side, opts.per_cell, opts.seed
        );
        let doc =
            wsn_bench::record_end_to_end_trace(opts.side, opts.per_cell, opts.seed, opts.timeline);
        if let Some(path) = &opts.out {
            std::fs::write(path, doc.to_jsonl())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        doc
    } else {
        load_trace(opts.input.as_deref().expect("parse_args demands an input"))?
    };
    let mut out = report(&doc, opts.top, opts.timeline);
    if opts.demo && opts.side >= 2 && opts.side.is_power_of_two() {
        let shard_doc = wsn_bench::experiments::record_shard_metrics_trace(
            opts.side,
            opts.per_cell,
            opts.seed,
            1,
            false,
        );
        match shard_table(&shard_doc) {
            Ok(table) => {
                out.push_str("\n== shard telemetry (cut level 1) ==\n");
                out.push_str(&table.render());
            }
            Err(e) => eprintln!("shard telemetry unavailable: {e}"),
        }
    }
    Ok((out, true))
}

/// `netscope critical-path …`: waterfall + exactness verdict, unclean
/// when the telescoped path length disagrees with the measured
/// application span. A trace without a causal log or an application span
/// cannot be checked: a decode error.
fn cmd_critical_path(args: &[String]) -> Outcome {
    let mut input = None;
    let mut demo = false;
    let mut side: u32 = 4;
    let mut per_cell: usize = 3;
    let mut seed: u64 = 5;
    let mut width: usize = 64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--demo" => demo = true,
            "--side" => side = parse_num(&value("--side")?)?,
            "--per-cell" => per_cell = parse_num(&value("--per-cell")?)?,
            "--seed" => seed = parse_num(&value("--seed")?)?,
            "--width" => width = parse_num(&value("--width")?)?,
            other if !other.starts_with('-') && input.is_none() => {
                input = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let doc = match (&input, demo) {
        (Some(path), false) => load_trace(path)?,
        (None, true) => wsn_bench::record_end_to_end_trace(side, per_cell, seed, false),
        _ => {
            return Err(format!(
                "pass exactly one of a trace file or --demo\n{USAGE}"
            ))
        }
    };
    if doc.causal.is_empty() {
        return Err("trace carries no causal events (cev records) — \
                    record it with causal tracing enabled"
            .to_string());
    }
    let path = extract_critical_path(&doc.causal)?;
    let mut out = path.render_waterfall(width);
    let Some(span) = doc.spans.iter().find(|s| s.name == "application") else {
        out.push_str("(no application span in trace; cannot cross-check)\n");
        return Err(out);
    };
    let measured = span.duration_ticks();
    let exact = path.total_ticks() == measured
        && path.segment_sum() == measured
        && path.start == span.start
        && path.end == span.end;
    out.push_str(&format!(
        "application span {}..{} ({measured} ticks) vs critical path {} ticks — {}\n",
        span.start.ticks(),
        span.end.ticks(),
        path.total_ticks(),
        if exact { "EXACT" } else { "MISMATCH" },
    ));
    Ok((out, exact))
}

/// `netscope shards …`: the per-shard utilization/skew/barrier-stall
/// table of a shard-metrics trace, unclean when the per-shard counters
/// fail to reconcile with the kernel's dispatch total.
fn cmd_shards(args: &[String]) -> Outcome {
    let mut input = None;
    let mut demo = false;
    let mut side: u32 = 4;
    let mut per_cell: usize = 3;
    let mut seed: u64 = 5;
    let mut cut: u8 = 1;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--demo" => demo = true,
            "--side" => side = parse_num(&value("--side")?)?,
            "--per-cell" => per_cell = parse_num(&value("--per-cell")?)?,
            "--seed" => seed = parse_num(&value("--seed")?)?,
            "--cut-level" => cut = parse_num(&value("--cut-level")?)?,
            other if !other.starts_with('-') && input.is_none() => {
                input = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let doc = match (&input, demo) {
        (Some(path), false) => load_trace(path)?,
        (None, true) => {
            validate_shard_demo(side, cut)?;
            wsn_bench::experiments::record_shard_metrics_trace(side, per_cell, seed, cut, false)
        }
        _ => {
            return Err(format!(
                "pass exactly one of a trace file or --demo\n{USAGE}"
            ))
        }
    };
    let table = shard_table(&doc)?;
    Ok((table.render(), table.reconciled))
}

/// The sharded demo runs need a quad-tree plan: power-of-two side, cut
/// within the depth.
fn validate_shard_demo(side: u32, cut: u8) -> Result<(), String> {
    if side < 2 || !side.is_power_of_two() {
        return Err(format!("--side {side} is not a power of two >= 2"));
    }
    let depth = side.trailing_zeros() as u8;
    if cut < 1 || cut > depth {
        return Err(format!("--cut-level {cut} is outside 1..={depth}"));
    }
    Ok(())
}

/// `netscope diff a.jsonl b.jsonl`: per-counter/per-span deltas.
fn cmd_diff(args: &[String]) -> Outcome {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    if files.len() != 2 || args.len() != 2 {
        return Err(format!("diff takes exactly two trace files\n{USAGE}"));
    }
    let a = load_trace(files[0])?;
    let b = load_trace(files[1])?;
    Ok((render_trace_diff(&a, &b), true))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = match argv.first().map(String::as_str) {
        Some("critical-path") => cmd_critical_path(&argv[1..]),
        Some("shards") => cmd_shards(&argv[1..]),
        Some("diff") => cmd_diff(&argv[1..]),
        _ => cmd_inspect(&argv),
    };
    match outcome {
        Ok((out, clean)) => {
            print!("{out}");
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Renders the full inspection report for a trace document.
fn report(doc: &TraceDocument, top: usize, timeline: bool) -> String {
    let mut out = String::new();
    let push = |out: &mut String, section: &str| {
        out.push_str("\n== ");
        out.push_str(section);
        out.push_str(" ==\n");
    };

    if let Some(meta) = &doc.meta {
        out.push_str(&format!(
            "trace: {g}x{g} grid, {n} nodes, seed {s}, {t} ticks, {e} events\n",
            g = meta.grid,
            n = meta.nodes,
            s = meta.seed,
            t = meta.total_ticks,
            e = meta.events,
        ));
    } else {
        out.push_str("trace: (no meta record)\n");
    }

    if !doc.spans.is_empty() {
        push(&mut out, "phases");
        let total: u64 = doc.spans.iter().map(|s| s.duration_ticks()).sum();
        for span in &doc.spans {
            let d = span.duration_ticks();
            out.push_str(&format!(
                "{:<22} {:>6}..{:<6} {:>7} ticks {:>5.1}%  {:>8} events\n",
                span.name,
                span.start.ticks(),
                span.end.ticks(),
                d,
                100.0 * d as f64 / total.max(1) as f64,
                span.events,
            ));
        }
        if let Some(meta) = &doc.meta {
            let verdict = if total == meta.total_ticks {
                "exact"
            } else {
                "MISMATCH"
            };
            out.push_str(&format!(
                "phase sum {total} vs run total {} — {verdict}\n",
                meta.total_ticks
            ));
        }
        push(&mut out, "span tree");
        out.push_str(&render_span_forest(&doc.spans));
    }

    if !doc.counters.is_empty() {
        push(&mut out, "counters");
        let mut counters = doc.counters.clone();
        counters.sort();
        for (name, value) in counters {
            out.push_str(&format!("{name:<28} {value:>10}\n"));
        }
    }
    if !doc.gauges.is_empty() {
        push(&mut out, "gauges");
        let mut gauges = doc.gauges.clone();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, value) in gauges {
            out.push_str(&format!("{name:<28} {value:>10.1}\n"));
        }
    }
    if !doc.histograms.is_empty() {
        push(&mut out, "histograms");
        out.push_str(&format!(
            "{:<28} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "name", "count", "mean", "p50", "p99", "max"
        ));
        for (name, h) in &doc.histograms {
            out.push_str(&format!(
                "{:<28} {:>8} {:>8.1} {:>8.1} {:>8.1} {:>8.1}\n",
                name,
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max(),
            ));
        }
    }

    if !doc.nodes.is_empty() {
        push(&mut out, &format!("hottest {top} nodes (by energy)"));
        let mut nodes = doc.nodes.clone();
        nodes.sort_by(|a, b| b.energy.total_cmp(&a.energy).then(a.id.cmp(&b.id)));
        nodes.truncate(top);
        out.push_str(&format!(
            "{:>6} {:>10} {:>8} {:>8}\n",
            "node", "energy", "tx", "rx"
        ));
        for n in &nodes {
            out.push_str(&format!(
                "{:>6} {:>10.1} {:>8} {:>8}\n",
                n.id, n.energy, n.tx, n.rx
            ));
        }
    }

    if timeline && !doc.events.is_empty() {
        push(&mut out, "activity timeline");
        out.push_str(&render_timeline(&doc.events, &TimelineConfig::default()));
    }

    if !doc.causal.is_empty() {
        push(&mut out, "critical path");
        match extract_critical_path(&doc.causal) {
            Ok(path) => out.push_str(&path.render_waterfall(64)),
            Err(e) => out.push_str(&format!("(not extractable: {e})\n")),
        }
    }
    out
}
