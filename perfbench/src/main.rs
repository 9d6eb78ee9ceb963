//! Mission benchmark for the §5 runtime running the §4 quad-tree labeling
//! mission. See `README.md` beside this package for the workloads, the
//! metrics and the layer → metric map.
//!
//! ```text
//! wsn-perfbench --workload <small-framed|scale-512|sharded-128> --seed <n>
//!               --seconds <s> --trace <0|1> [--reduced]
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics of a traced run. The last
//! line of standard output is always one JSON result object.

mod layers;
mod report;
mod trace;
mod workloads;

use layers::Layers;
use report::{
    fnv1a, median, metric, minor_faults, quantile, reset_vm_hwm, result_json, vm_hwm_bytes, Metric,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;
use workloads::{Scale, Sharded, SmallFramed, Workload};

/// Seed a run uses when none is given.
const DEFAULT_SEED: u64 = 1;

/// Workload names `--workload` accepts.
const WORKLOADS: [&str; 3] = ["small-framed", "scale-512", "sharded-128"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Ops per second of `--seconds`, per workload. The op count of a run is
/// fixed by `--seconds` alone, so every run of one configuration does the
/// same work; these rates make that work take about `--seconds` of timed
/// host time on the reference machine.
const SMALL_FRAMED_OPS_PER_SEC: f64 = 11.0;
const SCALE_OPS_PER_SEC: f64 = 0.1;
const SHARDED_OPS_PER_SEC: f64 = 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reduced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reduced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--reduced" => args.reduced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn ops_for(seconds: f64, per_sec: f64) -> usize {
    ((seconds * per_sec).round() as usize).max(1)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: wsn-perfbench --workload <small-framed|scale-512|sharded-128> \
                 --seed <n> --seconds <s> --trace <0|1> [--reduced]"
            );
            std::process::exit(2);
        }
    };
    // `--reduced` shrinks every workload to a size the benchmark's own
    // test runs in seconds; the shapes and checks stay the same.
    let (s, r) = (args.seconds, args.reduced);
    let outcome = match args.workload.as_str() {
        "small-framed" => run(
            &SmallFramed {
                side: if r { 4 } else { 8 },
                per_cell: if r { 2 } else { 4 },
                warmups: if r { 2 } else { 12 },
                ops: if r {
                    6
                } else {
                    ops_for(s, SMALL_FRAMED_OPS_PER_SEC)
                },
                seed: args.seed,
            },
            &args,
        ),
        "scale-512" => run(
            &Scale {
                side: if r { 32 } else { 512 },
                ops: if r { 2 } else { ops_for(s, SCALE_OPS_PER_SEC) },
                seed: args.seed,
            },
            &args,
        ),
        "sharded-128" => run(
            &Sharded {
                side: if r { 16 } else { 128 },
                cut: 2,
                lanes: 2,
                ops: if r {
                    3
                } else {
                    ops_for(s, SHARDED_OPS_PER_SEC)
                },
                seed: args.seed,
            },
            &args,
        ),
        other => unreachable!("parse_args accepted workload {other:?}"),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Everything one pass over a workload's set-up and ops measured.
struct Pass {
    setup_s: Vec<f64>,
    attempted: usize,
    /// Host time of every op that started (a panic while preparing one
    /// fails it before its timing starts).
    op_s: Vec<f64>,
    failures: Vec<(usize, String)>,
    events: u64,
    latency_ticks: Vec<f64>,
    energy: Vec<f64>,
    /// Digest of every op's simulated counts, in op order.
    digest: u64,
    /// Simulated counts of the runtime the last op ran on.
    last_counts: BTreeMap<String, String>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.op_s.iter().sum()
    }

    fn fingerprint(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "fingerprint ops={} digest={:016x}",
            self.attempted, self.digest
        )];
        lines.extend(
            self.last_counts
                .iter()
                .map(|(k, v)| format!("fingerprint {k}={v}")),
        );
        lines
    }
}

/// Runs `setups` set-ups (keeping the last), then every op in a closed
/// loop: each op starts when the previous one has finished. An op that
/// fails a check or panics counts as failed; the run goes on.
fn run_pass<W: Workload>(
    w: &W,
    tr: &mut Tracer,
    setups: usize,
) -> Result<(Pass, W::State), String> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut state = None;
    for _ in 0..setups {
        drop(state.take());
        tr.set_op(None);
        let t0 = Instant::now();
        tr.open("setup");
        let st = w.setup(tr);
        tr.close();
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some(st.map_err(|e| format!("set-up failed: {e}"))?);
    }
    let mut st = state.expect("at least one set-up");
    let mut pass = Pass {
        setup_s,
        attempted: w.ops(),
        op_s: Vec::with_capacity(w.ops()),
        failures: Vec::new(),
        events: 0,
        latency_ticks: Vec::new(),
        energy: Vec::new(),
        digest: 0,
        last_counts: BTreeMap::new(),
    };
    for i in 0..w.ops() {
        tr.set_op(Some(i));
        let depth = tr.depth();
        let mut started: Option<(Instant, u64)> = None;
        // The untimed preparation and the timed op share one panic guard,
        // so a panic in either counts as a failed op.
        let result = catch_unwind(AssertUnwindSafe(|| {
            tr.open("prepare");
            w.prepare(&mut st, i, tr);
            tr.close();
            let faults0 = if tr.is_on() { minor_faults() } else { 0 };
            started = Some((Instant::now(), faults0));
            tr.open("op");
            let out = w.op(&mut st, i, tr);
            tr.close();
            out
        }));
        let elapsed = started.map(|(t0, faults0)| (t0.elapsed().as_secs_f64(), faults0));
        tr.unwind_to(depth);
        if let Some((secs, faults0)) = elapsed {
            pass.op_s.push(secs);
            if tr.is_on() {
                tr.count("minor_faults", (minor_faults() - faults0) as f64);
            }
        }
        match result {
            Ok(Ok(stats)) => {
                pass.events += stats.events;
                pass.latency_ticks.push(stats.latency_ticks as f64);
                pass.energy.push(stats.energy);
            }
            Ok(Err(check)) => pass.failures.push((i, check)),
            Err(panic) => pass.failures.push((i, panic_message(&*panic))),
        }
        if tr.is_on() && elapsed.is_some() {
            w.observe(&mut st, tr);
        }
        pass.last_counts = w.counts(&st);
        for (k, v) in &pass.last_counts {
            pass.digest = fnv1a(pass.digest, format!("{k}={v};").as_bytes());
        }
    }
    tr.set_op(None);
    Ok((pass, st))
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("non-text panic payload");
    format!("panicked: {text}")
}

fn run<W: Workload>(w: &W, args: &Args) -> Result<(), String> {
    println!(
        "workload {} seed={} ops={} nodes_per_deployment={} trace={}",
        args.workload,
        args.seed,
        w.ops(),
        w.nodes(),
        u8::from(args.trace)
    );
    let (correct, pass, mut metrics) = if args.trace {
        traced(w, args)?
    } else {
        let (pass, _state) = run_pass(w, &mut Tracer::new(false), SETUPS)?;
        let metrics = end_to_end(&pass);
        (pass.failures.is_empty(), pass, metrics)
    };
    // Printed by every run, but in the result only as a per-layer metric:
    // a `scale-512` run queries a single field, so its latency varies more
    // between seeds than any end-to-end bound allows.
    let latency = metric("sim_latency_ticks", median(&pass.latency_ticks), "ticks");
    let text_only = if args.trace {
        metrics.push(latency);
        None
    } else {
        Some(latency)
    };
    for line in pass.fingerprint() {
        println!("{line}");
    }
    for (i, why) in &pass.failures {
        println!("op {i} failed: {why}");
    }
    for m in metrics.iter().chain(&text_only) {
        println!(
            "metric {:<36} {:>18} {}",
            m.name,
            report::json_number(m.value),
            m.unit
        );
    }
    println!(
        "{}",
        result_json(correct, pass.attempted, pass.failures.len(), &metrics)
    );
    Ok(())
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let wall = pass.wall_s();
    let ok = pass.attempted - pass.failures.len();
    let op_ms: Vec<f64> = pass.op_s.iter().map(|s| s * 1e3).collect();
    vec![
        metric("wall_s", wall, "s"),
        metric("setup_s", median(&pass.setup_s), "s"),
        metric("op_ms_p50", median(&op_ms), "ms"),
        metric("op_ms_p90", quantile(&op_ms, 0.9), "ms"),
        metric(
            "events_per_sec",
            if wall > 0.0 {
                pass.events as f64 / wall
            } else {
                0.0
            },
            "1/s",
        ),
        metric("peak_rss_bytes", vm_hwm_bytes() as f64, "bytes"),
        metric("ok_ratio", ok as f64 / pass.attempted as f64, "ratio"),
        metric("sim_energy", median(&pass.energy), "energy_units"),
    ]
}

/// The traced run: a traced pass with the runtime's telemetry registry
/// on, then an untraced pass on fresh set-up state for the reference
/// wall time and the peak memory. The traced pass goes first so the
/// high-water-mark growth it reads starts from a fresh process; the peak
/// is reset before the untraced pass, so `mem.rss_bytes_per_node` is the
/// untraced pass's peak rather than one holding the traced pass's
/// telemetry samples. Both passes must leave the same simulation
/// fingerprint.
fn traced<W: Workload>(w: &W, args: &Args) -> Result<(bool, Pass, Vec<Metric>), String> {
    let mut tr = Tracer::new(true);
    let (pass, state) = run_pass(w, &mut tr, 1)?;
    let t0 = Instant::now();
    let trace_bytes = w.trace_document(&state).map_or(0, |doc| doc.len());
    let record_trace_s = t0.elapsed().as_secs_f64();
    drop(state);
    reset_vm_hwm()?;
    let (plain, state) = run_pass(w, &mut Tracer::new(false), 1)?;
    drop(state);
    let rss_bytes = vm_hwm_bytes();
    let same = plain.fingerprint() == pass.fingerprint();
    if !same {
        println!("traced and untraced passes left different simulation fingerprints");
    }

    let layers = Layers::new(&tr);
    layers.print_self_times();
    layers.print_unattributed();
    let overhead_pct = (pass.wall_s() / plain.wall_s() - 1.0) * 100.0;
    let metrics = layers.per_layer(w, record_trace_s, trace_bytes, overhead_pct, rss_bytes);
    write_spans(&tr, args)?;
    let correct = same && plain.failures.is_empty() && pass.failures.is_empty();
    Ok((correct, pass, metrics))
}

/// Writes the span log under the build directory of the checkout.
fn write_spans(tr: &Tracer, args: &Args) -> Result<(), String> {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR")
            .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/target").into()),
    )
    .join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}
