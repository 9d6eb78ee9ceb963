//! `wsn-lint` — static analysis CLI for synthesized WSN artifacts, and the
//! runner of the gate table ([`wsn_bench::gates::GATES`]).
//!
//! ```text
//! wsn-lint [--fig4] [depth]          lint the paper's Figure-4 deployment (depth 2)
//! wsn-lint --program <file.json>     lint a serialized program (JSON model)
//! wsn-lint --emit-json-program [depth]   print the Figure-4 program as JSON
//! wsn-lint --certify [depth]         derive the symbolic §4 cost certificate
//! wsn-lint --conform <trace.jsonl>   check a measured trace against the certificate
//! wsn-lint --shard-check [depth] [--cut-level N] [--emit-shard-cert]
//! wsn-lint --shard-check --program <file.json> [--cut-level N]
//!                                    shard-interference analysis (SI001–SI004) under
//!                                    the level-N quadrant plan, at depths up to 9
//!                                    (side 512; other modes take 1..=4);
//!                                    --emit-shard-cert prints the machine-checkable
//!                                    certificate JSON
//! wsn-lint --shard-conform <trace.jsonl> [--cut-level N]
//!                                    TC009: every cross-shard delivery of a causal
//!                                    trace must be a certified boundary edge
//! wsn-lint --frame-check [depth] [--emit-frame-cert]
//!                                    frame-layout & allocation certification
//!                                    (FL001–FL003 / AL001–AL003); --emit-frame-cert
//!                                    prints the machine-checkable certificate JSON
//! wsn-lint --codes                   list the diagnostic catalog
//! wsn-lint gate <row> [--mutate]     run one row of the gate table, clean or with
//!                                    its planted mutation
//! wsn-lint gate --all                run every row clean and every mutation, one
//!                                    line per run
//! ```
//!
//! `--json` switches a report to JSON. Exit status: 0 when the check
//! passes, 1 when it fails (error-severity diagnostics, or a gate row
//! whose check fails — a mutated row that is caught exits 1), 2 on usage
//! or decode errors: an unknown flag, a flag the chosen mode does not
//! take, an unknown gate row, or `--mutate` on a row without a mutation.
//! `gate --all` exits 0 only when every clean run passes and every
//! mutated run is caught by its named detectors.
//!
//! This binary deliberately lives in `cli/`, not `src/bin/`: it installs
//! a counting `#[global_allocator]` (an `unsafe impl`, required by the
//! allocator API) to measure the `alloc` row, while everything under the
//! workspace's `src/` trees stays `#![forbid(unsafe_code)]` and is
//! audited for it in CI. The gate rows run one after another on the main
//! thread, so the process-global count sees only the measured round.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use wsn_analyze::{frame_cert_to_json, shard_cert_to_json, Code, Diagnostics};
use wsn_bench::gates::{self, GATES};
use wsn_bench::lint;

/// [`System`], plus a relaxed counter of every allocation call — the
/// probe `wsn_bench::hotpath::allocprobe` reads around the measured
/// steady-state round. Deallocation stays uncounted: the gate's claim is
/// "no allocations per event", so only acquisition matters.
struct CountingAlloc;

static ALLOCATION_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_calls() -> u64 {
    ALLOCATION_CALLS.load(Ordering::Relaxed)
}

/// Each mode: the flag (for `gate`, the leading word) that selects it,
/// the option flags it takes, and its fewest and most positional
/// arguments. The first listed mode whose flag is present wins, so
/// `--shard-check` takes `--program` as an option; the last is the
/// default.
type Mode = (&'static str, &'static [&'static str], (usize, usize));

const MODES: &[Mode] = &[
    ("gate", &["--mutate", "--all"], (0, 1)),
    (
        "--shard-check",
        &["--program", "--cut-level", "--emit-shard-cert", "--json"],
        (0, 1),
    ),
    ("--shard-conform", &["--cut-level", "--json"], (1, 1)),
    ("--frame-check", &["--emit-frame-cert", "--json"], (0, 1)),
    ("--conform", &["--json"], (1, 1)),
    ("--certify", &["--json"], (0, 1)),
    ("--program", &["--json"], (1, 1)),
    ("--emit-json-program", &[], (0, 1)),
    ("--codes", &[], (0, 0)),
    ("--help", &[], (0, 0)),
    ("--fig4", &["--json"], (0, 1)),
];

/// A validated command line.
struct Args<'a> {
    mode: &'static str,
    flags: Vec<&'a str>,
    positional: Vec<&'a str>,
    cut_level: u8,
}

impl Args<'_> {
    fn has(&self, flag: &str) -> bool {
        self.flags.contains(&flag)
    }
}

fn parse(args: &[String]) -> Result<Args<'_>, String> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut cut_level = 1u8;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "-h" => flags.push("--help"),
            "--cut-level" => {
                let raw = it.next().ok_or("--cut-level needs a value")?;
                cut_level = raw
                    .parse()
                    .map_err(|_| format!("--cut-level: cannot parse {raw:?}"))?;
                flags.push(arg);
            }
            _ if arg.starts_with('-') => flags.push(arg),
            _ => positional.push(arg),
        }
    }
    let &(mode, options, (fewest, most)) = if args.first().is_some_and(|a| a == "gate") {
        positional.remove(0);
        &MODES[0]
    } else {
        MODES[1..]
            .iter()
            .find(|m| flags.contains(&m.0))
            .unwrap_or(&MODES[MODES.len() - 1])
    };
    if let Some(flag) = flags.iter().find(|&&f| f != mode && !options.contains(&f)) {
        let known = MODES.iter().any(|m| m.0 == *flag || m.1.contains(flag));
        return Err(if known {
            format!("{flag} does not go with {mode}")
        } else {
            format!("unknown flag {flag}")
        });
    }
    if !(fewest..=most).contains(&positional.len()) {
        return Err(format!(
            "{mode} takes {fewest} to {most} arguments, got {positional:?}"
        ));
    }
    Ok(Args {
        mode,
        flags,
        positional,
        cut_level,
    })
}

fn main() -> ExitCode {
    wsn_bench::hotpath::allocprobe::install(allocation_calls);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => usage_error(&e),
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let json = args.has("--json");
    let first = args.positional.first().copied();
    Ok(match args.mode {
        "gate" => return gate(args),
        "--help" => {
            print_usage();
            ExitCode::SUCCESS
        }
        "--codes" => {
            for &code in Code::all() {
                println!("{code}  {}", code.description());
            }
            ExitCode::SUCCESS
        }
        "--emit-json-program" => {
            println!(
                "{}",
                lint::figure4_program_json(parse_depth(first, MAX_DEPTH)?)
            );
            ExitCode::SUCCESS
        }
        "--certify" => {
            let (cert, diags) = lint::certify_figure4(parse_depth(first, MAX_DEPTH)?);
            if !json {
                print!("{}", cert.render_text());
            }
            report(&diags, json)
        }
        "--conform" => {
            let path = first.expect("one positional");
            let (cert, diags) =
                lint::conform_trace_text(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
            let clean = "trace conforms: every measured quantity is inside its bound";
            checked(Some(cert.render_text()), &diags, json, clean);
            exit(diags.has_errors())
        }
        "--shard-conform" => {
            let path = first.expect("one positional");
            let (cert, diags) = lint::shard_conform_trace_text(&read(path)?, args.cut_level)
                .map_err(|e| format!("{path}: {e}"))?;
            let clean = "trace conforms: every cross-shard delivery is a certified boundary edge";
            checked(Some(cert.render_text()), &diags, json, clean);
            exit(diags.has_errors())
        }
        "--shard-check" => {
            let (cert, diags) = if args.has("--program") {
                let path = first.ok_or("--shard-check --program needs a file path")?;
                lint::shard_check_program_text(&read(path)?, args.cut_level)
                    .map_err(|e| format!("{path}: {e}"))?
            } else {
                lint::shard_check_figure4(
                    parse_depth(first, lint::SHARD_CHECK_MAX_DEPTH)?,
                    args.cut_level,
                    false,
                )?
            };
            if args.has("--emit-shard-cert") {
                emit(cert.as_ref().map(shard_cert_to_json), "shard-check");
            } else {
                let clean = "shard check: clean — same-shard events commute, cross-shard \
                             traffic stays on the boundary";
                checked(cert.as_ref().map(|c| c.render_text()), &diags, json, clean);
            }
            exit(diags.has_errors() || cert.is_none())
        }
        "--frame-check" => {
            let (cert, diags) = lint::frame_check_figure4(parse_depth(first, MAX_DEPTH)?);
            if args.has("--emit-frame-cert") {
                emit(cert.as_ref().map(frame_cert_to_json), "frame-check");
            } else {
                let clean = "frame check: clean — every message fits the fixed frame and the \
                             hot path owns its buffers";
                checked(cert.as_ref().map(|c| c.render_text()), &diags, json, clean);
            }
            exit(diags.has_errors() || cert.is_none())
        }
        "--program" => {
            let path = first.expect("one positional");
            let diags =
                lint::lint_program_text(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
            report(&diags, json)
        }
        _ => report(&lint::lint_figure4(parse_depth(first, MAX_DEPTH)?), json),
    })
}

/// `gate <row> [--mutate]` and `gate --all`.
fn gate(args: &Args) -> Result<ExitCode, String> {
    let mutate = args.has("--mutate");
    match (args.positional.first(), args.has("--all")) {
        (None, true) if !mutate => {
            let mut expected = true;
            for gate in GATES {
                for run in std::iter::once(gate.clean()).chain(gate.mutated()) {
                    println!("{}", run.line);
                    if !run.expected {
                        eprint!("{}", run.report);
                    }
                    expected &= run.expected;
                }
            }
            Ok(exit(!expected))
        }
        (Some(name), false) => {
            let gate = gates::find(name).ok_or_else(|| {
                let rows: Vec<_> = GATES.iter().map(|g| g.name).collect();
                format!("unknown gate row {name:?}; rows: {}", rows.join(", "))
            })?;
            let run = if mutate {
                gate.mutated()
                    .ok_or_else(|| format!("gate row {name} has no mutation"))?
            } else {
                gate.clean()
            };
            print!("{}", run.report);
            println!("{}", run.line);
            Ok(exit(!run.passed))
        }
        _ => Err("gate takes one row, optionally with --mutate, or --all".to_string()),
    }
}

fn exit(failed: bool) -> ExitCode {
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Prints a certificate's JSON, or says why there is none.
fn emit(cert: Option<wsn_obs::Json>, mode: &str) {
    match cert {
        Some(json) => println!("{}", json.render()),
        None => eprintln!("wsn-lint: no certificate to emit (the {mode} did not certify)"),
    }
}

/// Prints `diags` as JSON, or the certificate text followed by the
/// diagnostics — or `clean` when there are none.
fn checked(cert: Option<String>, diags: &Diagnostics, json: bool, clean: &str) {
    if json {
        println!("{}", diags.to_json().render());
    } else {
        print!("{}", cert.unwrap_or_default());
        if diags.is_empty() {
            println!("{clean}");
        } else {
            print!("{}", diags.render_text());
        }
    }
}

/// The deepest hierarchy every mode but `--shard-check` takes.
const MAX_DEPTH: u8 = 4;

/// A hierarchy depth in `1..=max` (default 2). `--shard-check` takes up
/// to [`lint::SHARD_CHECK_MAX_DEPTH`], every other mode up to
/// [`MAX_DEPTH`].
fn parse_depth(raw: Option<&str>, max: u8) -> Result<u8, String> {
    match raw {
        None => Ok(2),
        Some(raw) => match raw.parse::<u8>() {
            Ok(d) if (1..=max).contains(&d) => Ok(d),
            _ => Err(format!("depth must be 1..={max}, got {raw:?}")),
        },
    }
}

fn report(diags: &Diagnostics, json: bool) -> ExitCode {
    if json {
        println!("{}", diags.to_json().render());
    } else {
        print!("{}", diags.render_text());
    }
    exit(diags.has_errors())
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("wsn-lint: {message}");
    print_usage();
    ExitCode::from(2)
}

fn print_usage() {
    let rows: Vec<_> = GATES.iter().map(|g| g.name).collect();
    eprintln!(
        "usage: wsn-lint [--fig4] [depth] | --program <file.json> | \
         --emit-json-program [depth] | --certify [depth] | --conform <trace.jsonl> | \
         --shard-check [depth] [--cut-level N] [--emit-shard-cert] | \
         --shard-check --program <file.json> [--cut-level N] | \
         --shard-conform <trace.jsonl> [--cut-level N] | \
         --frame-check [depth] [--emit-frame-cert] | --codes   [--json]\n\
         \x20      wsn-lint gate <row> [--mutate] | gate --all\n\
         rows: {}",
        rows.join(", ")
    );
}
