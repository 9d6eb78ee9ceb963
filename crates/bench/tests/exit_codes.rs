//! Golden exit-code matrix for `wsn-lint` and `netscope`: every check
//! entry point must exit 0 on a clean run, 1 when it finds error-severity
//! findings, and 2 on usage or decode errors — so CI can trust the process
//! status without parsing the report. The gate rows come from the gate
//! table itself.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use wsn_bench::experiments::{
    record_end_to_end_trace, record_model_fidelity_trace, record_shard_leak_trace,
    record_shard_metrics_trace,
};
use wsn_bench::gates::GATES;

/// Runs `wsn-lint` from the workspace root, where the gate table finds
/// the committed perf baseline.
fn lint(args: &[&str]) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(env!("CARGO_BIN_EXE_wsn-lint"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("spawn wsn-lint")
}

fn run(args: &[&str]) -> i32 {
    lint(args).status.code().expect("exit code")
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Writes `text` to a fresh temporary file.
fn temp(name: &str, text: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wsn-lint-exit-codes-{}-{name}", std::process::id()));
    std::fs::write(&p, text).expect("write temp file");
    p
}

#[test]
fn kept_modes_exit_by_their_findings() {
    // (args, expected exit) — 0 clean, 1 findings, 2 usage.
    let matrix: &[(&[&str], i32)] = &[
        (&[], 0),
        (&["--fig4", "2"], 0),
        (&["--codes"], 0),
        (&["--certify", "2"], 0),
        (&["--program", &fixture("figure4_depth2.json")], 0),
        (&["--program", &fixture("broken_unbound_var.json")], 1),
        (&["--program", &fixture("broken_under_supplied.json")], 1),
        (&["--program", "/nonexistent/nope.json"], 2),
        (&["--fig4", "9"], 2),
        (&["--shard-check"], 0),
        (&["--shard-check", "2", "--cut-level", "2"], 0),
        (&["--shard-check", "3", "--cut-level", "1"], 0),
        // The plan perfbench's sharded-128 runs under: side 128, cut level 2.
        (&["--shard-check", "7", "--cut-level", "2"], 0),
        (&["--shard-check", "10"], 2),
        (&["--shard-check", "--emit-shard-cert"], 0),
        (
            &[
                "--shard-check",
                "--program",
                &fixture("figure4_depth2.json"),
            ],
            0,
        ),
        (
            &["--shard-check", "--program", &fixture("shard_leak.json")],
            1,
        ),
        // A cut level beyond the hierarchy depth is a usage error.
        (&["--shard-check", "2", "--cut-level", "5"], 2),
        (&["--shard-check", "--cut-level"], 2),
        (&["--shard-conform", "/nonexistent/nope.jsonl"], 2),
        (&["--frame-check"], 0),
        (&["--frame-check", "3"], 0),
        (&["--frame-check", "--emit-frame-cert"], 0),
        (&["--frame-check", "2", "--json"], 0),
        (&["--frame-check", "9"], 2),
    ];
    for (args, want) in matrix {
        assert_eq!(run(args), *want, "wsn-lint {}", args.join(" "));
    }
}

#[test]
fn bad_arguments_exit_2() {
    let matrix: &[&[&str]] = &[
        // Unknown flags, including the retired per-gate ones.
        &["--chek"],
        &["--check"],
        &["--perf-gate", "BENCH_topoquery.json"],
        // Flags the chosen mode does not take.
        &["--frame-check", "--mutate"],
        &["--frame-check", "--cut-level", "1"],
        &["--certify", "--conform", "x.jsonl"],
        &["--codes", "--json"],
        &["--fig4", "2", "3"],
        // Gate rows: none, unknown, mixed forms.
        &["gate"],
        &["gate", "nope"],
        &["gate", "--all", "--mutate"],
        &["gate", "conform", "--all"],
        &["gate", "conform", "--json"],
        &["gate", "conform", "perf"],
        &["--fig4", "gate", "lint"],
    ];
    for args in matrix {
        assert_eq!(run(args), 2, "wsn-lint {}", args.join(" "));
    }
}

/// Every gate row the table lists runs clean with exit 0, every planted
/// mutation exits exactly 1 with a report naming its detectors, and
/// `--mutate` on a row without one is a usage error. `obs` (a wall-clock
/// ratio) and `scale` (minutes in a debug build) run clean in CI's
/// `gate --all` step only.
#[test]
fn gate_rows_exit_by_the_table() {
    for gate in GATES {
        if gate.mutation.is_none() {
            assert_eq!(run(&["gate", gate.name, "--mutate"]), 2, "{}", gate.name);
        }
        if matches!(gate.name, "obs" | "scale") {
            continue;
        }
        let out = lint(&["gate", gate.name]);
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "gate {}:\n{text}", gate.name);
        if let Some((_, detectors)) = gate.mutation {
            let out = lint(&["gate", gate.name, "--mutate"]);
            let text = String::from_utf8_lossy(&out.stdout);
            assert_eq!(
                out.status.code(),
                Some(1),
                "gate {} --mutate:\n{text}",
                gate.name
            );
            for detector in detectors {
                assert!(
                    text.contains(detector),
                    "gate {} --mutate does not name {detector}:\n{text}",
                    gate.name
                );
            }
        }
    }
}

#[test]
fn shard_cert_json_is_machine_checkable() {
    let out = lint(&[
        "--shard-check",
        "2",
        "--cut-level",
        "1",
        "--emit-shard-cert",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8 cert");
    let json = wsn_obs::Json::parse(text.trim()).expect("cert parses");
    let cert = wsn_analyze::shard_cert_from_json(&json).expect("cert decodes");
    assert_eq!(cert.side, 4);
    assert_eq!(cert.cut_level, 1);
    assert_eq!(cert.cross_shard_messages, 3);
    assert_eq!(cert.total_messages, 20);
    assert_eq!(cert.boundary_edges.len(), 3);
}

#[test]
fn frame_cert_json_is_machine_checkable() {
    let out = lint(&["--frame-check", "2", "--emit-frame-cert"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8 cert");
    let json = wsn_obs::Json::parse(text.trim()).expect("cert parses");
    let cert = wsn_analyze::frame_cert_from_json(&json).expect("cert decodes");
    assert_eq!(cert.side, 4);
    assert_eq!(cert.depth, 2);
    assert_eq!(cert.frame_bytes, 2048);
    assert_eq!(cert.payload_capacity, 1968);
    assert_eq!(cert.max_payload_bytes, 248);
    assert_eq!(cert.levels.len(), 3, "levels 0..=2 at depth 2");
    assert_eq!(cert.roles.len(), 3);
}

#[test]
fn frame_and_alloc_codes_are_catalogued() {
    let out = lint(&["--codes"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8 catalog");
    for code in ["FL001", "FL002", "FL003", "AL001", "AL002", "AL003"] {
        assert!(text.contains(code), "--codes misses {code}");
    }
    // The FL group is exactly FL001–FL003: retired codes stay out.
    let frame_codes = text.lines().filter(|l| l.starts_with("FL")).count();
    assert_eq!(frame_codes, 3, "{text}");
}

#[test]
fn retired_codes_are_never_listed() {
    let out = lint(&["--codes"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8 catalog");
    let codes: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(codes.len(), 46, "{text}");
    for retired in ["FL004", "FL005", "CB001", "CB002", "CB003", "CB004"] {
        assert!(!codes.contains(&retired), "--codes lists retired {retired}");
    }
}

#[test]
fn conformance_paths_trip_on_recorded_mutations() {
    // Record the faithful and mutated runs once, then drive every
    // trace-checking entry point through both.
    let faithful = record_model_fidelity_trace(4, 3, 5, 1.0, 1.0).to_jsonl();
    let drifted = record_model_fidelity_trace(4, 3, 5, 2.0, 1.0).to_jsonl();
    let leak = record_shard_leak_trace(4, 3, 5).to_jsonl();
    let paths = [
        temp("faithful.jsonl", &faithful),
        temp("drifted.jsonl", &drifted),
        temp("leak.jsonl", &leak),
    ];
    let [faithful, drifted, leak] = paths.each_ref().map(|p| p.to_str().unwrap());
    let matrix: &[(&[&str], i32)] = &[
        (&["--conform", faithful], 0),
        (&["--conform", drifted], 1),
        (&["--shard-conform", faithful, "--cut-level", "1"], 0),
        (&["--shard-conform", leak, "--cut-level", "1"], 1),
        // With a single shard (cut = depth) nothing can cross: even the
        // leaking run conforms, which is exactly what the plan says.
        (&["--shard-conform", leak, "--cut-level", "2"], 0),
    ];
    for (args, want) in matrix {
        assert_eq!(run(args), *want, "wsn-lint {}", args.join(" "));
    }
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

fn netscope(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_netscope"))
        .args(args)
        .output()
        .expect("spawn netscope")
        .status
        .code()
        .expect("exit code")
}

#[test]
fn netscope_shard_and_flight_paths() {
    let clean = temp(
        "shard-metrics.jsonl",
        &record_shard_metrics_trace(4, 3, 5, 1, false).to_jsonl(),
    );
    let skewed = temp(
        "shard-metrics-skew.jsonl",
        &record_shard_metrics_trace(4, 3, 5, 1, true).to_jsonl(),
    );

    // netscope shards: 0 reconciled, 1 mismatch, 2 usage/decode.
    assert_eq!(netscope(&["shards", clean.to_str().unwrap()]), 0);
    assert_eq!(netscope(&["shards", skewed.to_str().unwrap()]), 1);
    assert_eq!(netscope(&["shards", "--demo", "--side", "4"]), 0);
    assert_eq!(netscope(&["shards", "/nonexistent/nope.jsonl"]), 2);
    assert_eq!(netscope(&["shards", "--demo", "--side", "3"]), 2);

    // There is no `flight` mode: `flight` reads as a trace path beside
    // `--demo` or a second input, a usage error either way.
    assert_eq!(netscope(&["flight", "--demo", "--side", "4"]), 2);
    assert_eq!(netscope(&["flight", clean.to_str().unwrap()]), 2);

    for p in [clean, skewed] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn netscope_modes_exit_by_one_convention() {
    let recorded = record_end_to_end_trace(4, 3, 5, false);
    let mut edited = recorded.clone();
    let app = (edited.spans.iter_mut())
        .find(|s| s.name == "application")
        .expect("the recorded trace has an application span");
    app.end += 1;
    let trace = temp("e2e.jsonl", &recorded.to_jsonl());
    let mismatch = temp("e2e-edited.jsonl", &edited.to_jsonl());
    let [trace, mismatch] = [&trace, &mismatch].map(|p| p.to_str().unwrap());
    let missing = "/nonexistent/nope.jsonl";
    let matrix: &[(&[&str], i32)] = &[
        (&[trace, "--no-timeline"], 0),
        (&[trace, "--bogus"], 2),
        (&[missing], 2),
        (&[], 2),
        (&["critical-path", trace], 0),
        (&["critical-path", "--demo", "--side", "4"], 0),
        (&["critical-path", mismatch], 1),
        (&["critical-path", trace, "--bogus"], 2),
        (&["critical-path", missing], 2),
        (&["diff", trace, mismatch], 0),
        (&["diff", trace], 2),
        (&["diff", trace, missing], 2),
        (&["--help"], 0),
    ];
    for (args, want) in matrix {
        assert_eq!(netscope(args), *want, "netscope {}", args.join(" "));
    }
    for p in [trace, mismatch] {
        let _ = std::fs::remove_file(p);
    }
}
