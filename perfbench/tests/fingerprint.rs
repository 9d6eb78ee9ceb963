//! Runs every workload at reduced size, untraced and traced, and checks
//! that both runs leave the same simulation fingerprint, that every op
//! passed its checks, and that each run prints every metric
//! `BENCHMARK.json` names, with its unit.

use std::path::Path;
use std::process::Command;
use wsn_obs::Json;

const WORKLOADS: [&str; 3] = ["small-framed", "scale-512", "sharded-128"];

/// `(name, unit)` of every metric listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    stdout: String,
    result: Json,
}

fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_wsn-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--reduced",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    Run { stdout, result }
}

fn fingerprint(run: &Run) -> Vec<&str> {
    run.stdout
        .lines()
        .filter(|l| l.starts_with("fingerprint "))
        .collect()
}

fn check_metrics(workload: &str, run: &Run, declared: &[(String, String)]) {
    let metrics = run.result.get("metrics").expect("metrics object");
    let Json::Obj(entries) = metrics else {
        panic!("metrics is not an object");
    };
    assert_eq!(entries.len(), declared.len(), "{workload}: metric count");
    for (name, unit) in declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            run.stdout.contains(&format!("metric {name} ")),
            "{workload}: {name} is not printed by name"
        );
    }
}

#[test]
fn every_workload_is_correct_and_traces_without_changing_the_simulation() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let plain = run(workload, false);
        let traced = run(workload, true);
        for r in [&plain, &traced] {
            assert_eq!(
                r.result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            assert_eq!(
                r.result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(r.result.get("attempted").and_then(Json::as_u64) >= Some(1));
        }
        let ok = plain.result.get("metrics").and_then(|m| m.get("ok_ratio"));
        assert_eq!(
            ok.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(1.0)
        );
        let fp = fingerprint(&plain);
        assert!(fp
            .iter()
            .any(|l| l.starts_with("fingerprint events_total=")));
        assert_eq!(
            fp,
            fingerprint(&traced),
            "{workload}: traced run changed the simulation"
        );
        check_metrics(workload, &plain, &end_to_end);
        check_metrics(workload, &traced, &per_layer);
        assert!(plain.stdout.contains("metric sim_latency_ticks "));
        assert!(
            traced.stdout.contains("unattributed"),
            "{workload}: no per-op share"
        );
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_wsn-perfbench"))
        .args(["--workload", "no-such-workload", "--seconds", "1"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
