//! Golden-output tests for the `netscope shards` subcommand and for the
//! end-to-end trace `netscope --demo` records: the runs are fully seeded
//! (deployment seed and barrier schedule are deterministic), so the exact
//! bytes are pinned against committed fixtures. A drift here means the
//! telemetry pipeline changed what it records — regenerate the fixture
//! only when that change is intentional.

use std::process::Command;

fn netscope(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_netscope"))
        .args(args)
        .output()
        .expect("spawn netscope");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
    )
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn shard_table_demo_matches_the_golden_fixture() {
    let (code, stdout) = netscope(&["shards", "--demo", "--side", "4", "--cut-level", "1"]);
    assert_eq!(code, 0);
    assert_eq!(
        stdout,
        fixture("shard_table_demo.txt"),
        "netscope shards --demo drifted from the golden fixture; if the \
         change is intentional, regenerate tests/fixtures/shard_table_demo.txt \
         with netscope shards --demo --side 4 --cut-level 1"
    );
}

#[test]
fn end_to_end_trace_matches_the_golden_fixture() {
    // Spans, phase and kernel counters, gauges, re-binned histograms,
    // node snapshots and causal events of one seeded side-4 mission.
    let doc = wsn_bench::experiments::record_end_to_end_trace(4, 3, 5, false);
    assert_eq!(
        doc.to_jsonl(),
        fixture("end_to_end_trace_side4_seed5.jsonl"),
        "the exported trace drifted from the golden fixture; if the change \
         is intentional, regenerate tests/fixtures/end_to_end_trace_side4_seed5.jsonl \
         from wsn_bench::experiments::record_end_to_end_trace(4, 3, 5, false).to_jsonl()"
    );
}

#[test]
fn library_renderers_produce_the_same_bytes_as_the_binary() {
    // The subcommands are thin shells over the wsn-obs renderers: the
    // library path must agree byte-for-byte with the binary transcript.
    let doc = wsn_bench::experiments::record_shard_metrics_trace(4, 3, 5, 1, false);
    let table = wsn_obs::shard_table(&doc).expect("demo trace carries shard telemetry");
    assert!(table.reconciled);
    assert_eq!(table.render(), fixture("shard_table_demo.txt"));
}

#[test]
fn full_demo_includes_the_telemetry_and_flight_sections() {
    // `netscope --demo` is the one-command tour: it must end with the
    // shard-telemetry table, and it shows no flight-dump section (a
    // post-mortem is a traced replay of the seed).
    let (code, stdout) = netscope(&["--demo", "--side", "4"]);
    assert_eq!(code, 0);
    for section in [
        "== shard telemetry (cut level 1) ==",
        "reconciliation: per-shard sum",
        "utilization skew (max/mean):",
    ] {
        assert!(stdout.contains(section), "demo output misses {section:?}");
    }
    assert!(!stdout.contains("flight dump"), "{stdout}");
}
