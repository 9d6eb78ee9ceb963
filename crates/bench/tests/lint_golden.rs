//! Golden tests for `wsn-lint`: the synthesized paper artifacts must lint
//! clean of errors, and each deliberately-broken fixture must report its
//! expected diagnostic class.

use wsn_analyze::Code;
use wsn_bench::lint;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn synthesized_figure4_reports_zero_errors() {
    for depth in 1..=3 {
        let diags = lint::lint_figure4(depth);
        assert_eq!(
            diags.error_count(),
            0,
            "depth {depth}:\n{}",
            diags.render_text()
        );
    }
}

#[test]
fn figure4_fixture_round_trips_and_lints_clean() {
    let diags = lint::lint_program_text(&fixture("figure4_depth2.json")).unwrap();
    assert_eq!(diags.error_count(), 0, "{}", diags.render_text());
    // The one expected finding: the paper's scan-order-dependent overlap
    // between the transmit and quorum rules.
    assert_eq!(diags.codes(), vec![Code::RD002], "{}", diags.render_text());
}

#[test]
fn json_report_is_byte_stable() {
    // Satellite of the certification PR: diagnostic ordering is a total
    // order (severity, code, span, message, suggestion), so the JSON
    // report is byte-for-byte reproducible — across repeated runs and
    // against the committed golden file.
    let golden = fixture("figure4_depth2_diags.json");
    let render = || lint::lint_figure4(2).to_json().render();
    let first = render();
    assert_eq!(first, render(), "two renders in one process differ");
    assert_eq!(
        format!("{first}\n"),
        golden,
        "wsn-lint --json drifted from the golden fixture; if the change is \
         intentional, regenerate tests/fixtures/figure4_depth2_diags.json"
    );
}

#[test]
fn unbound_variable_fixture_reports_wf_codes() {
    let diags = lint::lint_program_text(&fixture("broken_unbound_var.json")).unwrap();
    assert!(diags.has_errors());
    assert!(diags.has_code(Code::WF002), "{}", diags.render_text());
    assert!(diags.has_code(Code::WF003), "{}", diags.render_text());
    // The dynamics pass is skipped for unsound programs.
    assert!(!diags.has_code(Code::RD001));
}

#[test]
fn guard_overlap_fixture_reports_rd002() {
    let diags = lint::lint_program_text(&fixture("broken_guard_overlap.json")).unwrap();
    assert!(diags.has_code(Code::RD002), "{}", diags.render_text());
    // The shadowed second rule never fires.
    assert!(diags.has_code(Code::RD001), "{}", diags.render_text());
    assert_eq!(diags.error_count(), 0, "{}", diags.render_text());
}

#[test]
fn under_supplied_merge_fixture_reports_dl001() {
    let diags = lint::lint_program_text(&fixture("broken_under_supplied.json")).unwrap();
    assert!(diags.has_errors());
    assert!(diags.has_code(Code::DL001), "{}", diags.render_text());
    // One deadlocked merge per interior task of the 4×4 quad-tree.
    let dl = diags
        .items()
        .iter()
        .filter(|d| d.code == Code::DL001)
        .count();
    assert_eq!(dl, 5, "{}", diags.render_text());
}

#[test]
fn footprint_pass_covers_the_existing_fixtures() {
    // The shard analyzer over the four pre-existing lint fixtures: the
    // clean program certifies, the unbound program is gated at
    // well-formedness (no SI evaluation over unbound names), and the two
    // structurally-broken programs fail certification (CC001) with clean
    // footprints — their defects are not interference defects.
    let shard = |name: &str| lint::shard_check_program_text(&fixture(name), 1).unwrap();

    let (cert, diags) = shard("figure4_depth2.json");
    assert_eq!(diags.error_count(), 0, "{}", diags.render_text());
    let cert = cert.expect("clean figure-4 must certify");
    assert_eq!(cert.cross_shard_messages, 3);
    assert_eq!(cert.total_messages, 20);

    let (cert, diags) = shard("broken_unbound_var.json");
    assert!(cert.is_none());
    assert!(diags.has_code(Code::WF002));
    assert!(!diags
        .codes()
        .iter()
        .any(|c| { matches!(c, Code::SI001 | Code::SI002 | Code::SI003 | Code::SI004) }));

    for name in ["broken_guard_overlap.json", "broken_under_supplied.json"] {
        let (cert, diags) = shard(name);
        assert!(cert.is_none(), "{name}");
        assert!(
            diags.has_code(Code::CC001),
            "{name}: {}",
            diags.render_text()
        );
        assert!(
            !diags
                .codes()
                .iter()
                .any(|c| { matches!(c, Code::SI001 | Code::SI002 | Code::SI003 | Code::SI004) }),
            "{name}: {}",
            diags.render_text()
        );
    }
}

#[test]
fn shard_leak_fixture_reports_si_codes_byte_stably() {
    // The new fixture: Figure 4 plus a boot-time send straight to the
    // global root. Two interference findings — the duplicate write into
    // the level-2 quorum slot (SI002) and the off-boundary cross-shard
    // send (SI003) — and the JSON report is byte-for-byte reproducible
    // against the committed golden file.
    let (cert, diags) = lint::shard_check_program_text(&fixture("shard_leak.json"), 1).unwrap();
    assert!(
        cert.is_none(),
        "an interfering program earns no certificate"
    );
    assert!(diags.has_code(Code::SI002), "{}", diags.render_text());
    assert!(diags.has_code(Code::SI003), "{}", diags.render_text());
    let golden = fixture("shard_leak_diags.json");
    let render = || {
        lint::shard_check_program_text(&fixture("shard_leak.json"), 1)
            .unwrap()
            .1
            .to_json()
            .render()
    };
    let first = render();
    assert_eq!(first, render(), "two renders in one process differ");
    assert_eq!(
        format!("{first}\n"),
        golden,
        "shard-check --json drifted from the golden fixture; if the change is \
         intentional, regenerate tests/fixtures/shard_leak_diags.json with \
         wsn-lint --shard-check --program shard_leak.json --cut-level 1 --json"
    );
}

#[test]
fn planted_mutations_match_their_golden_fixtures() {
    // The shard gate's static leak is exactly the committed fixture...
    let leak = wsn_analyze::program_to_json(&lint::leak_mutated_figure4(2)).render();
    assert_eq!(format!("{leak}\n"), fixture("shard_leak.json"));
    // ...and the frame gate's side-32 deployment trips FL001 with the
    // committed JSON report.
    let (cert, diags) = lint::frame_check_figure4(5);
    assert!(cert.is_none());
    assert!(diags.has_code(Code::FL001), "{}", diags.render_text());
    assert_eq!(
        format!("{}\n", diags.to_json().render()),
        fixture("frame_overflow_diags.json"),
        "the payload-overflow report drifted from the golden fixture; if the \
         change is intentional, regenerate tests/fixtures/frame_overflow_diags.json \
         from lint::frame_check_figure4(5)"
    );
}

#[test]
fn the_three_broken_classes_have_distinct_codes() {
    let codes_of = |name: &str| lint::lint_program_text(&fixture(name)).unwrap().codes();
    let unbound = codes_of("broken_unbound_var.json");
    let overlap = codes_of("broken_guard_overlap.json");
    let deadlock = codes_of("broken_under_supplied.json");
    assert!(unbound.contains(&Code::WF002));
    assert!(overlap.contains(&Code::RD002));
    assert!(deadlock.contains(&Code::DL001));
    // No class's signature code appears in another class's report.
    assert!(!overlap.contains(&Code::WF002) && !deadlock.contains(&Code::WF002));
    assert!(!unbound.contains(&Code::DL001) && !overlap.contains(&Code::DL001));
    assert!(!unbound.contains(&Code::RD002));
}
