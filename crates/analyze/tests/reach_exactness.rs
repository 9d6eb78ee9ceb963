//! Postponing deliveries leaves the reachability report unchanged.
//!
//! `fixtures/eager_reports.txt` holds one line per case of the corpus
//! below: the report of the eager explorer, which enumerated every
//! delivery at every stable state, rendered by [`render`] (every field
//! but `states`). A case is one exploration of one program: `explore`
//! (`all`) or `explore_with_levels` with tags `1..=role` (`role<r>`), at
//! the default state cap. The eager explorer stopped at that cap on four
//! gather cases; those must now complete, with every fact of its partial
//! report among their own.

use std::collections::BTreeMap;
use wsn_analyze::{explore, explore_with_levels, ReachConfig, ReachReport};
use wsn_synth::{
    synthesize_gather_program, synthesize_quadtree_program, Action, Expr, GuardedProgram,
};

/// Figure 4 at depths 1–5 with its leak, escaping-send and absent-summary
/// mutations; gather at depths 1–4; the JSON program fixtures.
fn corpus() -> Vec<(String, GuardedProgram)> {
    let mut out = Vec::new();
    for d in 1..=5u8 {
        out.push((format!("fig4-d{d}"), synthesize_quadtree_program(d)));
        let mut leak = synthesize_quadtree_program(d);
        leak.rules[0].actions.push(Action::SendSummaryToLeader {
            group_level: Expr::var("maxrecLevel"),
            data_level: Expr::Int(0),
        });
        out.push((format!("leak-d{d}"), leak));
        let mut escape = synthesize_quadtree_program(d);
        escape.rules[0].actions.push(Action::SendSummaryToLeader {
            group_level: Expr::var("maxrecLevel").plus(2),
            data_level: Expr::Int(0),
        });
        out.push((format!("escape-d{d}"), escape));
        let mut absent = synthesize_quadtree_program(d);
        absent.rules[0].actions.insert(
            0,
            Action::ExfiltrateSummary {
                level: Expr::var("maxrecLevel"),
            },
        );
        out.push((format!("absent-d{d}"), absent));
    }
    for d in 1..=4u8 {
        out.push((format!("gather-d{d}"), synthesize_gather_program(d, 1 << d)));
    }
    let dir = format!("{}/../bench/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    for name in [
        "broken_guard_overlap",
        "broken_unbound_var",
        "broken_under_supplied",
        "figure4_depth2",
        "shard_leak",
    ] {
        let text = std::fs::read_to_string(format!("{dir}/{name}.json")).expect("fixture");
        let json = wsn_obs::Json::parse(&text).expect("fixture is JSON");
        let program = wsn_analyze::program_from_json(&json).expect("fixture decodes");
        out.push((name.to_string(), program));
    }
    out
}

/// Every exploration of `program`, named as in the golden.
fn explorations(program: &GuardedProgram) -> Vec<(String, ReachReport)> {
    let config = ReachConfig::default();
    let mut out = vec![("all".to_string(), explore(program, config))];
    for role in 0..=i64::from(program.max_level) {
        let levels: Vec<i64> = (1..=role).collect();
        out.push((
            format!("role{role}"),
            explore_with_levels(program, config, &levels),
        ));
    }
    out
}

/// One report as one line, every field but `states`.
fn render(r: &ReachReport) -> String {
    let site = |s: &wsn_analyze::reach::SiteKey| {
        let path: Vec<String> = s.path.iter().map(|p| p.to_string()).collect();
        format!("{}/{}/{:?}", s.rule, path.join("."), s.kind)
    };
    let fired: String = r.fired.iter().map(|&f| if f { '1' } else { '0' }).collect();
    let overlaps: Vec<String> = r.overlaps.iter().map(|(a, b)| format!("{a}-{b}")).collect();
    let intervals: Vec<String> = r
        .intervals
        .iter()
        .map(|(s, (lo, hi))| format!("{}={lo}..{hi}", site(s)))
        .collect();
    let absent: Vec<String> = r.absent_summary.iter().map(site).collect();
    format!(
        "truncated={} clamped={} livelock={:?} fired={fired} overlaps=[{}] intervals=[{}] absent=[{}]",
        r.truncated,
        r.clamped,
        r.livelock,
        overlaps.join(" "),
        intervals.join(" "),
        absent.join(" ")
    )
}

/// Whether the complete report `full` covers the truncated `partial`:
/// every rule fired there fires here, and every other fact recorded there
/// (flag, overlap, interval, absent-summary site) is recorded here too.
fn covers(full: &str, partial: &str) -> bool {
    let facts = |line: &str| -> Vec<String> {
        line.split([' ', '[', ']'])
            .filter(|t| !t.is_empty() && !t.starts_with("truncated="))
            .map(str::to_owned)
            .collect()
    };
    let full = facts(full);
    let fired = full
        .iter()
        .find_map(|t| t.strip_prefix("fired="))
        .expect("fired present");
    facts(partial)
        .iter()
        .all(|fact| match fact.strip_prefix("fired=") {
            Some(partial) => fired
                .chars()
                .zip(partial.chars())
                .all(|(f, p)| f == '1' || p == '0'),
            None => full.contains(fact),
        })
}

#[test]
fn postponed_exploration_reports_what_the_eager_one_did() {
    let golden = include_str!("fixtures/eager_reports.txt");
    let mut eager: BTreeMap<&str, &str> = golden
        .lines()
        .map(|l| l.split_once(": ").expect("<case>: <report>"))
        .collect();
    let mut completed = 0;
    for (name, program) in corpus() {
        for (case, report) in explorations(&program) {
            let key = format!("{name} {case}");
            let want = eager
                .remove(key.as_str())
                .unwrap_or_else(|| panic!("{key} missing from the golden"));
            let got = render(&report);
            assert!(
                !report.truncated,
                "{key} truncated at {} states",
                report.states
            );
            if want.starts_with("truncated=true") {
                assert!(covers(&got, want), "{key}:\n  got   {got}\n  eager {want}");
                completed += 1;
            } else {
                assert_eq!(got, want, "{key}");
            }
        }
    }
    assert!(eager.is_empty(), "golden cases not explored: {eager:?}");
    assert_eq!(
        completed, 4,
        "the eager explorer truncated four gather cases"
    );
}
