//! # wsn-analyze — static analysis of synthesized WSN artifacts
//!
//! The paper's methodology synthesizes per-node programs from a mapped
//! task graph; this crate verifies those artifacts *before* they are
//! deployed (or even code-generated), the same way a compiler front-end
//! lints an AST. Every pass reports through one structured diagnostic
//! model ([`diag`]): severity, stable code, a span into the analyzed IR,
//! a message, and an optional suggested fix, renderable as terminal text
//! or JSON.
//!
//! Passes:
//!
//! 1. **Well-formedness** ([`wellformed`]) — declarations, receive-only
//!    constructs, constant initializers (`WF001`–`WF005`, `WF008`,
//!    `WF009`).
//! 2. **Reachability & determinism** ([`reach`]) — an exhaustive bounded
//!    exploration of the rule system that mirrors the interpreter's scan
//!    semantics, with deliveries postponed until a scan reads their
//!    level: unsatisfiable guards, scan-order-observable overlaps,
//!    livelock, and exact index intervals for `msgsReceived[·]` and
//!    summary levels (`RD001`–`RD004`, `WF006`, `WF007`, `WF010`).
//! 3. **Graph & mapping structure** ([`graphcheck`]) — cycle witnesses,
//!    orphan tasks, level monotonicity, and the §4.1 coverage and
//!    spatial-correlation sweeps (`GM001`–`GM005`).
//! 4. **Deadlock** ([`deadlock`]) — the cross-node wait-for structure
//!    induced by mapping and merge quorums (`DL001`, `DL002`).
//!
//! 6. **Shard interference** ([`footprint`], [`shard`]) — per-role
//!    read/write footprints in region space and commutativity under a
//!    quad-tree [`wsn_core::ShardPlan`], yielding a machine-checkable
//!    [`shard::ShardCertificate`] with the closed-form cross-shard
//!    message bound (`SI001`–`SI004`, trace replay `TC009`). A role
//!    whose exploration is truncated is an `RD004` error here and in the
//!    frame pass ([`frame`]), and no certificate is issued.
//!
//! The passes keep their numbers: pass 5, a cost-budget pass, is retired
//! with its `CB` codes, and pass 7 is the frame pass.
//!
//! [`verified`] gates code generation on the verdict: an error-bearing
//! program is refused.
//! [`model_json`] gives programs a stable JSON encoding so external
//! artifacts can be linted too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod conform;
pub mod deadlock;
pub mod diag;
pub mod footprint;
pub mod frame;
pub mod graphcheck;
pub mod model_json;
pub mod opt;
pub mod reach;
pub mod shard;
pub mod sym;
pub mod verified;
pub mod wellformed;

pub use certify::{
    certify, BoundKind, CertConfig, Certificate, CertifiedBound, Interval, PayloadProfile,
};
pub use conform::check_conformance;
pub use deadlock::check_deadlock;
pub use diag::{Code, Diagnostic, Diagnostics, Severity, Span};
pub use frame::{
    analyze_frames, frame_cert_from_json, frame_cert_to_json, FrameCertificate, FrameLevelBound,
    RolePayload, FRAME_CERT_SCHEMA_VERSION,
};
pub use model_json::{program_from_json, program_to_json, PROGRAM_SCHEMA_VERSION};
pub use reach::{explore, explore_with_levels, ReachConfig, ReachReport};
pub use shard::{
    analyze_shards, check_shard_accounting, check_shard_conformance, shard_cert_from_json,
    shard_cert_to_json, ShardCertificate, SHARD_CERT_SCHEMA_VERSION,
};
pub use sym::Sym;
pub use verified::render_figure4_checked;

use wsn_synth::{GuardedProgram, Mapping, QuadTree};

/// Analyzes a program: well-formedness, then (when the program is sound
/// enough to evaluate — no unbound reads or writes) the reachability
/// pass. Diagnostics come back sorted errors-first.
pub fn analyze_program(program: &GuardedProgram) -> Diagnostics {
    let mut diags = wellformed::check_program(program);
    let evaluable = !diags
        .items()
        .iter()
        .any(|d| matches!(d.code, Code::WF002 | Code::WF003));
    if evaluable {
        diags.extend(reach::check_dynamics(program, ReachConfig::default()));
    }
    diags.sort();
    diags
}

/// The full design-time sweep over one deployment: program, graph,
/// mapping, cross-node deadlock analysis, and — when the deployment's
/// side admits one — the symbolic cost certification crosscheck
/// (`CC0xx`: optimizer facts plus program-vs-hierarchy divergence).
pub fn analyze_deployment(
    qt: &QuadTree,
    mapping: &Mapping,
    program: &GuardedProgram,
) -> Diagnostics {
    let mut diags = analyze_program(program);
    diags.extend(graphcheck::check_graph(&qt.graph));
    diags.extend(graphcheck::check_mapping(qt, mapping));
    diags.extend(deadlock::check_deadlock(qt, mapping, program));
    if qt.side >= 2 && qt.side.is_power_of_two() {
        let (_, cert_diags) = certify::certify(program, &certify::CertConfig::paper(qt.side));
        diags.extend(cert_diags);
    }
    diags.sort();
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_synth::{quadtree_task_graph, synthesize_quadtree_program, Mapper, QuadrantMapper};

    #[test]
    fn figure4_deployment_has_zero_errors() {
        let qt = quadtree_task_graph(4, &|l| u64::from(l) + 1, &|l| u64::from(l));
        let m = QuadrantMapper.map(&qt);
        let p = synthesize_quadtree_program(2);
        let d = analyze_deployment(&qt, &m, &p);
        assert_eq!(d.error_count(), 0, "{}", d.render_text());
        // The paper's scan-order overlap is the only expected warning
        // class.
        assert!(
            d.codes().iter().all(|&c| c == Code::RD002),
            "{}",
            d.render_text()
        );
    }

    #[test]
    fn unsound_program_skips_the_dynamics_pass() {
        let mut p = synthesize_quadtree_program(1);
        p.rules[0].actions.push(wsn_synth::Action::Set(
            "ghost".into(),
            wsn_synth::Expr::Int(1),
        ));
        let d = analyze_program(&p);
        assert!(d.has_code(Code::WF003));
        // No RD findings: evaluation over unbound names is meaningless.
        assert!(d
            .codes()
            .iter()
            .all(|c| !matches!(c, Code::RD001 | Code::RD002 | Code::RD003)));
        // Errors sort first.
        assert_eq!(d.items()[0].severity, Severity::Error);
    }
}
