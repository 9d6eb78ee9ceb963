//! Pass 6a — per-role handler footprints in region space (`SI001`).
//!
//! The synthesized programs are location-oblivious: the only property of
//! its cell a program can observe is the *role* — the highest level at
//! which the cell leads a quad-tree group — because that is what decides
//! which summary tags the middleware ever delivers to it (a role-`r` cell
//! receives child summaries tagged `1..=r`, and nothing else). So instead
//! of abstract-interpreting one copy of the handler per cell, this pass
//! re-runs the Figure-4 exploration machinery once per role with message
//! deliveries restricted to that role's tag set, and reads the exact
//! region-space footprint off the recorded index intervals:
//!
//! * **writes** — `group_level` intervals of fired sends (the message
//!   lands in the level-`g` leader's quorum slot `msgsReceived[g]`);
//! * **reads** — `data_level` intervals (the local summary slot a send
//!   serializes);
//! * **exfils** — `ExfiltrateSummary` level intervals.
//!
//! A footprint is exact only when its exploration completes. A role whose
//! exploration stops at the [`ReachConfig`] state cap is an `RD004`
//! error, and passes 6 and 7 issue no certificate from a partial
//! footprint. Postponed deliveries ([`crate::reach`]) keep Figure 4's
//! explorations small: the largest role at side 512 needs 93 states.
//!
//! `SI001` fires when any footprint component escapes the region space
//! `[0, p]` of the deployment — a handler that addresses a region outside
//! the hierarchy cannot be assigned to any shard.

use crate::diag::{Code, Diagnostic, Diagnostics, Span};
use crate::reach::{explore_with_levels, IndexKind, ReachConfig, SiteKey};
use std::collections::BTreeMap;
use wsn_core::{Hierarchy, RoleFootprint, SiteFootprint};
use wsn_synth::GuardedProgram;

/// Computes the per-role footprints of `program` on a `side × side`
/// deployment: one [`RoleFootprint`] per role `0..=p`, each from an
/// exhaustive exploration restricted to that role's delivery tags.
/// Sites that never fire at a role are absent from its footprint. The
/// first role whose exploration stops at the state cap is an `RD004`
/// error instead: its footprint would cover only an explored prefix.
pub(crate) fn role_footprints(
    program: &GuardedProgram,
    side: u32,
    config: ReachConfig,
) -> Result<Vec<RoleFootprint>, Diagnostic> {
    let hier = Hierarchy::new(side);
    (0..=hier.max_level())
        .map(|role| {
            let levels: Vec<i64> = (1..=i64::from(role)).collect();
            let report = explore_with_levels(program, config, &levels);
            if report.truncated {
                return Err(Diagnostic::error(
                    Code::RD004,
                    Span::Program,
                    format!(
                        "the footprint exploration of role {role} stopped at the state cap of \
                         {} states: its footprint covers only the explored prefix, so no \
                         certificate can rest on it",
                        config.max_states
                    ),
                )
                .with_suggestion("raise ReachConfig::max_states until every role completes"));
            }
            let mut fp = RoleFootprint {
                role,
                writes: Vec::new(),
                reads: Vec::new(),
                exfils: Vec::new(),
            };
            for (site, &(lo, hi)) in &report.intervals {
                let entry = SiteFootprint {
                    rule: site.rule,
                    path: site.path.clone(),
                    lo,
                    hi,
                };
                match site.kind {
                    IndexKind::GroupLevel => fp.writes.push(entry),
                    IndexKind::DataLevel => fp.reads.push(entry),
                    IndexKind::ExfiltrateLevel => fp.exfils.push(entry),
                    IndexKind::MsgsReceived => {}
                }
            }
            Ok(fp)
        })
        .collect()
}

/// Runs the footprint pass: computes [`role_footprints`] and reports
/// every site whose footprint escapes the region space `[0, p]` as
/// `SI001`, one diagnostic per site with the interval merged across
/// roles. A truncated exploration is the `Err` of [`role_footprints`].
/// Callers must run [`crate::wellformed::check_program`] first
/// (evaluation over unbound names is meaningless).
pub(crate) fn check_footprints(
    program: &GuardedProgram,
    side: u32,
    config: ReachConfig,
) -> Result<(Vec<RoleFootprint>, Diagnostics), Diagnostic> {
    let footprints = role_footprints(program, side, config)?;
    let p = i64::from(Hierarchy::new(side).max_level());
    let mut diags = Diagnostics::new();

    // Merge each site's interval across roles so one escaping site yields
    // one finding, not one per role.
    let mut merged: BTreeMap<(SiteKey, &'static str), (i64, i64)> = BTreeMap::new();
    for fp in &footprints {
        for (list, kind, what) in [
            (&fp.writes, IndexKind::GroupLevel, "write (group_level)"),
            (&fp.reads, IndexKind::DataLevel, "read (data_level)"),
            (&fp.exfils, IndexKind::ExfiltrateLevel, "exfiltration level"),
        ] {
            for site in list {
                let key = SiteKey {
                    rule: site.rule,
                    path: site.path.clone(),
                    kind,
                };
                let entry = merged.entry((key, what)).or_insert((site.lo, site.hi));
                entry.0 = entry.0.min(site.lo);
                entry.1 = entry.1.max(site.hi);
            }
        }
    }
    for ((site, what), (lo, hi)) in merged {
        if lo < 0 || hi > p {
            diags.push(
                Diagnostic::error(
                    Code::SI001,
                    Span::Action {
                        rule: site.rule,
                        path: site.path,
                    },
                    format!(
                        "handler footprint escapes the region space: {what} evaluates to \
                         [{lo}, {hi}] across roles, outside the deployment's levels [0, {p}]"
                    ),
                )
                .with_suggestion(
                    "no shard can own a region outside the hierarchy; fix the level arithmetic",
                ),
            );
        }
    }
    diags.sort();
    Ok((footprints, diags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_synth::{synthesize_gather_program, synthesize_quadtree_program};

    #[test]
    fn figure4_roles_have_nested_footprints() {
        // Role r explores tags 1..=r, so each role's behaviors are a
        // subset of the next role's; footprints must stay within the
        // paper's [1, r+1] send envelope.
        let p = synthesize_quadtree_program(2);
        let fps = role_footprints(&p, 4, ReachConfig::default()).unwrap();
        assert_eq!(fps.len(), 3);
        for fp in &fps {
            for w in &fp.writes {
                assert!(w.lo >= 1, "role {} writes {:?}", fp.role, w);
                assert!(
                    w.hi <= i64::from(fp.role) + 1,
                    "role {} writes {:?}",
                    fp.role,
                    w
                );
            }
        }
        // A follower (role 0) still boots and sends its level-1 summary.
        assert!(!fps[0].writes.is_empty());
        // Only the root role can exfiltrate.
        assert!(fps[0].exfils.is_empty() && fps[1].exfils.is_empty());
        assert!(!fps[2].exfils.is_empty());
    }

    #[test]
    fn figure4_and_gather_footprints_are_clean() {
        for program in [
            synthesize_quadtree_program(2),
            synthesize_gather_program(2, 4),
        ] {
            let (_, d) = check_footprints(&program, 4, ReachConfig::default()).unwrap();
            assert_eq!(d.error_count(), 0, "{}: {}", program.name, d.render_text());
        }
    }

    #[test]
    fn escaping_send_level_is_si001() {
        let mut p = synthesize_quadtree_program(2);
        p.rules[0]
            .actions
            .push(wsn_synth::Action::SendSummaryToLeader {
                group_level: wsn_synth::Expr::var("maxrecLevel").plus(2),
                data_level: wsn_synth::Expr::Int(0),
            });
        let (_, d) = check_footprints(&p, 4, ReachConfig::default()).unwrap();
        assert!(d.has_code(Code::SI001), "{}", d.render_text());
        assert!(d.has_errors());
    }

    /// The envelope of a footprint component across its sites.
    fn hull(sites: &[SiteFootprint]) -> Option<(i64, i64)> {
        sites.iter().fold(None, |acc, s| match acc {
            None => Some((s.lo, s.hi)),
            Some((lo, hi)) => Some((lo.min(s.lo), hi.max(s.hi))),
        })
    }

    #[test]
    fn figure4_footprints_are_complete_from_side_64_to_512() {
        // An eager exploration stops at the state cap from side 64 up
        // (role 6 at side 64; role 7 at side 128, whose footprint then
        // wrote only [1, 5]). With postponed deliveries every role
        // completes, and each reads and writes exactly its §4 envelope.
        for p in 6..=9u8 {
            let side = 1u32 << p;
            let program = synthesize_quadtree_program(p);
            let fps = role_footprints(&program, side, ReachConfig::default())
                .unwrap_or_else(|d| panic!("side {side}: {}", d.message));
            assert_eq!(fps.len(), usize::from(p) + 1);
            let p = i64::from(p);
            for fp in &fps {
                let r = i64::from(fp.role);
                assert_eq!(
                    hull(&fp.writes),
                    Some((1, (r + 1).min(p))),
                    "side {side} role {r}"
                );
                assert_eq!(
                    hull(&fp.reads),
                    Some((0, r.min(p - 1))),
                    "side {side} role {r}"
                );
                let exfils = if r == p { Some((p, p)) } else { None };
                assert_eq!(hull(&fp.exfils), exfils, "side {side} role {r}");
            }
        }
    }
}
