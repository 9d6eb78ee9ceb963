//! Pass 7 — frame-layout & allocation certification: `FL001`–`FL003`,
//! `AL001`–`AL003`, and the machine-checkable [`FrameCertificate`] that
//! licenses the zero-copy runtime configuration.
//!
//! The zero-copy hot path (`wsn-runtime`'s `FramedProgram` over
//! `PhysicalRuntime<FrameBuf>`) carries every application payload as one
//! fixed `[u8; FRAME_BYTES]` frame inside the runtime's typed envelope:
//! no heap allocation per event. That configuration is sound exactly
//! when two static facts hold of the program:
//!
//! 1. **Every reachable send site fits the frame** — the §4 closed-form
//!    payload bound of the site's data level, in bytes
//!    ([`wsn_core::payload_bound_bytes`]), is at most
//!    `FRAME_PAYLOAD_CAPACITY` (`FL001`), which requires the data level
//!    itself to be statically bounded by the hierarchy (`FL002`).
//! 2. **Everything shipped has a wire form** — a send must never ship a
//!    partially merged summary (`RegionSummary::Partial` has no frame
//!    encoding): a site whose data level reaches the group level it
//!    addresses ships a slot that is still accumulating (`FL003`), and an
//!    exfiltration of a merged level needs that level's quorum barrier in
//!    the program (`FL003`).
//!
//! The `AL` codes classify runtime state for the allocation gate: a send
//! site with no static payload bound forces a per-event heap buffer
//! (`AL001`); an exfiltration fired below the hierarchy root hands its
//! buffer to the collector from a worker that does not own it — a
//! shared-ownership (`Rc`/`RefCell`) access on the hot path (`AL002`);
//! and a receive handler that writes scalar state lets the delivered
//! buffer's data escape the epoch barrier (`AL003`).
//!
//! The [`FrameCertificate`] fixes the frame geometry, the per-level byte
//! bounds, and the per-role payload maxima, cross-checked against
//! [`crate::certify()`]'s independently derived `net.data_units` total
//! (`CC002` on divergence) — the same schema-versioned JSON discipline as
//! the shard certificate.

use crate::certify::{certify, CertConfig};
use crate::diag::{Code, Diagnostic, Diagnostics, Span};
use crate::footprint::role_footprints;
use crate::opt::optimize_program;
use crate::reach::ReachConfig;
use std::collections::BTreeMap;
use wsn_core::framelayout::{FRAME_BYTES, FRAME_HEADER_BYTES, FRAME_PAYLOAD_CAPACITY};
use wsn_core::{payload_bound_bytes, payload_bound_units, Hierarchy};
use wsn_synth::{Action, Guard, GuardedProgram};

/// The frame-certificate schema this encoder emits and this decoder
/// understands; the decoder refuses every other version.
pub const FRAME_CERT_SCHEMA_VERSION: u64 = 2;

/// One row of the certificate's per-level byte table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLevelBound {
    /// Data level `l`.
    pub level: u8,
    /// Extent side `2^l` the level-`l` summary covers.
    pub extent_side: u32,
    /// Closed-form wire bound in bytes.
    pub bound_bytes: u64,
    /// The §4 closed-form payload size in data units (the certifier's
    /// `FullBoundary` profile) — the cross-check anchor.
    pub bound_units: u64,
}

/// Per-role payload maximum over every reachable send/exfiltration site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolePayload {
    /// Highest leader level of the cells this row covers.
    pub role: u8,
    /// Maximum bytes any reachable site at this role puts on the wire.
    pub max_payload_bytes: u64,
    /// Reachable send sites at this role.
    pub send_sites: u64,
    /// Reachable exfiltration sites at this role.
    pub exfil_sites: u64,
}

/// A machine-checkable frame-layout certificate: the frame geometry, the
/// per-level byte bounds, the per-role maxima, and the
/// allocation-discipline claim they support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameCertificate {
    /// Grid side `s`.
    pub side: u32,
    /// Hierarchy depth `p = log₂ s`.
    pub depth: u8,
    /// Total frame size in bytes.
    pub frame_bytes: u64,
    /// Reserved margin in bytes: frame bytes no payload may use.
    pub header_bytes: u64,
    /// Payload region capacity in bytes.
    pub payload_capacity: u64,
    /// Per-level closed-form byte and unit bounds, levels `0..=p`.
    pub levels: Vec<FrameLevelBound>,
    /// Per-role payload maxima, roles `0..=p`.
    pub roles: Vec<RolePayload>,
    /// Maximum bytes any reachable site puts on the wire.
    pub max_payload_bytes: u64,
    /// The certifier's `net.data_units` upper bound this table was
    /// cross-checked against.
    pub total_data_units: u64,
    /// The byte bound as mathematics in the extent side.
    pub symbolic: String,
}

impl FrameCertificate {
    /// Whether the certified worst case fits the frame (always true of an
    /// issued certificate; kept explicit for decoded ones).
    pub fn fits(&self) -> bool {
        self.max_payload_bytes <= self.payload_capacity
    }

    /// Renders the certificate as terminal text.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "frame certificate: side {} depth {} -> {}-byte frames ({}-byte reserved margin, \
             {}-byte payload region)\n  max reachable payload {} byte(s)\n  byte bound: {}\n  \
             levels:\n",
            self.side,
            self.depth,
            self.frame_bytes,
            self.header_bytes,
            self.payload_capacity,
            self.max_payload_bytes,
            self.symbolic,
        );
        for l in &self.levels {
            out.push_str(&format!(
                "    level {}: extent {}x{} -> {} byte(s), {} unit(s)\n",
                l.level, l.extent_side, l.extent_side, l.bound_bytes, l.bound_units
            ));
        }
        out.push_str("  roles:\n");
        for r in &self.roles {
            out.push_str(&format!(
                "    role {}: max {} byte(s) over {} send / {} exfil site(s)\n",
                r.role, r.max_payload_bytes, r.send_sites, r.exfil_sites
            ));
        }
        out
    }
}

/// Encodes a certificate as schema-versioned JSON.
pub fn frame_cert_to_json(cert: &FrameCertificate) -> wsn_obs::Json {
    use wsn_obs::Json;
    let levels = cert
        .levels
        .iter()
        .map(|l| {
            Json::Obj(vec![
                ("level".to_owned(), Json::from_u64(u64::from(l.level))),
                (
                    "extent_side".to_owned(),
                    Json::from_u64(u64::from(l.extent_side)),
                ),
                ("bound_bytes".to_owned(), Json::from_u64(l.bound_bytes)),
                ("bound_units".to_owned(), Json::from_u64(l.bound_units)),
            ])
        })
        .collect();
    let roles = cert
        .roles
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("role".to_owned(), Json::from_u64(u64::from(r.role))),
                (
                    "max_payload_bytes".to_owned(),
                    Json::from_u64(r.max_payload_bytes),
                ),
                ("send_sites".to_owned(), Json::from_u64(r.send_sites)),
                ("exfil_sites".to_owned(), Json::from_u64(r.exfil_sites)),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "schema_version".to_owned(),
            Json::from_u64(FRAME_CERT_SCHEMA_VERSION),
        ),
        ("side".to_owned(), Json::from_u64(u64::from(cert.side))),
        ("depth".to_owned(), Json::from_u64(u64::from(cert.depth))),
        ("frame_bytes".to_owned(), Json::from_u64(cert.frame_bytes)),
        ("header_bytes".to_owned(), Json::from_u64(cert.header_bytes)),
        (
            "payload_capacity".to_owned(),
            Json::from_u64(cert.payload_capacity),
        ),
        (
            "max_payload_bytes".to_owned(),
            Json::from_u64(cert.max_payload_bytes),
        ),
        (
            "total_data_units".to_owned(),
            Json::from_u64(cert.total_data_units),
        ),
        ("symbolic".to_owned(), Json::Str(cert.symbolic.clone())),
        ("levels".to_owned(), Json::Arr(levels)),
        ("roles".to_owned(), Json::Arr(roles)),
    ])
}

/// Decodes a certificate from its JSON encoding (version-gated).
pub fn frame_cert_from_json(v: &wsn_obs::Json) -> Result<FrameCertificate, String> {
    use wsn_obs::Json;
    let version = v
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("frame certificate without schema_version")?;
    if version != FRAME_CERT_SCHEMA_VERSION {
        return Err(format!(
            "unsupported frame-certificate schema_version {version} (this reader \
             understands {FRAME_CERT_SCHEMA_VERSION})"
        ));
    }
    let u = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("frame certificate without {key}"))
    };
    let mut levels = Vec::new();
    for e in v
        .get("levels")
        .and_then(Json::as_arr)
        .ok_or("frame certificate without levels")?
    {
        let f = |key: &str| {
            e.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("level row without {key}"))
        };
        levels.push(FrameLevelBound {
            level: u8::try_from(f("level")?).map_err(|_| "level overflows u8")?,
            extent_side: u32::try_from(f("extent_side")?)
                .map_err(|_| "extent_side overflows u32")?,
            bound_bytes: f("bound_bytes")?,
            bound_units: f("bound_units")?,
        });
    }
    let mut roles = Vec::new();
    for e in v
        .get("roles")
        .and_then(Json::as_arr)
        .ok_or("frame certificate without roles")?
    {
        let f = |key: &str| {
            e.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("role row without {key}"))
        };
        roles.push(RolePayload {
            role: u8::try_from(f("role")?).map_err(|_| "role overflows u8")?,
            max_payload_bytes: f("max_payload_bytes")?,
            send_sites: f("send_sites")?,
            exfil_sites: f("exfil_sites")?,
        });
    }
    Ok(FrameCertificate {
        side: u32::try_from(u("side")?).map_err(|_| "side overflows u32")?,
        depth: u8::try_from(u("depth")?).map_err(|_| "depth overflows u8")?,
        frame_bytes: u("frame_bytes")?,
        header_bytes: u("header_bytes")?,
        payload_capacity: u("payload_capacity")?,
        levels,
        roles,
        max_payload_bytes: u("max_payload_bytes")?,
        total_data_units: u("total_data_units")?,
        symbolic: v
            .get("symbolic")
            .and_then(Json::as_str)
            .ok_or("frame certificate without symbolic")?
            .to_owned(),
    })
}

/// Recomputes the certifier's `net.data_units` upper bound from the
/// frame table's per-level unit column: `Σ_l k · (s/2^l)² merges × 4
/// senders × units(l−1)` — the independent arithmetic behind the `CC002`
/// cross-check.
pub(crate) fn recompute_data_units(side: u32, k_send: u64) -> u64 {
    let p = Hierarchy::new(side).max_level();
    (1..=p)
        .map(|l| {
            let merges = u64::from(side >> l).pow(2);
            k_send * merges * 4 * payload_bound_units(l - 1)
        })
        .sum()
}

/// Runs the full frame-layout & allocation analysis of `program` on a
/// `side × side` deployment: well-formedness gate, per-site payload
/// bounds from the role footprints (`FL001`/`FL002`), partial-summary
/// hazards (`FL003`), allocation discipline (`AL001`–`AL003`), and — when
/// everything holds — the [`FrameCertificate`], cross-checked against the
/// cost certifier (`CC002`).
pub fn analyze_frames(
    program: &GuardedProgram,
    side: u32,
    config: ReachConfig,
) -> (Option<FrameCertificate>, Diagnostics) {
    let mut diags = crate::wellformed::check_program(program);
    let evaluable = !diags
        .items()
        .iter()
        .any(|d| matches!(d.code, Code::WF002 | Code::WF003));
    if !evaluable {
        diags.sort();
        return (None, diags);
    }
    let hier = Hierarchy::new(side);
    let p = hier.max_level();
    if program.max_level != p {
        diags.push(
            Diagnostic::error(
                Code::CC001,
                Span::Program,
                format!(
                    "program recursion ceiling maxrecLevel = {} diverges from the depth-{p} \
                     hierarchy of the side-{side} deployment",
                    program.max_level
                ),
            )
            .with_suggestion("certify the frame layout at the deployment's hierarchy depth"),
        );
        diags.sort();
        return (None, diags);
    }

    // ---- Per-site payload bounds from the role footprints ----
    let footprints = match role_footprints(program, side, config) {
        Ok(footprints) => footprints,
        Err(truncated) => {
            diags.push(truncated);
            diags.sort();
            return (None, diags);
        }
    };
    // Merge each site's data interval across roles: one finding per site.
    type SiteKey = (usize, Vec<usize>, &'static str);
    let mut data_sites: BTreeMap<SiteKey, (i64, i64)> = BTreeMap::new();
    let mut group_hi: BTreeMap<(usize, Vec<usize>), i64> = BTreeMap::new();
    let mut roles = Vec::new();
    for fp in &footprints {
        let mut role_max = 0u64;
        for (list, what) in [(&fp.reads, "send"), (&fp.exfils, "exfiltration")] {
            for site in list {
                let entry = data_sites
                    .entry((site.rule, site.path.clone(), what))
                    .or_insert((site.lo, site.hi));
                entry.0 = entry.0.min(site.lo);
                entry.1 = entry.1.max(site.hi);
                if (0..=i64::from(p)).contains(&site.lo) && (0..=i64::from(p)).contains(&site.hi) {
                    role_max = role_max.max(payload_bound_bytes(site.hi as u8));
                }
            }
        }
        for site in &fp.writes {
            let entry = group_hi
                .entry((site.rule, site.path.clone()))
                .or_insert(site.hi);
            *entry = (*entry).max(site.hi);
        }
        roles.push(RolePayload {
            role: fp.role,
            max_payload_bytes: role_max,
            send_sites: fp.reads.len() as u64,
            exfil_sites: fp.exfils.len() as u64,
        });
    }

    let mut max_payload = 0u64;
    for ((rule, path, what), (lo, hi)) in &data_sites {
        let span = Span::Action {
            rule: *rule,
            path: path.clone(),
        };
        if *lo < 0 || *hi > i64::from(p) {
            diags.push(
                Diagnostic::error(
                    Code::FL002,
                    span.clone(),
                    format!(
                        "{what} site's data level evaluates to [{lo}, {hi}], outside the \
                         deployment's levels [0, {p}]: the payload has no static byte bound"
                    ),
                )
                .with_suggestion("fix the level arithmetic; the frame layout needs a bound"),
            );
            diags.push(
                Diagnostic::error(
                    Code::AL001,
                    span,
                    format!(
                        "{what} site with unbounded payload forces a per-event heap \
                         allocation: the fixed frame cannot carry it"
                    ),
                )
                .with_suggestion("bound the payload so the arena frame pool can carry it"),
            );
            continue;
        }
        let needed = payload_bound_bytes(*hi as u8);
        max_payload = max_payload.max(needed);
        if needed > FRAME_PAYLOAD_CAPACITY as u64 {
            diags.push(
                Diagnostic::error(
                    Code::FL001,
                    span,
                    format!(
                        "{what} site ships a level-{hi} summary: the closed-form bound is \
                         {needed} byte(s), over the {FRAME_PAYLOAD_CAPACITY}-byte frame \
                         payload capacity"
                    ),
                )
                .with_suggestion(
                    "shrink the deployment, raise the frame size, or ship a lower level",
                ),
            );
        }
    }

    // FL003: a send whose data level reaches the group level it addresses
    // ships the slot the destination merge is still assembling — the slot
    // may be Partial, which has no wire form.
    for ((rule, path, what), (lo, hi)) in &data_sites {
        if *what != "send" || *hi < 1 {
            continue;
        }
        let Some(g_hi) = group_hi.get(&(*rule, path.clone())) else {
            continue;
        };
        if hi >= g_hi {
            diags.push(
                Diagnostic::error(
                    Code::FL003,
                    Span::Action {
                        rule: *rule,
                        path: path.clone(),
                    },
                    format!(
                        "send site ships data level [{lo}, {hi}] to a level-{g_hi} group: the \
                         shipped slot is at or above the level being merged, so it may still \
                         be partial — a partial summary has no wire representation"
                    ),
                )
                .with_suggestion("ship the completed child slot (data level = group level − 1)"),
            );
        }
    }
    // FL003 (exfiltration prong): exfiltrating a merged level is only
    // complete behind that level's quorum barrier.
    let quorums = crate::deadlock::quorum_specs(program);
    for ((rule, path, what), (lo, hi)) in &data_sites {
        if *what != "exfiltration" || *hi < 1 {
            continue;
        }
        let lo_checked = (*lo).max(1) as u8;
        let hi_checked = (*hi).min(i64::from(p)) as u8;
        for level in lo_checked..=hi_checked {
            if !quorums.contains_key(&level) {
                diags.push(
                    Diagnostic::error(
                        Code::FL003,
                        Span::Action {
                            rule: *rule,
                            path: path.clone(),
                        },
                        format!(
                            "exfiltration of the level-{level} summary has no level-{level} \
                             quorum barrier in the program: the slot may leave mid-merge"
                        ),
                    )
                    .with_suggestion("guard the exfiltration behind the level's merge quorum"),
                );
            }
        }
    }

    // AL002: an exfiltration fired below the root role hands its buffer
    // to the shared collector from a worker that does not own it.
    for fp in &footprints {
        if fp.role == p {
            continue;
        }
        for site in &fp.exfils {
            diags.push(
                Diagnostic::error(
                    Code::AL002,
                    Span::Action {
                        rule: site.rule,
                        path: site.path.clone(),
                    },
                    format!(
                        "exfiltration reachable at role {} (below the depth-{p} root): on the \
                         parallel kernel the collector is shared state, so this is an \
                         Rc/RefCell access on the certified hot path",
                        fp.role
                    ),
                )
                .with_suggestion("only the root role may exfiltrate on the zero-copy path"),
            );
        }
    }

    // AL003: receive handlers that write scalar state let the delivered
    // buffer's data escape the epoch barrier.
    for (r, rule) in program.rules.iter().enumerate() {
        if !guard_is_receive(&rule.guard) {
            continue;
        }
        let mut path = Vec::new();
        report_buffer_escapes(r, &rule.actions, &mut path, &mut diags);
    }

    // ---- Cross-check against the cost certifier (CC002) ----
    let (cert, cert_diags) = certify(program, &CertConfig::paper(side));
    diags.extend(cert_diags);
    let cfg = CertConfig::paper(side);
    for l in 0..p {
        if cfg.payload_hi.units(l) != payload_bound_units(l) {
            diags.push(Diagnostic::error(
                Code::CC002,
                Span::Level(l),
                format!(
                    "frame byte table prices the level-{l} summary at {} unit(s) but the cost \
                     certifier's profile says {}: the byte bounds do not cover the certified \
                     traffic",
                    payload_bound_units(l),
                    cfg.payload_hi.units(l)
                ),
            ));
        }
    }
    let (_, facts, _) = optimize_program(program);
    let k_send = facts.live_send_sites(program) as u64;
    let certified_units = cert
        .bound("net.data_units")
        .map(|b| b.interval.hi as u64)
        .unwrap_or(0);
    let recomputed = recompute_data_units(side, k_send);
    if k_send >= 1 && recomputed != certified_units {
        diags.push(
            Diagnostic::error(
                Code::CC002,
                Span::Program,
                format!(
                    "frame table accounts for {recomputed} data unit(s) but the certifier \
                     bounds net.data_units at {certified_units}: the byte table and the cost \
                     certificate diverge"
                ),
            )
            .with_suggestion("the payload closed forms disagree; file a bug"),
        );
    }

    // ---- The certificate, only once everything above holds ----
    let frame_cert = if k_send >= 1 && !diags.has_errors() {
        Some(FrameCertificate {
            side,
            depth: p,
            frame_bytes: FRAME_BYTES as u64,
            header_bytes: FRAME_HEADER_BYTES as u64,
            payload_capacity: FRAME_PAYLOAD_CAPACITY as u64,
            levels: (0..=p)
                .map(|l| FrameLevelBound {
                    level: l,
                    extent_side: 1u32 << l,
                    bound_bytes: payload_bound_bytes(l),
                    bound_units: payload_bound_units(l),
                })
                .collect(),
            roles,
            max_payload_bytes: max_payload,
            total_data_units: certified_units,
            symbolic: "16 + 24 + 4·perim + 8·perim + 8·⌈s²/2⌉ bytes, s = 2^l, \
                       perim = max(1, 4s − 4)"
                .to_owned(),
        })
    } else {
        None
    };
    diags.sort();
    (frame_cert, diags)
}

fn guard_is_receive(g: &Guard) -> bool {
    match g {
        Guard::Received => true,
        Guard::And(a, b) => guard_is_receive(a) || guard_is_receive(b),
        _ => false,
    }
}

fn report_buffer_escapes(
    rule: usize,
    actions: &[Action],
    path: &mut Vec<usize>,
    diags: &mut Diagnostics,
) {
    for (i, action) in actions.iter().enumerate() {
        path.push(i);
        match action {
            Action::Set(name, _) => diags.push(
                Diagnostic::error(
                    Code::AL003,
                    Span::Action {
                        rule,
                        path: path.clone(),
                    },
                    format!(
                        "receive handler writes scalar state {name:?}: the delivered buffer's \
                         data escapes the epoch barrier, so the frame cannot be recycled at \
                         end of event"
                    ),
                )
                .with_suggestion(
                    "merge and count in receive handlers; mutate state behind the quorum guard",
                ),
            ),
            Action::IfElse {
                then, otherwise, ..
            } => {
                path.push(0);
                report_buffer_escapes(rule, then, path, diags);
                path.pop();
                path.push(1);
                report_buffer_escapes(rule, otherwise, path, diags);
                path.pop();
            }
            _ => {}
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_obs::Json;
    use wsn_synth::{synthesize_quadtree_program, Expr};

    fn fig4_cert(side: u32) -> (Option<FrameCertificate>, Diagnostics) {
        let depth = u8::try_from(side.trailing_zeros()).unwrap();
        let program = synthesize_quadtree_program(depth);
        analyze_frames(&program, side, ReachConfig::default())
    }

    #[test]
    fn faithful_figure4_certifies_at_matrix_sides() {
        for side in [4u32, 8, 16] {
            let (cert, diags) = fig4_cert(side);
            assert_eq!(
                diags.error_count(),
                0,
                "side {side}: {}",
                diags.render_text()
            );
            let cert = cert.expect("clean figure-4 must certify");
            assert!(cert.fits());
            let p = side.trailing_zeros() as u8;
            assert_eq!(cert.depth, p);
            assert_eq!(cert.levels.len(), usize::from(p) + 1);
            assert_eq!(cert.roles.len(), usize::from(p) + 1);
            // The worst reachable payload is the root's exfiltration of
            // the whole-grid summary.
            assert_eq!(cert.max_payload_bytes, payload_bound_bytes(p));
            assert_eq!(
                cert.roles.last().unwrap().max_payload_bytes,
                payload_bound_bytes(p)
            );
            // Only the root role exfiltrates.
            for r in &cert.roles[..cert.roles.len() - 1] {
                assert_eq!(r.exfil_sites, 0, "role {}", r.role);
            }
        }
    }

    #[test]
    fn byte_table_cross_checks_the_certifiers_data_units() {
        // The CC002 anchor: the frame table's unit column re-derives the
        // certified net.data_units total exactly.
        let (cert, _) = fig4_cert(4);
        assert_eq!(cert.unwrap().total_data_units, 52);
        assert_eq!(recompute_data_units(4, 1), 52);
        let (cert8, _) = fig4_cert(8);
        assert_eq!(cert8.unwrap().total_data_units, recompute_data_units(8, 1));
    }

    #[test]
    fn oversized_deployment_trips_fl001() {
        // At side 32 the root's whole-grid summary bound exceeds the
        // frame payload capacity: the faithful program itself overflows.
        let (cert, diags) = fig4_cert(32);
        assert!(cert.is_none());
        assert!(diags.has_code(Code::FL001), "{}", diags.render_text());
    }

    #[test]
    fn escaping_data_level_trips_fl002_and_al001() {
        let mut program = synthesize_quadtree_program(2);
        program.rules[0]
            .actions
            .push(wsn_synth::Action::SendSummaryToLeader {
                group_level: Expr::Int(1),
                data_level: Expr::var("maxrecLevel").plus(3),
            });
        let (cert, diags) = analyze_frames(&program, 4, ReachConfig::default());
        assert!(cert.is_none());
        assert!(diags.has_code(Code::FL002), "{}", diags.render_text());
        assert!(diags.has_code(Code::AL001), "{}", diags.render_text());
    }

    #[test]
    fn shipping_the_merging_slot_trips_fl003() {
        // data_level = group_level ships the slot the destination is
        // still assembling: a Partial, which has no wire form.
        let mut program = synthesize_quadtree_program(2);
        program.rules[3]
            .actions
            .push(wsn_synth::Action::SendSummaryToLeader {
                group_level: Expr::var("recLevel"),
                data_level: Expr::var("recLevel"),
            });
        let (cert, diags) = analyze_frames(&program, 4, ReachConfig::default());
        assert!(cert.is_none());
        assert!(diags.has_code(Code::FL003), "{}", diags.render_text());
    }

    #[test]
    fn non_root_exfiltration_trips_al002() {
        let mut program = synthesize_quadtree_program(2);
        program.rules[0]
            .actions
            .push(wsn_synth::Action::ExfiltrateSummary {
                level: Expr::Int(0),
            });
        let (cert, diags) = analyze_frames(&program, 4, ReachConfig::default());
        assert!(cert.is_none());
        assert!(diags.has_code(Code::AL002), "{}", diags.render_text());
    }

    #[test]
    fn scalar_write_in_receive_handler_trips_al003() {
        let mut program = synthesize_quadtree_program(2);
        for rule in &mut program.rules {
            if guard_is_receive(&rule.guard) {
                rule.actions
                    .push(wsn_synth::Action::Set("transmit".into(), Expr::Bool(true)));
            }
        }
        let (cert, diags) = analyze_frames(&program, 4, ReachConfig::default());
        assert!(cert.is_none());
        assert!(diags.has_code(Code::AL003), "{}", diags.render_text());
    }

    #[test]
    fn a_truncated_footprint_forfeits_the_certificate() {
        let program = synthesize_quadtree_program(4);
        let (cert, diags) = analyze_frames(&program, 16, ReachConfig { max_states: 2 });
        assert!(cert.is_none());
        assert!(diags.has_errors(), "{}", diags.render_text());
        let rd004: Vec<_> = diags
            .items()
            .iter()
            .filter(|d| d.code == Code::RD004)
            .collect();
        assert_eq!(rd004.len(), 1, "{}", diags.render_text());
        assert!(rd004[0].message.contains("role 1"), "{}", rd004[0].message);
    }

    #[test]
    fn depth_mismatch_refuses_a_certificate() {
        let program = synthesize_quadtree_program(3);
        let (cert, diags) = analyze_frames(&program, 4, ReachConfig::default());
        assert!(cert.is_none());
        assert!(diags.has_code(Code::CC001), "{}", diags.render_text());
    }

    #[test]
    fn certificate_json_round_trips() {
        let (cert, _) = fig4_cert(8);
        let cert = cert.unwrap();
        let json = frame_cert_to_json(&cert);
        let parsed = frame_cert_from_json(&json).unwrap();
        assert_eq!(parsed, cert);
        // Schema 2 pins exactly these keys, in this order.
        let Json::Obj(fields) = json else {
            panic!("a certificate encodes as an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema_version",
                "side",
                "depth",
                "frame_bytes",
                "header_bytes",
                "payload_capacity",
                "max_payload_bytes",
                "total_data_units",
                "symbolic",
                "levels",
                "roles",
            ]
        );
        // A schema-1 document — version 1, its five extra keys back — is
        // refused.
        let mut schema1 = fields;
        schema1[0].1 = Json::from_u64(1);
        for key in ["layout_version", "stamp_width_bytes", "event_bound"] {
            schema1.push((key.to_owned(), Json::from_u64(1)));
        }
        for key in ["layout", "variants"] {
            schema1.push((key.to_owned(), Json::Arr(Vec::new())));
        }
        let err = frame_cert_from_json(&Json::Obj(schema1)).unwrap_err();
        assert!(err.contains("schema_version 1"), "{err}");
    }
}
