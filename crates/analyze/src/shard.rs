//! Pass 6b — shard-interference analysis: commutativity under a
//! [`ShardPlan`] (`SI002`–`SI004`), the machine-checkable
//! [`ShardCertificate`], and the `TC009` trace-replay check.
//!
//! ROADMAP item 1's parallel kernel wants to run each quad-tree quadrant
//! (the level-`L` blocks of a [`ShardPlan`]) on its own worker. That is
//! sound exactly when, within one epoch, the events mapped to one shard
//! commute — their footprints are disjoint or ordered by a happens-before
//! edge the program itself provides — and everything that crosses shards
//! is confined to §4's region boundary: the certified child-leader →
//! parent-leader merge routes above the cut. This pass mechanizes that
//! argument on top of the per-role footprints of [`crate::footprint`]:
//!
//! * **SI002** — two distinct send sites fire at the same role with
//!   overlapping `group_level` footprints: both write the same
//!   destination quorum slot, so a same-shard reordering changes the
//!   observable merge count (a write/write conflict).
//! * **SI003** — a reachable send addresses a leader in another shard
//!   from a cell that is not a leader of the level just below the target
//!   group: the message is not a region-boundary merge, so the certified
//!   boundary set cannot cover it.
//! * **SI004** — a receive handler writes scalar state. Deliveries are
//!   the only events that cross the epoch barrier (the merge quorum);
//!   a scalar write from a receive handler races the barrier, so its
//!   effect depends on delivery order within the epoch.
//!
//! The [`ShardCertificate`] then fixes the decomposition: the shard map,
//! the boundary hop-edge set, and the closed-form cross-shard message
//! bound in `s`, cross-checked against [`crate::certify()`]'s independently
//! derived `net.messages` total. [`check_shard_conformance`] (`TC009`)
//! replays a causal trace and verifies every observed cross-shard
//! delivery hop lies in the certified boundary edge set.

use crate::certify::{certify, CertConfig};
use crate::diag::{Code, Diagnostic, Diagnostics, Span};
use crate::footprint::check_footprints;
use crate::opt::optimize_program;
use crate::reach::ReachConfig;
use std::collections::{BTreeMap, BTreeSet};
use wsn_core::{GridCoord, Hierarchy, HopEdge, ShardPlan};
use wsn_obs::{Json, TraceDocument};
use wsn_sim::{CausalEvent, CausalKind};
use wsn_synth::{Action, Guard, GuardedProgram};

/// The shard-certificate schema this encoder emits and this decoder
/// understands (versioned like programs and traces; a mismatch is a
/// clear error, not a misparse).
pub const SHARD_CERT_SCHEMA_VERSION: u64 = 1;

/// A machine-checkable shard-safety certificate: the decomposition, its
/// boundary edge set, and the certified cross-shard traffic bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCertificate {
    /// Grid side `s`.
    pub side: u32,
    /// Hierarchy depth `p = log₂ s`.
    pub depth: u8,
    /// Quad-tree cut level `L`; shards are the level-`L` blocks.
    pub cut_level: u8,
    /// Shard count `(s/2^L)²`.
    pub shard_count: u32,
    /// Cells per shard side `2^L`.
    pub block_side: u32,
    /// Live send sites per merge child (the certifier's `k`).
    pub k_send: u64,
    /// The certifier's total message count `Σ 4k(s/2^l)²` at this side.
    pub total_messages: u64,
    /// Certified cross-shard messages: `Σ_{l=L+1..p} 3k(s/2^l)²`.
    pub cross_shard_messages: u64,
    /// The cross-shard bound as mathematics in `s`.
    pub symbolic: String,
    /// Every directed cell hop any certified route takes across a shard
    /// boundary, sorted; a conforming run's cross-shard deliveries happen
    /// on exactly these edges.
    pub boundary_edges: Vec<HopEdge>,
}

impl ShardCertificate {
    /// The plan this certificate describes.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.side, self.cut_level)
    }

    /// Whether a directed cell hop is a certified boundary edge.
    pub fn is_boundary_edge(&self, from: GridCoord, to: GridCoord) -> bool {
        self.boundary_edges.binary_search(&(from, to)).is_ok()
    }

    /// Renders the certificate as terminal text.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "shard certificate: side {} cut level {} -> {} shard(s) of {}x{} cells\n  \
             cross-shard messages {} of {} total ({})\n  boundary edges ({}):\n",
            self.side,
            self.cut_level,
            self.shard_count,
            self.block_side,
            self.block_side,
            self.cross_shard_messages,
            self.total_messages,
            self.symbolic,
            self.boundary_edges.len()
        );
        for (from, to) in &self.boundary_edges {
            out.push_str(&format!(
                "    ({}, {}) -> ({}, {})\n",
                from.col, from.row, to.col, to.row
            ));
        }
        out
    }
}

/// Encodes a certificate as schema-versioned JSON.
pub fn shard_cert_to_json(cert: &ShardCertificate) -> Json {
    let edges = cert
        .boundary_edges
        .iter()
        .map(|(from, to)| {
            Json::Obj(vec![
                (
                    "from".to_owned(),
                    Json::Arr(vec![
                        Json::from_u64(u64::from(from.col)),
                        Json::from_u64(u64::from(from.row)),
                    ]),
                ),
                (
                    "to".to_owned(),
                    Json::Arr(vec![
                        Json::from_u64(u64::from(to.col)),
                        Json::from_u64(u64::from(to.row)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "schema_version".to_owned(),
            Json::from_u64(SHARD_CERT_SCHEMA_VERSION),
        ),
        ("side".to_owned(), Json::from_u64(u64::from(cert.side))),
        ("depth".to_owned(), Json::from_u64(u64::from(cert.depth))),
        (
            "cut_level".to_owned(),
            Json::from_u64(u64::from(cert.cut_level)),
        ),
        (
            "shard_count".to_owned(),
            Json::from_u64(u64::from(cert.shard_count)),
        ),
        (
            "block_side".to_owned(),
            Json::from_u64(u64::from(cert.block_side)),
        ),
        ("k_send".to_owned(), Json::from_u64(cert.k_send)),
        (
            "total_messages".to_owned(),
            Json::from_u64(cert.total_messages),
        ),
        (
            "cross_shard_messages".to_owned(),
            Json::from_u64(cert.cross_shard_messages),
        ),
        ("symbolic".to_owned(), Json::Str(cert.symbolic.clone())),
        ("boundary_edges".to_owned(), Json::Arr(edges)),
    ])
}

/// Decodes a certificate from its JSON encoding.
pub fn shard_cert_from_json(v: &Json) -> Result<ShardCertificate, String> {
    let version = v
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("shard certificate without schema_version")?;
    if version != SHARD_CERT_SCHEMA_VERSION {
        return Err(format!(
            "unsupported shard-certificate schema_version {version} (this reader \
             understands {SHARD_CERT_SCHEMA_VERSION})"
        ));
    }
    let u = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("shard certificate without {key}"))
    };
    let coord = |e: &Json, key: &str| -> Result<GridCoord, String> {
        let arr = e
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("boundary edge without {key}"))?;
        match arr {
            [c, r] => Ok(GridCoord::new(
                u32::try_from(c.as_u64().ok_or("edge coord is not a number")?)
                    .map_err(|_| "edge coord overflows u32")?,
                u32::try_from(r.as_u64().ok_or("edge coord is not a number")?)
                    .map_err(|_| "edge coord overflows u32")?,
            )),
            _ => Err(format!("boundary edge {key} is not a [col, row] pair")),
        }
    };
    let mut boundary_edges = Vec::new();
    for e in v
        .get("boundary_edges")
        .and_then(Json::as_arr)
        .ok_or("shard certificate without boundary_edges")?
    {
        boundary_edges.push((coord(e, "from")?, coord(e, "to")?));
    }
    Ok(ShardCertificate {
        side: u32::try_from(u("side")?).map_err(|_| "side overflows u32")?,
        depth: u8::try_from(u("depth")?).map_err(|_| "depth overflows u8")?,
        cut_level: u8::try_from(u("cut_level")?).map_err(|_| "cut_level overflows u8")?,
        shard_count: u32::try_from(u("shard_count")?).map_err(|_| "shard_count overflows u32")?,
        block_side: u32::try_from(u("block_side")?).map_err(|_| "block_side overflows u32")?,
        k_send: u("k_send")?,
        total_messages: u("total_messages")?,
        cross_shard_messages: u("cross_shard_messages")?,
        symbolic: v
            .get("symbolic")
            .and_then(Json::as_str)
            .ok_or("shard certificate without symbolic")?
            .to_owned(),
        boundary_edges,
    })
}

/// Runs the full shard-interference analysis of `program` under `plan`:
/// well-formedness gate, footprint pass (`SI001`), commutativity pass
/// (`SI002`–`SI004`), and — when the program's recursion ceiling matches
/// the plan's hierarchy and it has a live send structure — the
/// [`ShardCertificate`] with its cross-check against the cost certifier.
pub fn analyze_shards(
    program: &GuardedProgram,
    plan: &ShardPlan,
    config: ReachConfig,
) -> (Option<ShardCertificate>, Diagnostics) {
    let mut diags = crate::wellformed::check_program(program);
    let evaluable = !diags
        .items()
        .iter()
        .any(|d| matches!(d.code, Code::WF002 | Code::WF003));
    if !evaluable {
        diags.sort();
        return (None, diags);
    }
    let side = plan.side();
    let p = plan.max_level();
    if program.max_level != p {
        diags.push(
            Diagnostic::error(
                Code::CC001,
                Span::Program,
                format!(
                    "program recursion ceiling maxrecLevel = {} diverges from the depth-{p} \
                     hierarchy of the side-{side} shard plan",
                    program.max_level
                ),
            )
            .with_suggestion("analyze the program at the deployment's hierarchy depth"),
        );
        diags.sort();
        return (None, diags);
    }

    let footprints = match check_footprints(program, side, config) {
        Ok((footprints, fp_diags)) => {
            diags.extend(fp_diags);
            footprints
        }
        Err(truncated) => {
            diags.push(truncated);
            diags.sort();
            return (None, diags);
        }
    };
    diags.extend(check_commutativity(program, plan, &footprints));

    // ---- The certificate, cross-checked against the cost certifier ----
    let (cert, cert_diags) = certify(program, &CertConfig::paper(side));
    diags.extend(cert_diags);
    let (_, facts, _) = optimize_program(program);
    let k_send = facts.live_send_sites(program) as u64;
    let total = cert
        .bound("net.messages")
        .map(|b| b.interval.hi as u64)
        .unwrap_or(0);
    let shard_cert = if k_send >= 1 {
        let cross = plan.cross_shard_closed_form(k_send);
        let cross_routes = plan.cross_shard_route_messages(k_send);
        let intra: u64 = (1..=p)
            .map(|l| {
                let merges = u64::from(side >> l).pow(2);
                let sends = if l <= plan.cut_level() { 4 } else { 1 };
                k_send * merges * sends
            })
            .sum();
        if cross != cross_routes || intra + cross != total {
            diags.push(
                Diagnostic::error(
                    Code::CC002,
                    Span::Program,
                    format!(
                        "shard decomposition does not account for the certified traffic: \
                         closed form {cross} cross-shard + {intra} intra-shard messages vs \
                         route enumeration {cross_routes} and certified total {total}"
                    ),
                )
                .with_suggestion("the shard geometry and the certifier disagree; file a bug"),
            );
            None
        } else if diags.has_errors() {
            // A certificate asserts shard safety; a program with
            // interference (or certification) errors has not earned one.
            None
        } else {
            Some(ShardCertificate {
                side,
                depth: p,
                cut_level: plan.cut_level(),
                shard_count: plan.shard_count(),
                block_side: plan.block_side(),
                k_send,
                total_messages: total,
                cross_shard_messages: cross,
                symbolic: plan.cross_shard_symbolic(k_send),
                boundary_edges: plan.boundary_hop_edges().into_iter().collect(),
            })
        }
    } else {
        None
    };
    diags.sort();
    (shard_cert, diags)
}

/// A send site named by (rule index, action path) — the dedup key for
/// `SI002` pair reporting.
type SitePath = (usize, Vec<usize>);

/// The commutativity pass proper: `SI002`–`SI004` from the per-role
/// footprints and the program text.
fn check_commutativity(
    program: &GuardedProgram,
    plan: &ShardPlan,
    footprints: &[wsn_core::RoleFootprint],
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let hier = Hierarchy::new(plan.side());
    let p = hier.max_level();

    // SI002: two distinct sites firing at one role with overlapping
    // group_level footprints write the same destination quorum slot.
    let mut reported: BTreeSet<(SitePath, SitePath)> = BTreeSet::new();
    for fp in footprints {
        for (i, a) in fp.writes.iter().enumerate() {
            for b in &fp.writes[i + 1..] {
                if !a.overlaps(b) {
                    continue;
                }
                let key = (
                    (a.rule, a.path.clone()).min((b.rule, b.path.clone())),
                    (a.rule, a.path.clone()).max((b.rule, b.path.clone())),
                );
                if !reported.insert(key) {
                    continue;
                }
                let g_lo = a.lo.max(b.lo);
                let g_hi = a.hi.min(b.hi);
                diags.push(
                    Diagnostic::error(
                        Code::SI002,
                        Span::RulePair {
                            a: a.rule,
                            b: b.rule,
                        },
                        format!(
                            "write/write conflict at role {}: two send sites target the same \
                             quorum slot (group levels overlap on [{g_lo}, {g_hi}]), so the \
                             destination leader's merge count depends on same-shard event \
                             order",
                            fp.role
                        ),
                    )
                    .with_suggestion(
                        "make the sites' group levels disjoint or merge them into one send",
                    ),
                );
            }
        }
    }

    // SI003: a reachable send that leaves the sender's shard without
    // being a child-leader -> parent-leader merge (the only cross-shard
    // traffic §4 certifies, and the only edges in the boundary set).
    let mut cells_by_role: BTreeMap<u8, Vec<GridCoord>> = BTreeMap::new();
    for c in wsn_core::VirtualGrid::new(plan.side()).nodes() {
        cells_by_role
            .entry(hier.highest_leader_level(c))
            .or_default()
            .push(c);
    }
    let mut flagged: BTreeSet<((usize, Vec<usize>), i64)> = BTreeSet::new();
    for fp in footprints {
        for site in &fp.writes {
            for g in site.lo.max(1)..=site.hi.min(i64::from(p)) {
                let g8 = g as u8;
                // A send from a level-(g-1) leader to its level-g leader
                // is a certified boundary merge wherever it crosses.
                if fp.role >= g8 - 1 {
                    continue;
                }
                let offenders: Vec<GridCoord> = cells_by_role
                    .get(&fp.role)
                    .map(|cells| {
                        cells
                            .iter()
                            .copied()
                            .filter(|&c| plan.shard_of(c) != plan.shard_of(hier.leader(c, g8)))
                            .collect()
                    })
                    .unwrap_or_default();
                let Some(&witness) = offenders.first() else {
                    continue;
                };
                if !flagged.insert(((site.rule, site.path.clone()), g)) {
                    continue;
                }
                diags.push(
                    Diagnostic::error(
                        Code::SI003,
                        Span::Action {
                            rule: site.rule,
                            path: site.path.clone(),
                        },
                        format!(
                            "cross-shard send off the region boundary: a role-{} cell (e.g. \
                             ({}, {})) addresses its level-{g} leader in another shard, but \
                             is not a level-{} leader — {} cell(s) of this role leak across \
                             the cut-{} boundary",
                            fp.role,
                            witness.col,
                            witness.row,
                            g - 1,
                            offenders.len(),
                            plan.cut_level()
                        ),
                    )
                    .with_suggestion(
                        "route the summary through the hierarchy (child leader to parent \
                         leader) instead of sending directly across shards",
                    ),
                );
            }
        }
    }

    // SI004: receive handlers that write scalar state. The quorum guard
    // is the epoch barrier; a delivery that mutates scalars makes the
    // post-barrier state depend on intra-epoch delivery order.
    for (r, rule) in program.rules.iter().enumerate() {
        if !guard_is_receive(&rule.guard) {
            continue;
        }
        let mut path = Vec::new();
        report_scalar_writes(r, &rule.actions, &mut path, &mut diags);
    }

    diags
}

fn guard_is_receive(g: &Guard) -> bool {
    match g {
        Guard::Received => true,
        Guard::And(a, b) => guard_is_receive(a) || guard_is_receive(b),
        _ => false,
    }
}

fn report_scalar_writes(
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
                    Code::SI004,
                    Span::Action {
                        rule,
                        path: path.clone(),
                    },
                    format!(
                        "receive handler writes scalar state {name:?}: the write races the \
                         epoch barrier, so the post-quorum state depends on delivery order \
                         within the epoch"
                    ),
                )
                .with_suggestion(
                    "move the write behind the quorum guard (a state rule); receive handlers \
                     should only merge and count",
                ),
            ),
            Action::IfElse {
                then, otherwise, ..
            } => {
                path.push(0);
                report_scalar_writes(rule, then, path, diags);
                path.pop();
                path.push(1);
                report_scalar_writes(rule, otherwise, path, diags);
                path.pop();
            }
            _ => {}
        }
        path.pop();
    }
}

/// `TC009`: replays a causal trace against a [`ShardCertificate`] and
/// verifies every observed cross-shard delivery hop is a certified
/// boundary edge. Needs a trace recorded with causal tracing *and* node
/// placements (`node` records with cells); refuses — with an error, so
/// gates trip — when either is missing.
pub fn check_shard_conformance(cert: &ShardCertificate, doc: &TraceDocument) -> Diagnostics {
    let mut diags = Diagnostics::new();
    if let Some(meta) = &doc.meta {
        if meta.grid != u64::from(cert.side) {
            diags.push(Diagnostic::error(
                Code::TC007,
                Span::Program,
                format!(
                    "trace records a side-{} grid but the shard certificate covers side {}",
                    meta.grid, cert.side
                ),
            ));
            diags.sort();
            return diags;
        }
    }
    if doc.causal.is_empty() {
        diags.push(
            Diagnostic::error(
                Code::TC009,
                Span::Program,
                "trace has no causal records; cross-shard deliveries cannot be replayed".to_owned(),
            )
            .with_suggestion("re-record with causal tracing enabled"),
        );
        diags.sort();
        return diags;
    }
    let cells: BTreeMap<u64, GridCoord> = doc
        .nodes
        .iter()
        .filter_map(|n| n.cell.map(|(col, row)| (n.id, GridCoord::new(col, row))))
        .collect();
    if cells.is_empty() {
        diags.push(
            Diagnostic::error(
                Code::TC009,
                Span::Program,
                "trace has causal records but no node placements (cells); deliveries cannot \
                 be mapped to shards"
                    .to_owned(),
            )
            .with_suggestion("re-record with a writer that stamps node cells"),
        );
        diags.sort();
        return diags;
    }
    let plan = cert.plan();
    let sends: BTreeMap<u64, &CausalEvent> = doc
        .causal
        .iter()
        .filter(|e| e.kind == CausalKind::Send)
        .map(|e| (e.seq, e))
        .collect();
    let mut checked = 0u64;
    for deliver in doc.causal.iter().filter(|e| e.kind == CausalKind::Deliver) {
        let Some(send) = sends.get(&deliver.cause) else {
            continue;
        };
        if send.node == deliver.node {
            continue;
        }
        let (Some(&from), Some(&to)) = (
            cells.get(&(send.node as u64)),
            cells.get(&(deliver.node as u64)),
        ) else {
            diags.push(Diagnostic::error(
                Code::TC009,
                Span::Program,
                format!(
                    "delivery seq {} involves node {} or {} with no recorded cell",
                    deliver.seq, send.node, deliver.node
                ),
            ));
            continue;
        };
        checked += 1;
        if plan.shard_of(from) == plan.shard_of(to) {
            continue;
        }
        if !cert.is_boundary_edge(from, to) {
            diags.push(
                Diagnostic::error(
                    Code::TC009,
                    Span::Node(to),
                    format!(
                        "cross-shard delivery off the certified boundary: {:?} hop from cell \
                         ({}, {}) [shard {}] to cell ({}, {}) [shard {}] at tick {} is not a \
                         boundary edge of the cut-{} plan",
                        deliver.label,
                        from.col,
                        from.row,
                        plan.shard_of(from),
                        to.col,
                        to.row,
                        plan.shard_of(to),
                        deliver.time.ticks(),
                        cert.cut_level
                    ),
                )
                .with_suggestion(
                    "either the program leaks traffic across shards or the certificate's cut \
                     level does not match the intended decomposition",
                ),
            );
        }
    }
    if checked == 0 {
        diags.push(
            Diagnostic::error(
                Code::TC009,
                Span::Program,
                "trace contains no inter-node delivery with mapped cells; nothing to verify"
                    .to_owned(),
            )
            .with_suggestion("record the application phase with causal tracing enabled"),
        );
    }
    diags.sort();
    diags
}

/// `TC010`: reconciles a trace's per-shard telemetry (the
/// `shard=`-labeled counters the sharded runtime publishes) against the
/// [`ShardCertificate`] and the kernel's own independent totals:
///
/// 1. the telemetry covers exactly the certificate's shard count;
/// 2. the per-shard event counters sum to `shard.events.total`, the
///    kernel's own dispatch count for the same runs — an undercounting
///    or double-counting tap anywhere in the per-shard accounting breaks
///    this exactly;
/// 3. cross-shard events staged and applied balance;
/// 4. the observed cross-shard event total lies inside the certified
///    envelope `[cross_shard_messages, total_messages]`: every certified
///    boundary merge (`Σ 3k(s/2^l)²` above the cut) crosses at least
///    once, query dissemination may add more, and no conforming run can
///    cross more often than the certified message total.
///
/// Refuses — with an error, so gates trip — when the trace carries no
/// per-shard telemetry at all.
pub fn check_shard_accounting(cert: &ShardCertificate, doc: &TraceDocument) -> Diagnostics {
    let mut diags = Diagnostics::new();
    if let Some(meta) = &doc.meta {
        if meta.grid != u64::from(cert.side) {
            diags.push(Diagnostic::error(
                Code::TC007,
                Span::Program,
                format!(
                    "trace records a side-{} grid but the shard certificate covers side {}",
                    meta.grid, cert.side
                ),
            ));
            diags.sort();
            return diags;
        }
    }
    let counter = |name: &str| {
        doc.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    };
    let Some(total) = counter("shard.events.total") else {
        diags.push(
            Diagnostic::error(
                Code::TC010,
                Span::Program,
                "trace has no per-shard telemetry (no shard.events.total counter); the \
                 accounting cannot be reconciled"
                    .to_owned(),
            )
            .with_suggestion(
                "record the trace from a sharded run with telemetry enabled and the shard \
                 telemetry absorbed",
            ),
        );
        diags.sort();
        return diags;
    };
    let shard_series =
        |metric: &str, shard: &str| counter(&wsn_obs::labeled(metric, &[("shard", shard)]));
    if let Some(count) = doc
        .gauges
        .iter()
        .find(|(k, _)| k == "shard.count")
        .map(|&(_, v)| v)
    {
        if count != f64::from(cert.shard_count) {
            diags.push(Diagnostic::error(
                Code::TC010,
                Span::Program,
                format!(
                    "trace telemetry covers {count} shards but the certificate's cut-{} plan \
                     has {}",
                    cert.cut_level, cert.shard_count
                ),
            ));
            diags.sort();
            return diags;
        }
    }
    let mut events_sum = 0u64;
    let mut staged_sum = 0u64;
    let mut applied_sum = 0u64;
    for shard in 0..cert.shard_count {
        let label = shard.to_string();
        match shard_series("shard.events", &label) {
            Some(v) => events_sum += v,
            None => diags.push(Diagnostic::error(
                Code::TC010,
                Span::Program,
                format!("trace telemetry has no shard.events series for shard {shard}"),
            )),
        }
        staged_sum += shard_series("shard.cross.staged", &label).unwrap_or(0);
        applied_sum += shard_series("shard.cross.applied", &label).unwrap_or(0);
    }
    if diags.has_errors() {
        diags.sort();
        return diags;
    }
    if events_sum != total {
        diags.push(
            Diagnostic::error(
                Code::TC010,
                Span::Program,
                format!(
                    "per-shard event counters sum to {events_sum} but the kernel dispatched \
                     {total} events in the same runs"
                ),
            )
            .with_suggestion(
                "some dispatches were counted on no shard (undercount) or on several \
                 (double count); the per-shard accounting arrays are corrupted",
            ),
        );
    }
    if staged_sum != applied_sum {
        diags.push(Diagnostic::error(
            Code::TC010,
            Span::Program,
            format!(
                "cross-shard events do not balance: {staged_sum} staged but {applied_sum} \
                 applied"
            ),
        ));
    }
    if applied_sum < cert.cross_shard_messages || applied_sum > cert.total_messages {
        diags.push(
            Diagnostic::error(
                Code::TC010,
                Span::Program,
                format!(
                    "observed {applied_sum} cross-shard events, outside the certified \
                     envelope [{}, {}] ({} boundary merges, {} total messages)",
                    cert.cross_shard_messages,
                    cert.total_messages,
                    cert.symbolic,
                    cert.total_messages
                ),
            )
            .with_suggestion(
                "either traffic leaks across the cut beyond the certified workload or \
                 certified boundary merges never crossed",
            ),
        );
    }
    diags.sort();
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_synth::{synthesize_gather_program, synthesize_quadtree_program, Expr};

    fn fig4_cert(side: u32, cut: u8) -> (Option<ShardCertificate>, Diagnostics) {
        let depth = u8::try_from(side.trailing_zeros()).unwrap();
        let program = synthesize_quadtree_program(depth);
        analyze_shards(&program, &ShardPlan::new(side, cut), ReachConfig::default())
    }

    #[test]
    fn figure4_is_shard_safe_at_every_cut() {
        for (side, cut) in [(4u32, 1u8), (4, 2), (8, 1), (8, 2), (8, 3)] {
            let (cert, diags) = fig4_cert(side, cut);
            assert_eq!(
                diags.error_count(),
                0,
                "side {side} cut {cut}: {}",
                diags.render_text()
            );
            let cert = cert.expect("clean figure-4 must certify");
            assert_eq!(cert.k_send, 1);
            let plan = ShardPlan::new(side, cut);
            assert_eq!(
                cert.cross_shard_messages,
                plan.cross_shard_closed_form(1),
                "side {side} cut {cut}"
            );
            assert_eq!(
                cert.boundary_edges,
                plan.boundary_hop_edges().into_iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn certificate_cross_shard_bound_matches_certifier_total() {
        // The machine cross-check the acceptance criteria call for:
        // cross + intra accounts for every certified message.
        let (cert, _) = fig4_cert(4, 1);
        let cert = cert.unwrap();
        assert_eq!(cert.total_messages, 20);
        assert_eq!(cert.cross_shard_messages, 3);
        let (c8, _) = fig4_cert(8, 2);
        let c8 = c8.unwrap();
        assert_eq!(c8.total_messages, 84);
        assert_eq!(c8.cross_shard_messages, 3);
    }

    #[test]
    fn gather_program_leaks_across_shards() {
        // The star-shaped alternative sends every cell's summary straight
        // to the global root: not boundary traffic once there is more
        // than one shard.
        let program = synthesize_gather_program(2, 4);
        let (_, diags) = analyze_shards(&program, &ShardPlan::new(4, 1), ReachConfig::default());
        assert!(diags.has_code(Code::SI003), "{}", diags.render_text());
        assert!(diags.has_errors());
        // With a single shard there is nothing to cross.
        let (_, diags) = analyze_shards(&program, &ShardPlan::new(4, 2), ReachConfig::default());
        assert!(!diags.has_code(Code::SI003), "{}", diags.render_text());
    }

    #[test]
    fn leak_mutation_trips_si002_and_si003() {
        let mut program = synthesize_quadtree_program(2);
        program.rules[0]
            .actions
            .push(wsn_synth::Action::SendSummaryToLeader {
                group_level: Expr::var("maxrecLevel"),
                data_level: Expr::Int(0),
            });
        let (_, diags) = analyze_shards(&program, &ShardPlan::new(4, 1), ReachConfig::default());
        assert!(diags.has_code(Code::SI003), "{}", diags.render_text());
        assert!(diags.has_code(Code::SI002), "{}", diags.render_text());
        // SI002 is cut-independent: the duplicate write trips even with
        // one shard.
        let (_, diags) = analyze_shards(&program, &ShardPlan::new(4, 2), ReachConfig::default());
        assert!(diags.has_code(Code::SI002), "{}", diags.render_text());
    }

    #[test]
    fn scalar_write_in_receive_handler_is_si004() {
        let mut program = synthesize_quadtree_program(2);
        for rule in &mut program.rules {
            if guard_is_receive(&rule.guard) {
                rule.actions
                    .push(wsn_synth::Action::Set("transmit".into(), Expr::Bool(true)));
            }
        }
        let (_, diags) = analyze_shards(&program, &ShardPlan::new(4, 1), ReachConfig::default());
        assert!(diags.has_code(Code::SI004), "{}", diags.render_text());
        assert!(diags.has_errors());
    }

    #[test]
    fn a_truncated_footprint_forfeits_the_certificate() {
        let program = synthesize_quadtree_program(4);
        let (cert, diags) = analyze_shards(
            &program,
            &ShardPlan::new(16, 2),
            ReachConfig { max_states: 2 },
        );
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
        let (cert, diags) = analyze_shards(&program, &ShardPlan::new(4, 1), ReachConfig::default());
        assert!(cert.is_none());
        assert!(diags.has_code(Code::CC001), "{}", diags.render_text());
    }

    #[test]
    fn certificate_json_round_trips() {
        let (cert, _) = fig4_cert(8, 1);
        let cert = cert.unwrap();
        let json = shard_cert_to_json(&cert);
        let parsed = shard_cert_from_json(&json).unwrap();
        assert_eq!(parsed, cert);
        // Version gate.
        let wrong = json
            .render()
            .replace("\"schema_version\":1", "\"schema_version\":9");
        let err = shard_cert_from_json(&Json::parse(&wrong).unwrap()).unwrap_err();
        assert!(err.contains("schema_version 9"), "{err}");
    }

    #[test]
    fn tc009_rejects_traces_without_causal_or_cells() {
        let (cert, _) = fig4_cert(4, 1);
        let cert = cert.unwrap();
        let doc = TraceDocument::new();
        let d = check_shard_conformance(&cert, &doc);
        assert!(d.has_code(Code::TC009), "{}", d.render_text());
    }

    /// A side-4 cut-1 telemetry document whose accounting reconciles:
    /// 4 shards summing to the kernel total, with balanced cross counters
    /// inside the certified envelope [3, 20].
    fn balanced_accounting_doc() -> TraceDocument {
        let mut doc = TraceDocument::new();
        doc.counters.push(("shard.events.total".to_string(), 90));
        for (shard, events, staged, applied) in [
            ("0", 30u64, 2u64, 1u64),
            ("1", 25, 1, 2),
            ("2", 20, 1, 1),
            ("3", 15, 0, 0),
        ] {
            let l = [("shard", shard)];
            doc.counters
                .push((wsn_obs::labeled("shard.events", &l), events));
            doc.counters
                .push((wsn_obs::labeled("shard.cross.staged", &l), staged));
            doc.counters
                .push((wsn_obs::labeled("shard.cross.applied", &l), applied));
        }
        doc.gauges.push(("shard.count".to_string(), 4.0));
        doc
    }

    #[test]
    fn tc010_accepts_reconciled_accounting() {
        let (cert, _) = fig4_cert(4, 1);
        let cert = cert.unwrap();
        let d = check_shard_accounting(&cert, &balanced_accounting_doc());
        assert!(!d.has_errors(), "{}", d.render_text());
    }

    #[test]
    fn tc010_rejects_traces_without_shard_telemetry() {
        let (cert, _) = fig4_cert(4, 1);
        let cert = cert.unwrap();
        let d = check_shard_accounting(&cert, &TraceDocument::new());
        assert!(d.has_code(Code::TC010), "{}", d.render_text());
        assert!(d.has_errors());
    }

    #[test]
    fn tc010_catches_an_event_undercount() {
        let (cert, _) = fig4_cert(4, 1);
        let cert = cert.unwrap();
        let mut doc = balanced_accounting_doc();
        for (k, v) in &mut doc.counters {
            if k == "shard.events|shard=0" {
                *v -= 1;
            }
        }
        let d = check_shard_accounting(&cert, &doc);
        assert!(d.has_code(Code::TC010), "{}", d.render_text());
        assert!(d.render_text().contains("sum to 89"), "{}", d.render_text());
    }

    #[test]
    fn tc010_catches_unbalanced_and_out_of_envelope_cross_counts() {
        let (cert, _) = fig4_cert(4, 1);
        let cert = cert.unwrap();
        let mut doc = balanced_accounting_doc();
        for (k, v) in &mut doc.counters {
            if k == "shard.cross.applied|shard=1" {
                *v += 30; // unbalanced AND beyond total_messages = 20
            }
        }
        let d = check_shard_accounting(&cert, &doc);
        assert!(d.has_code(Code::TC010), "{}", d.render_text());
        let text = d.render_text();
        assert!(text.contains("do not balance"), "{text}");
        assert!(text.contains("envelope [3, 20]"), "{text}");
        // Too few crossings (below the certified boundary merges) also
        // trips the envelope.
        let mut doc = balanced_accounting_doc();
        for (k, v) in &mut doc.counters {
            if k.starts_with("shard.cross.") {
                *v = 0;
            }
        }
        let d = check_shard_accounting(&cert, &doc);
        assert!(d.has_code(Code::TC010), "{}", d.render_text());
    }

    #[test]
    fn tc010_catches_shard_count_and_grid_mismatches() {
        let (cert, _) = fig4_cert(4, 1);
        let cert = cert.unwrap();
        let mut doc = balanced_accounting_doc();
        for (k, v) in &mut doc.gauges {
            if k == "shard.count" {
                *v = 16.0;
            }
        }
        let d = check_shard_accounting(&cert, &doc);
        assert!(d.has_code(Code::TC010), "{}", d.render_text());
        let mut doc = balanced_accounting_doc();
        doc.meta = Some(wsn_obs::TraceMeta {
            grid: 8,
            ..Default::default()
        });
        let d = check_shard_accounting(&cert, &doc);
        assert!(d.has_code(Code::TC007), "{}", d.render_text());
    }

    #[test]
    fn tc010_reports_a_missing_shard_series() {
        let (cert, _) = fig4_cert(4, 1);
        let cert = cert.unwrap();
        let mut doc = balanced_accounting_doc();
        doc.counters.retain(|(k, _)| k != "shard.events|shard=2");
        let d = check_shard_accounting(&cert, &doc);
        assert!(d.has_code(Code::TC010), "{}", d.render_text());
        assert!(
            d.render_text()
                .contains("no shard.events series for shard 2"),
            "{}",
            d.render_text()
        );
    }
}
