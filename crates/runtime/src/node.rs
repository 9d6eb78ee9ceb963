//! The physical node actor: protocol state machines plus application
//! forwarding.

use crate::messages::{AppEnvelope, RtMsg};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use wsn_core::{
    merge_milestone, Direction, Exfiltrated, GridCoord, NodeApi, NodeProgram, VirtualGrid,
    MERGE_COMPLETE_KEYS,
};
use wsn_net::{Point, SharedMedium};
use wsn_sim::{Actor, ActorId, Context, SharedCausalLog, SimTime};

/// Timer tags used by the phase kick-offs.
pub(crate) const TAG_TOPO: u64 = 1;
pub(crate) const TAG_BIND: u64 = 2;
pub(crate) const TAG_ANNOUNCE: u64 = 3;
pub(crate) const TAG_APP: u64 = 4;
pub(crate) const TAG_SAMPLE: u64 = 5;
pub(crate) const TAG_HEARTBEAT: u64 = 6;
/// Timer tags at and above this value carry an ARQ sequence number.
pub(crate) const TAG_ARQ_BASE: u64 = 1_000;

/// Which protocol the node is currently participating in. Messages from
/// other phases are ignored (with a counter), modeling stragglers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before any protocol has started.
    Idle,
    /// Topology emulation (§5.1).
    Topo,
    /// δ-flood leader election (§5.2).
    Bind,
    /// Leader announcement / spanning-tree construction.
    Announce,
    /// Intra-cell sampling: followers ship raw readings to their leader.
    Sample,
    /// Application execution.
    App,
}

/// How a cell picks its leader (§5.2: "The choice of the node closest to
/// the geographic center … Residual energy level or more sophisticated
/// metrics could also be employed, especially if the role of leader is to
/// be periodically rotated among nodes in the cell").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElectionPolicy {
    /// Minimize δ, the distance to the cell center (the paper's default).
    #[default]
    ClosestToCenter,
    /// Maximize residual energy — equivalently, minimize consumed energy —
    /// so that re-elections rotate leadership toward fresh nodes.
    MaxResidualEnergy,
}

/// Hop-by-hop reliability parameters (an extension beyond the paper,
/// motivated by EXP-12: the asynchronous merge is safe but not live under
/// loss without retransmission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArqConfig {
    /// Retransmissions attempted before giving a hop up.
    pub max_retries: u32,
    /// Ticks to wait for an acknowledgment. Must exceed the worst-case
    /// data + ack round trip (payload ticks + jitter bounds).
    pub timeout_ticks: u64,
}

/// Leader-liveness detection parameters for the self-healing loop.
/// Leaders beacon every `period_ticks`; a follower that goes
/// `lease_ticks` without hearing one considers its leader dead. The
/// lease must comfortably exceed the period plus intra-cell flood
/// latency, or healthy cells will churn spuriously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Interval between leader beacons.
    pub period_ticks: u64,
    /// Follower patience before declaring the leader dead.
    pub lease_ticks: u64,
}

#[derive(Debug, Clone)]
struct PendingHop<P> {
    to: usize,
    env: AppEnvelope<P>,
    retries_left: u32,
}

/// What only hop-by-hop ARQ and heartbeats keep; a node allocates it the
/// first time either needs it.
struct SideState<P> {
    pending_arq: HashMap<u64, PendingHop<P>>,
    seen_arq: HashSet<(usize, u64)>,
    /// Highest heartbeat seq seen per attested leader (flood dedup).
    hb_last_seq: HashMap<usize, u64>,
}

/// State shared by all node actors of one runtime instance.
pub(crate) struct RtShared<P> {
    pub grid: VirtualGrid,
    pub field: Box<dyn Fn(GridCoord) -> f64>,
    /// The cell of every node, by node id. With the medium's graph it
    /// gives each node its one-hop neighbors and their cells (neighbor
    /// discovery is assumed complete, as in the paper).
    pub cells: Vec<GridCoord>,
    /// Size of a protocol control message in data units.
    pub control_units: u64,
    /// How every node scores itself in the election.
    pub election_policy: Cell<ElectionPolicy>,
    /// Hop-by-hop ARQ, when enabled.
    pub arq: Cell<Option<ArqConfig>>,
    /// Leader-liveness beaconing, when enabled.
    pub heartbeat: Cell<Option<HeartbeatConfig>>,
    pub exfil: RefCell<Vec<Exfiltrated<P>>>,
    /// Sharded-scheduler order tap: while it holds a window position,
    /// exfiltrations are staged under that position and appended to
    /// `exfil` in canonical order at the window barrier, so the buffer
    /// reads exactly as a sequential run would have written it.
    pub tap: RefCell<Option<wsn_sim::OrderTap>>,
    pub staged_exfil: RefCell<Vec<StagedExfil<P>>>,
}

/// An exfiltration staged under its window position. The `Cell` lets the
/// barrier move the entry out while the replay reads the positions.
type StagedExfil<P> = (u32, Cell<Option<Exfiltrated<P>>>);

impl<P> RtShared<P> {
    /// Records one exfiltration, staging it when a sharded window is in
    /// progress (see the `tap` field).
    pub fn push_exfil(&self, e: Exfiltrated<P>) {
        match self.tap.borrow().as_ref().and_then(|t| t.get()) {
            None => self.exfil.borrow_mut().push(e),
            Some(pos) => self
                .staged_exfil
                .borrow_mut()
                .push((pos, Cell::new(Some(e)))),
        }
    }

    /// Moves staged exfiltrations into the main buffer in canonical
    /// window order (`order` from the scheduler's barrier hook; each
    /// dispatch's exfiltrations keep their append order).
    pub fn assign_exfil_order(&self, order: &[u32], replay: &mut wsn_sim::BarrierReplay) {
        let mut staged = self.staged_exfil.borrow_mut();
        if staged.is_empty() {
            return;
        }
        let mut exfil = self.exfil.borrow_mut();
        replay.replay(order, staged.iter().map(|(pos, _)| *pos), |i| {
            exfil.extend(staged[i].1.take());
        });
        staged.clear();
    }
}

/// The direction's index into a routing table, in [`Direction::ALL`] order.
pub(crate) fn dir_idx(d: Direction) -> usize {
    match d {
        Direction::North => 0,
        Direction::East => 1,
        Direction::South => 2,
        Direction::West => 3,
    }
}

/// The per-direction routing-table-fill counter names, in
/// [`Direction::ALL`] order. Bumped once per `rtab` entry filled, whether
/// directly (a neighbor in the adjacent cell) or adopted from a topology
/// broadcast, so their sum counts filled routing-table entries.
pub const FILL_COUNTERS: [&str; 4] = [
    "topo.fill.north",
    "topo.fill.east",
    "topo.fill.south",
    "topo.fill.west",
];

/// The first direction of the dimension-order (column-first) route from
/// `from` to `to`; `None` when equal. Must match
/// [`VirtualGrid::next_hop`] so the physical execution follows the same
/// virtual route the analytical model assumes.
pub fn dim_order_direction(from: GridCoord, to: GridCoord) -> Option<Direction> {
    if from.col < to.col {
        Some(Direction::East)
    } else if from.col > to.col {
        Some(Direction::West)
    } else if from.row < to.row {
        Some(Direction::South)
    } else if from.row > to.row {
        Some(Direction::North)
    } else {
        None
    }
}

/// Whether candidate `a = (δ, id)` beats `b` in the election (§5.2's "value
/// less than its own", with ids breaking δ ties deterministically).
pub(crate) fn better_candidate(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// A physical sensor node participating in the runtime protocols.
pub struct RtNode<P: Clone + 'static> {
    /// Physical node id (index into the deployment).
    pub id: usize,
    /// The cell this node lies in (known locally: §5.1 assumes each node
    /// can compute `f(v_i)` from its coordinates).
    pub cell: GridCoord,
    pub(crate) position: Point,
    pub(crate) cell_center: Point,
    pub(crate) medium: SharedMedium,
    pub(crate) shared: Rc<RtShared<P>>,
    /// Current phase.
    pub phase: Phase,

    /// Routing table `rtab: DIR → next-hop physical node` (§5.1).
    pub rtab: [Option<usize>; 4],

    /// `TRUE` while this node believes it is its cell's leader (§5.2).
    pub ldr: bool,
    pub(crate) best: (f64, usize),
    /// The elected leader this node knows of (after announcement).
    pub leader: Option<usize>,
    /// Next hop toward the leader on the per-cell spanning tree.
    pub parent_to_leader: Option<usize>,
    /// Hop distance to the leader.
    pub hops_to_leader: Option<u32>,

    pub(crate) program: Option<Box<dyn NodeProgram<P>>>,

    /// Additive measurement noise of this node's sensor.
    pub(crate) noise: f64,
    /// Sum and count of follower samples received (leaders only).
    pub(crate) sample_sum: f64,
    pub(crate) sample_count: u64,

    next_arq_seq: u64,
    /// ARQ and heartbeat bookkeeping, once either has run here.
    side: Option<Box<SideState<P>>>,

    /// When a follower's leader lease runs out (None for leaders and
    /// before the application phase starts).
    pub lease_expires: Option<SimTime>,
    /// This node's own beacon counter (monotone across heals).
    hb_seq: u64,

    /// Application epoch this node participates in; envelopes stamped
    /// with a different round are dropped (see [`AppEnvelope::round`]).
    pub(crate) app_round: u32,
    /// Next [`AppEnvelope::msg_id`] this node will originate.
    next_msg_id: u64,
    /// End-to-end `(origin, msg_id)` dedup at delivery, protecting the
    /// application from medium duplication and ARQ re-sends.
    app_seen: HashSet<(usize, u64)>,

    /// Causal event log (shared with the medium), when causal tracing is
    /// enabled.
    pub(crate) causal: Option<SharedCausalLog>,
    /// Sequence number of the most recent causal event on this node's
    /// application chain — the cause the next send or local milestone
    /// links to.
    cur_cause: u64,
}

// A deployment holds one node per sensor, so its size is pinned.
const _: () = assert!(std::mem::size_of::<RtNode<u64>>() == 344);

impl<P: Clone + 'static> RtNode<P> {
    pub(crate) fn new(
        id: usize,
        cell: GridCoord,
        position: Point,
        cell_center: Point,
        medium: SharedMedium,
        shared: Rc<RtShared<P>>,
    ) -> Self {
        let delta = position.distance(cell_center);
        RtNode {
            id,
            cell,
            position,
            cell_center,
            medium,
            shared,
            phase: Phase::Idle,
            rtab: [None; 4],
            ldr: false,
            best: (delta, id),
            leader: None,
            parent_to_leader: None,
            hops_to_leader: None,
            program: None,
            noise: 0.0,
            sample_sum: 0.0,
            sample_count: 0,
            next_arq_seq: 0,
            side: None,
            lease_expires: None,
            hb_seq: 0,
            app_round: 0,
            next_msg_id: 0,
            app_seen: HashSet::new(),
            causal: None,
            cur_cause: 0,
        }
    }

    /// Attaches the shared causal log; application traffic through this
    /// node records stamped send events and chained local milestones.
    pub(crate) fn enable_causal(&mut self, log: SharedCausalLog) {
        self.causal = Some(log);
    }

    /// δ: Euclidean distance to the cell center.
    pub fn delta(&self) -> f64 {
        self.position.distance(self.cell_center)
    }

    /// The ARQ and heartbeat bookkeeping, allocated on first use.
    fn side(&mut self) -> &mut SideState<P> {
        self.side.get_or_insert_with(|| {
            Box::new(SideState {
                pending_arq: HashMap::new(),
                seen_arq: HashSet::new(),
                hb_last_seq: HashMap::new(),
            })
        })
    }

    /// This node's election key under its policy (smaller wins).
    fn election_key(&self) -> f64 {
        match self.shared.election_policy.get() {
            ElectionPolicy::ClosestToCenter => self.delta(),
            ElectionPolicy::MaxResidualEnergy => {
                // Minimizing consumption maximizes residual, and works for
                // unlimited-budget ledgers too.
                self.medium.borrow().ledger().consumed(self.id)
            }
        }
    }

    /// Drops the per-round deduplication state (application and ARQ
    /// `seen` sets) while keeping leadership, routes, and the spanning
    /// tree intact. The runtime prunes after every application run that
    /// drains its queue; `clear` retains each set's capacity, so the
    /// next round re-inserts into already-sized tables.
    pub fn prune_dedup_state(&mut self) {
        self.app_seen.clear();
        if let Some(side) = &mut self.side {
            side.seen_arq.clear();
        }
    }

    /// Entries in the deduplication sets.
    #[cfg(test)]
    pub(crate) fn dedup_entries(&self) -> usize {
        self.app_seen.len() + self.side.as_ref().map_or(0, |side| side.seen_arq.len())
    }

    /// Clears all protocol-derived state (routing table, election,
    /// spanning tree) so the protocols can re-run after churn. Energy
    /// already spent stays spent.
    pub fn reset_protocols(&mut self) {
        self.rtab = [None; 4];
        self.ldr = false;
        self.best = (self.election_key(), self.id);
        self.leader = None;
        self.parent_to_leader = None;
        self.hops_to_leader = None;
        self.phase = Phase::Idle;
        if let Some(side) = &mut self.side {
            side.pending_arq.clear();
            side.seen_arq.clear();
            side.hb_last_seq.clear();
        }
        self.sample_sum = 0.0;
        self.sample_count = 0;
        // Liveness state resets with the protocols; `app_round`,
        // `next_msg_id`, and `hb_seq` stay monotone so stale traffic from
        // the previous epoch can never alias fresh traffic.
        self.lease_expires = None;
        self.app_seen.clear();
        self.cur_cause = 0;
    }

    fn dirs_filled(&self) -> [bool; 4] {
        [
            self.rtab[0].is_some(),
            self.rtab[1].is_some(),
            self.rtab[2].is_some(),
            self.rtab[3].is_some(),
        ]
    }

    fn broadcast_topo(&mut self, ctx: &mut Context<'_, RtMsg<P>>) {
        ctx.stats().incr("topo.broadcast");
        let msg = RtMsg::Topo {
            sender: self.id,
            sender_cell: self.cell,
            dirs: self.dirs_filled(),
        };
        self.medium
            .clone()
            .borrow_mut()
            .broadcast(ctx, self.id, self.shared.control_units, msg);
    }

    fn broadcast_delta(&mut self, ctx: &mut Context<'_, RtMsg<P>>) {
        ctx.stats().incr("bind.broadcast");
        let msg = RtMsg::Delta {
            sender_cell: self.cell,
            delta: self.best.0,
            candidate: self.best.1,
        };
        self.medium
            .clone()
            .borrow_mut()
            .broadcast(ctx, self.id, self.shared.control_units, msg);
    }

    fn broadcast_announce(&mut self, ctx: &mut Context<'_, RtMsg<P>>) {
        let (Some(leader), Some(hops)) = (self.leader, self.hops_to_leader) else {
            return;
        };
        ctx.stats().incr("announce.broadcast");
        let msg = RtMsg::Announce {
            sender_cell: self.cell,
            leader,
            hops,
            sender: self.id,
        };
        self.medium
            .clone()
            .borrow_mut()
            .broadcast(ctx, self.id, self.shared.control_units, msg);
    }

    fn start_topology_emulation(&mut self, ctx: &mut Context<'_, RtMsg<P>>) {
        self.phase = Phase::Topo;
        // "Some entries of the routing table can be filled in using the
        // initially available information": a neighbor lying in the
        // adjacent cell in direction d is a direct next hop. Lowest id
        // wins for determinism.
        let medium = self.medium.clone();
        let medium = medium.borrow();
        let neighbors = medium.graph().neighbors(self.id);
        for d in Direction::ALL {
            let Some(adj) = self.shared.grid.neighbor(self.cell, d) else {
                continue;
            };
            let direct = neighbors
                .iter()
                .copied()
                .filter(|&n| self.shared.cells[n] == adj && medium.is_alive(n))
                .min();
            if direct.is_some() {
                ctx.stats().incr(FILL_COUNTERS[dir_idx(d)]);
            }
            self.rtab[dir_idx(d)] = direct;
        }
        drop(medium);
        self.broadcast_topo(ctx);
    }

    fn on_topo(
        &mut self,
        ctx: &mut Context<'_, RtMsg<P>>,
        sender: usize,
        sender_cell: GridCoord,
        dirs: [bool; 4],
    ) {
        if self.phase != Phase::Topo {
            ctx.stats().incr("topo.stale");
            return;
        }
        if sender_cell != self.cell {
            // "the message is ignored" — it crossed exactly one boundary
            // and dies here.
            ctx.stats().incr("topo.suppressed");
            return;
        }
        let mut adopted = false;
        for d in Direction::ALL {
            let i = dir_idx(d);
            // Only adopt directions that actually lead somewhere.
            if dirs[i]
                && self.rtab[i].is_none()
                && self.shared.grid.neighbor(self.cell, d).is_some()
            {
                self.rtab[i] = Some(sender);
                adopted = true;
                ctx.stats().incr("topo.adopted");
                ctx.stats().incr(FILL_COUNTERS[i]);
            }
        }
        if adopted {
            self.broadcast_topo(ctx);
        }
    }

    fn start_binding(&mut self, ctx: &mut Context<'_, RtMsg<P>>) {
        self.phase = Phase::Bind;
        // "Each node maintains a flag ldr initially set to TRUE."
        self.ldr = true;
        self.best = (self.election_key(), self.id);
        self.broadcast_delta(ctx);
    }

    fn on_delta(
        &mut self,
        ctx: &mut Context<'_, RtMsg<P>>,
        sender_cell: GridCoord,
        delta: f64,
        candidate: usize,
    ) {
        if self.phase != Phase::Bind {
            ctx.stats().incr("bind.stale");
            return;
        }
        if sender_cell != self.cell {
            // "messages crossing cell boundaries are suppressed"
            ctx.stats().incr("bind.suppressed");
            return;
        }
        if better_candidate((delta, candidate), self.best) {
            self.best = (delta, candidate);
            if candidate != self.id {
                self.ldr = false;
            }
            // "broadcasts the updated value to all v_j ∈ N_{v_i}"
            self.broadcast_delta(ctx);
        }
    }

    fn start_announce(&mut self, ctx: &mut Context<'_, RtMsg<P>>) {
        self.phase = Phase::Announce;
        if self.ldr {
            self.leader = Some(self.id);
            self.hops_to_leader = Some(0);
            self.parent_to_leader = None;
            self.broadcast_announce(ctx);
        }
    }

    fn on_announce(
        &mut self,
        ctx: &mut Context<'_, RtMsg<P>>,
        sender_cell: GridCoord,
        leader: usize,
        hops: u32,
        sender: usize,
    ) {
        // Announce is valid during the announce phase and also during App
        // (late tree improvements are harmless and keep churn recovery
        // simple).
        if self.phase != Phase::Announce && self.phase != Phase::App {
            ctx.stats().incr("announce.stale");
            return;
        }
        if sender_cell != self.cell {
            ctx.stats().incr("announce.suppressed");
            return;
        }
        if self.ldr {
            return;
        }
        let new_hops = hops + 1;
        if self.hops_to_leader.is_none_or(|h| new_hops < h) {
            self.leader = Some(leader);
            self.parent_to_leader = Some(sender);
            self.hops_to_leader = Some(new_hops);
            self.broadcast_announce(ctx);
        }
    }

    /// Transmits `env` one physical hop to `to`, with or without ARQ.
    fn tx_hop(&mut self, ctx: &mut Context<'_, RtMsg<P>>, to: usize, mut env: AppEnvelope<P>) {
        let units = env.units;
        if self.causal.is_some() {
            // Chain to the incoming hop's send when relaying, or to this
            // node's latest chain event (phase start, merge) when
            // originating. The fresh stamp rides in the envelope so the
            // receiver keeps the chain going.
            let cause = if env.stamp.is_some() {
                env.stamp.seq
            } else {
                self.cur_cause
            };
            env.stamp = self.medium.clone().borrow_mut().causal_send_stamp(
                self.id,
                ctx.now(),
                cause,
                "app.hop",
                units,
            );
        }
        match self.shared.arq.get() {
            None => {
                self.medium
                    .clone()
                    .borrow_mut()
                    .unicast(ctx, self.id, to, units, RtMsg::App(env));
            }
            Some(cfg) => {
                let seq = self.next_arq_seq;
                self.next_arq_seq += 1;
                self.medium.clone().borrow_mut().unicast(
                    ctx,
                    self.id,
                    to,
                    units,
                    RtMsg::AppArq {
                        seq,
                        hop_sender: self.id,
                        env: env.clone(),
                    },
                );
                self.side().pending_arq.insert(
                    seq,
                    PendingHop {
                        to,
                        env,
                        retries_left: cfg.max_retries,
                    },
                );
                ctx.set_timer(cfg.timeout_ticks, TAG_ARQ_BASE + seq);
            }
        }
    }

    fn on_arq_timeout(&mut self, ctx: &mut Context<'_, RtMsg<P>>, seq: u64) {
        let Some(cfg) = self.shared.arq.get() else {
            return;
        };
        let pending_arq = &mut self.side().pending_arq;
        let (to, env) = match pending_arq.get_mut(&seq) {
            None => return, // acknowledged in the meantime
            Some(pending) => {
                if pending.retries_left == 0 {
                    pending_arq.remove(&seq);
                    ctx.stats().incr("rt.arq_gave_up");
                    return;
                }
                pending.retries_left -= 1;
                (pending.to, pending.env.clone())
            }
        };
        ctx.stats().incr("rt.arq_retx");
        let units = env.units;
        let mut env = env;
        if self.causal.is_some() {
            // A retransmission is a fresh physical send caused by the
            // previous (timed-out) one; re-stamp the envelope and the
            // pending copy so later retries chain on.
            let stamp = self.medium.clone().borrow_mut().causal_send_stamp(
                self.id,
                ctx.now(),
                env.stamp.seq,
                "app.retx",
                units,
            );
            env.stamp = stamp;
            if let Some(pending) = self.side().pending_arq.get_mut(&seq) {
                pending.env.stamp = stamp;
            }
        }
        self.medium.clone().borrow_mut().unicast(
            ctx,
            self.id,
            to,
            units,
            RtMsg::AppArq {
                seq,
                hop_sender: self.id,
                env,
            },
        );
        ctx.set_timer(cfg.timeout_ticks, TAG_ARQ_BASE + seq);
    }

    fn on_app_arq(
        &mut self,
        ctx: &mut Context<'_, RtMsg<P>>,
        seq: u64,
        hop_sender: usize,
        env: AppEnvelope<P>,
    ) {
        // Always acknowledge (an ack costs one control unit), even for
        // duplicates — the sender retransmits precisely because an earlier
        // ack was lost.
        let units = 1;
        self.medium.clone().borrow_mut().unicast(
            ctx,
            self.id,
            hop_sender,
            units,
            RtMsg::Ack { seq, from: self.id },
        );
        if !self.side().seen_arq.insert((hop_sender, seq)) {
            ctx.stats().incr("rt.arq_dup");
            return;
        }
        self.on_app(ctx, env);
    }

    /// Forwards an application envelope one physical hop (§4.2's
    /// shortest-path grid routing, realized on the emulated topology).
    fn forward_app(&mut self, ctx: &mut Context<'_, RtMsg<P>>, env: AppEnvelope<P>) {
        ctx.stats().incr("rt.app_hops");
        if env.dest_cell == self.cell {
            // Intra-cell: climb the spanning tree to the leader.
            match self.parent_to_leader {
                Some(parent) => self.tx_hop(ctx, parent, env),
                None => {
                    ctx.stats().incr("rt.no_route_to_leader");
                }
            }
        } else {
            let dir = dim_order_direction(self.cell, env.dest_cell)
                .expect("dest differs from current cell");
            match self.rtab[dir_idx(dir)] {
                Some(next) => self.tx_hop(ctx, next, env),
                None => {
                    ctx.stats().incr("rt.no_route");
                }
            }
        }
    }

    fn on_app(&mut self, ctx: &mut Context<'_, RtMsg<P>>, env: AppEnvelope<P>) {
        if self.phase != Phase::App {
            ctx.stats().incr("rt.app_stale");
            return;
        }
        if env.round != self.app_round {
            // An envelope from a pre-heal epoch (still in flight or ARQ
            // re-sent across the reset). Delivering it would double-count
            // a merge piece in the restarted computation.
            ctx.stats().incr("rt.app_wrong_round");
            return;
        }
        if env.stamp.is_some() {
            // Whatever this envelope triggers next (a forward hop, a
            // merge, an exfiltration) is caused by the hop that carried
            // it here.
            self.cur_cause = env.stamp.seq;
        }
        if env.dest_cell == self.cell && self.ldr {
            if !self.app_seen.insert((env.origin, env.msg_id)) {
                // Medium duplication or an ARQ retransmit that slipped a
                // hop dedup: the application must see each logical
                // message exactly once.
                ctx.stats().incr("rt.app_dedup");
                return;
            }
            let Some(mut program) = self.program.take() else {
                // A node that wrongly believes it leads (e.g. after an
                // election disturbed by loss or churn) has no program;
                // dropping is the safe behavior — the periodic protocol
                // re-execution (§5.1) is the repair path.
                ctx.stats().incr("rt.no_program");
                return;
            };
            ctx.stats().incr("rt.delivered");
            let src = env.src_cell;
            {
                let mut api = RtApi { node: self, ctx };
                program.on_receive(&mut api, src, env.payload);
            }
            self.program = Some(program);
        } else {
            self.forward_app(ctx, env);
        }
    }

    /// This node's own raw reading: the cell's phenomenon value plus its
    /// sensor noise.
    fn own_reading(&self) -> f64 {
        (self.shared.field)(self.cell) + self.noise
    }

    fn start_sampling(&mut self, ctx: &mut Context<'_, RtMsg<P>>) {
        self.phase = Phase::Sample;
        self.sample_sum = 0.0;
        self.sample_count = 0;
        if !self.ldr {
            if let Some(parent) = self.parent_to_leader {
                ctx.stats().incr("sample.sent");
                let msg = RtMsg::Sample {
                    sender_cell: self.cell,
                    reading: self.own_reading(),
                };
                self.medium
                    .clone()
                    .borrow_mut()
                    .unicast(ctx, self.id, parent, 1, msg);
            }
        }
    }

    fn on_sample(&mut self, ctx: &mut Context<'_, RtMsg<P>>, sender_cell: GridCoord, reading: f64) {
        if self.phase != Phase::Sample && self.phase != Phase::App {
            ctx.stats().incr("sample.stale");
            return;
        }
        if sender_cell != self.cell {
            ctx.stats().incr("sample.suppressed");
            return;
        }
        if self.ldr {
            ctx.stats().incr("sample.delivered");
            self.sample_sum += reading;
            self.sample_count += 1;
        } else if let Some(parent) = self.parent_to_leader {
            // Relay up the spanning tree.
            let msg = RtMsg::Sample {
                sender_cell,
                reading,
            };
            self.medium
                .clone()
                .borrow_mut()
                .unicast(ctx, self.id, parent, 1, msg);
        } else {
            ctx.stats().incr("sample.no_route");
        }
    }

    /// The reading the application sees: the mean of everything the
    /// sampling phase collected plus this node's own sample — or the own
    /// sample alone when sampling never ran (the PoC abstraction).
    pub fn aggregated_reading(&self) -> f64 {
        (self.sample_sum + self.own_reading()) / (self.sample_count as f64 + 1.0)
    }

    fn start_app(&mut self, ctx: &mut Context<'_, RtMsg<P>>) {
        self.phase = Phase::App;
        if let Some(log) = &self.causal {
            // The root of this node's application chain: everything it
            // originates before receiving traffic links back here, so
            // every causal chain bottoms out at the phase start.
            self.cur_cause = log
                .borrow_mut()
                .record_local(self.id, ctx.now(), 0, "app.start");
        }
        if let Some(hb) = self.shared.heartbeat.get() {
            if self.ldr {
                self.lease_expires = None;
                ctx.set_timer(hb.period_ticks, TAG_HEARTBEAT);
            } else {
                // The lease starts now; only beacons refresh it.
                self.lease_expires = Some(ctx.now() + hb.lease_ticks);
            }
        }
        if let Some(mut program) = self.program.take() {
            {
                let mut api = RtApi { node: self, ctx };
                program.on_init(&mut api);
            }
            self.program = Some(program);
        }
    }

    fn beat(&mut self, ctx: &mut Context<'_, RtMsg<P>>) {
        let Some(hb) = self.shared.heartbeat.get() else {
            return;
        };
        if self.phase != Phase::App || !self.ldr {
            // Superseded (a heal demoted us); let the timer chain die.
            return;
        }
        self.hb_seq += 1;
        ctx.stats().incr("hb.beat");
        let msg = RtMsg::Heartbeat {
            sender_cell: self.cell,
            leader: self.id,
            seq: self.hb_seq,
        };
        self.medium
            .clone()
            .borrow_mut()
            .broadcast(ctx, self.id, self.shared.control_units, msg);
        ctx.set_timer(hb.period_ticks, TAG_HEARTBEAT);
    }

    fn on_heartbeat(
        &mut self,
        ctx: &mut Context<'_, RtMsg<P>>,
        sender_cell: GridCoord,
        leader: usize,
        seq: u64,
    ) {
        if self.phase != Phase::App {
            ctx.stats().incr("hb.stale");
            return;
        }
        if sender_cell != self.cell {
            // Liveness is a per-cell concern; beacons die at boundaries
            // like every other intra-cell flood.
            ctx.stats().incr("hb.suppressed");
            return;
        }
        let last = self.side().hb_last_seq.entry(leader).or_insert(0);
        if seq <= *last {
            ctx.stats().incr("hb.dup");
            return;
        }
        *last = seq;
        if let (Some(hb), false) = (self.shared.heartbeat.get(), self.ldr) {
            self.lease_expires = Some(ctx.now() + hb.lease_ticks);
            ctx.stats().incr("hb.renewed");
        }
        // Flood on so every cell member renews, not just the leader's
        // radio neighbors.
        let msg = RtMsg::Heartbeat {
            sender_cell,
            leader,
            seq,
        };
        self.medium
            .clone()
            .borrow_mut()
            .broadcast(ctx, self.id, self.shared.control_units, msg);
    }
}

impl<P: Clone + 'static> Actor<RtMsg<P>> for RtNode<P> {
    fn on_timer(&mut self, ctx: &mut Context<'_, RtMsg<P>>, tag: u64) {
        if !self.medium.clone().borrow().is_alive(self.id) {
            // Dead (or sleeping) nodes take no protocol actions.
            ctx.stats().incr("rt.dead_timer");
            return;
        }
        if tag >= TAG_ARQ_BASE {
            self.on_arq_timeout(ctx, tag - TAG_ARQ_BASE);
            return;
        }
        match tag {
            TAG_TOPO => self.start_topology_emulation(ctx),
            TAG_BIND => self.start_binding(ctx),
            TAG_ANNOUNCE => self.start_announce(ctx),
            TAG_SAMPLE => self.start_sampling(ctx),
            TAG_APP => self.start_app(ctx),
            TAG_HEARTBEAT => self.beat(ctx),
            other => panic!("unknown runtime timer tag {other}"),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, RtMsg<P>>, _from: ActorId, msg: RtMsg<P>) {
        if !self.medium.clone().borrow().is_alive(self.id) {
            // A packet already in flight to a node that died mid-air.
            ctx.stats().incr("rt.dead_rx");
            return;
        }
        match msg {
            RtMsg::Topo {
                sender,
                sender_cell,
                dirs,
            } => self.on_topo(ctx, sender, sender_cell, dirs),
            RtMsg::Delta {
                sender_cell,
                delta,
                candidate,
            } => self.on_delta(ctx, sender_cell, delta, candidate),
            RtMsg::Announce {
                sender_cell,
                leader,
                hops,
                sender,
            } => self.on_announce(ctx, sender_cell, leader, hops, sender),
            RtMsg::App(env) => self.on_app(ctx, env),
            RtMsg::AppArq {
                seq,
                hop_sender,
                env,
            } => self.on_app_arq(ctx, seq, hop_sender, env),
            RtMsg::Ack { seq, from: _ } => {
                if let Some(side) = &mut self.side {
                    side.pending_arq.remove(&seq);
                }
            }
            RtMsg::Sample {
                sender_cell,
                reading,
            } => self.on_sample(ctx, sender_cell, reading),
            RtMsg::Heartbeat {
                sender_cell,
                leader,
                seq,
            } => self.on_heartbeat(ctx, sender_cell, leader, seq),
        }
    }
}

/// The [`NodeApi`] a leader's program sees when running on the physical
/// network.
struct RtApi<'a, 'b, P: Clone + 'static> {
    node: &'a mut RtNode<P>,
    ctx: &'a mut Context<'b, RtMsg<P>>,
}

impl<P: Clone + 'static> NodeApi<P> for RtApi<'_, '_, P> {
    fn coord(&self) -> GridCoord {
        self.node.cell
    }

    fn grid(&self) -> VirtualGrid {
        self.node.shared.grid
    }

    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn read_sensor(&mut self) -> f64 {
        self.node.aggregated_reading()
    }

    fn compute(&mut self, units: u64) {
        let id = self.node.id;
        self.node
            .medium
            .clone()
            .borrow_mut()
            .charge_compute(self.ctx, id, units as f64);
    }

    fn send(&mut self, dest: GridCoord, units: u64, payload: P) {
        assert!(
            self.node.shared.grid.contains(dest),
            "send to {dest:?} outside the grid"
        );
        self.ctx.stats().incr("rt.messages");
        self.ctx.stats().add("rt.data_units", units);
        let msg_id = self.node.next_msg_id;
        self.node.next_msg_id += 1;
        let mut env = AppEnvelope {
            src_cell: self.node.cell,
            dest_cell: dest,
            units,
            round: self.node.app_round,
            origin: self.node.id,
            msg_id,
            stamp: wsn_sim::CausalStamp::NONE,
            payload,
        };
        if dest == self.node.cell {
            // Logical self-message (Figure 4's "one of the four incoming
            // messages … is from the node to itself"): free and immediate.
            if let Some(log) = &self.node.causal {
                // No radio transmission, so the medium never sees it:
                // record the zero-latency send here and stamp the
                // envelope so the receiving handler chains to it.
                env.stamp = log.borrow_mut().record_send(
                    self.node.id,
                    self.ctx.now(),
                    self.node.cur_cause,
                    "app.self",
                    units,
                );
            }
            let me = self.ctx.id();
            self.ctx.send(me, SimTime::ZERO, RtMsg::App(env));
        } else {
            self.node.forward_app(self.ctx, env);
        }
    }

    fn exfiltrate(&mut self, payload: P) {
        self.ctx.stats().incr("rt.exfiltrated");
        if let Some(log) = &self.node.causal {
            // The terminal event of the application chain.
            self.node.cur_cause = log.borrow_mut().record_local(
                self.node.id,
                self.ctx.now(),
                self.node.cur_cause,
                "app.exfil",
            );
        }
        self.node.shared.push_exfil(Exfiltrated {
            from: self.node.cell,
            at: self.ctx.now(),
            payload,
        });
    }

    fn residual_energy(&self) -> Option<f64> {
        self.node.medium.borrow().ledger().residual(self.node.id)
    }

    fn merge_complete(&mut self, level: u8) {
        let at = self.ctx.now().ticks() as f64;
        self.ctx
            .stats()
            .observe(MERGE_COMPLETE_KEYS[usize::from(level)], at);
        if let Some(log) = &self.node.causal {
            // Quad-tree merge completions are the per-level milestones of
            // the causal chain: the merge fires when its last piece
            // arrives, so chaining to `cur_cause` (that piece's hop)
            // follows the latest — i.e. critical — input path.
            self.node.cur_cause = log.borrow_mut().record_local(
                self.node.id,
                self.ctx.now(),
                self.node.cur_cause,
                merge_milestone(level),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_order_is_column_first() {
        let a = GridCoord::new(1, 1);
        assert_eq!(
            dim_order_direction(a, GridCoord::new(3, 0)),
            Some(Direction::East)
        );
        assert_eq!(
            dim_order_direction(a, GridCoord::new(0, 3)),
            Some(Direction::West)
        );
        assert_eq!(
            dim_order_direction(a, GridCoord::new(1, 3)),
            Some(Direction::South)
        );
        assert_eq!(
            dim_order_direction(a, GridCoord::new(1, 0)),
            Some(Direction::North)
        );
        assert_eq!(dim_order_direction(a, a), None);
    }

    #[test]
    fn dim_order_matches_virtual_grid_next_hop() {
        let g = VirtualGrid::new(6);
        for from in g.nodes() {
            for to in g.nodes() {
                let expect = g.next_hop(from, to);
                let got = dim_order_direction(from, to).map(|d| g.neighbor(from, d).unwrap());
                assert_eq!(got, expect, "{from:?} -> {to:?}");
            }
        }
    }

    #[test]
    fn dir_idx_matches_all_order() {
        for (i, d) in Direction::ALL.iter().enumerate() {
            assert_eq!(dir_idx(*d), i);
        }
    }

    #[test]
    fn candidate_ordering_breaks_ties_by_id() {
        assert!(better_candidate((1.0, 5), (2.0, 1)));
        assert!(!better_candidate((2.0, 1), (1.0, 5)));
        assert!(better_candidate((1.0, 1), (1.0, 2)));
        assert!(!better_candidate((1.0, 2), (1.0, 2)));
    }
}
