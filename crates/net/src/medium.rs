//! The shared wireless medium.
//!
//! Node actors do not schedule kernel events at each other directly; they
//! go through the [`Medium`], which enforces the physical rules the paper
//! assumes:
//!
//! * only radio neighbors (unit-disk edges) can communicate;
//! * transmission is broadcast by nature — one transmission charges the
//!   sender once and every in-range receiver pays reception energy
//!   (the wireless broadcast advantage);
//! * latency follows the uniform cost model (ticks ∝ data units), plus
//!   optional uniform jitter so the asynchronous-delivery assumption of
//!   §4.3 ("latency of message delivery is unpredictable") is exercised;
//! * messages may be dropped with a configurable probability;
//! * dead nodes (failed or energy-depleted) neither send nor receive.
//!
//! The medium is shared among actors as `Rc<RefCell<_>>` — the kernel is
//! single-threaded, so this is safe and keeps actors free of locking.

use crate::energy::{EnergyKind, EnergyLedger};
use crate::graph::UnitDiskGraph;
use crate::radio::RadioModel;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use wsn_sim::{
    ActorId, BarrierReplay, CausalStamp, Context, OrderTap, Payload, Shared, SharedCausalLog,
    SimTime,
};

/// The payload of one delivery: a unicast's own message, or the one
/// payload a broadcast shares among its receivers.
enum Outgoing<'s, 'd, M> {
    Owned(M),
    Shared(&'s Shared<'d>),
}

impl<M: Payload + Clone> Outgoing<'_, '_, M> {
    /// A second copy for a chaos duplicate: a clone of an owned message,
    /// the same handle of a shared one.
    fn duplicate(&self) -> Self {
        match self {
            Outgoing::Owned(msg) => Outgoing::Owned(msg.clone()),
            Outgoing::Shared(shared) => Outgoing::Shared(shared),
        }
    }

    fn send(self, ctx: &mut Context<'_, M>, to: ActorId, delay: SimTime) {
        match self {
            Outgoing::Owned(msg) => ctx.send(to, delay, msg),
            Outgoing::Shared(shared) => ctx.send_shared(to, delay, shared),
        }
    }
}

/// Stochastic message duplication and reordering — the delivery anomalies
/// a chaos plan can switch on mid-run ([`crate::fault::FaultKind`]).
///
/// Duplication delivers a second copy of a successfully received message
/// a few ticks later; reordering adds bounded extra delay to a fraction of
/// deliveries so later sends can overtake earlier ones. Both default to
/// off and cost no RNG draws while off, so existing seeds replay
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryChaos {
    /// Probability that a delivered message is duplicated.
    pub dup_prob: f64,
    /// Probability that a delivery is held back for extra ticks.
    pub reorder_prob: f64,
    /// Maximum extra delay (uniform in `[1, max_extra_ticks]`) of a
    /// held-back delivery.
    pub reorder_max_extra_ticks: u64,
}

impl DeliveryChaos {
    /// No anomalies — the default.
    pub fn none() -> Self {
        DeliveryChaos {
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_max_extra_ticks: 0,
        }
    }

    fn is_off(&self) -> bool {
        self.dup_prob == 0.0 && self.reorder_prob == 0.0
    }
}

impl Default for DeliveryChaos {
    fn default() -> Self {
        DeliveryChaos::none()
    }
}

/// Channel-access discipline.
///
/// §2 of the paper: "the model could support synchronous algorithms
/// (e.g., TDMA), purely asynchronous message-passing paradigms, or a
/// combination of the two." [`MacModel::Ideal`] is the asynchronous
/// paradigm (transmit immediately); [`MacModel::Tdma`] defers every
/// transmission to the start of the sender's next slot, modeling a
/// synchronized, collision-free schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacModel {
    /// Transmit immediately (no channel-access delay).
    Ideal,
    /// Slotted access: node `i` owns slot `i mod frame_slots`; a frame is
    /// `frame_slots × slot_ticks` long, and a transmission waits for the
    /// start of the sender's next slot.
    Tdma {
        /// Slots per frame.
        frame_slots: u64,
        /// Ticks per slot.
        slot_ticks: u64,
    },
}

impl MacModel {
    /// Ticks node `sender` must wait at `now_ticks` before transmitting.
    pub fn access_delay(self, sender: usize, now_ticks: u64) -> u64 {
        match self {
            MacModel::Ideal => 0,
            MacModel::Tdma {
                frame_slots,
                slot_ticks,
            } => {
                assert!(frame_slots > 0 && slot_ticks > 0, "degenerate TDMA frame");
                let frame = frame_slots * slot_ticks;
                let my_slot_start = (sender as u64 % frame_slots) * slot_ticks;
                let pos = now_ticks % frame;
                if pos <= my_slot_start {
                    my_slot_start - pos
                } else {
                    frame - pos + my_slot_start
                }
            }
        }
    }
}

/// Stochastic link behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Independent per-delivery drop probability.
    pub drop_prob: f64,
    /// Maximum extra delivery delay, drawn uniformly from `[0, jitter]`.
    pub jitter_ticks: u64,
}

impl LinkModel {
    /// Perfect links: no loss, no jitter — the cost-model ideal.
    pub fn ideal() -> Self {
        LinkModel {
            drop_prob: 0.0,
            jitter_ticks: 0,
        }
    }

    /// Lossy links with the given drop probability and jitter bound.
    pub fn lossy(drop_prob: f64, jitter_ticks: u64) -> Self {
        assert!((0.0..=1.0).contains(&drop_prob), "drop_prob out of [0,1]");
        LinkModel {
            drop_prob,
            jitter_ticks,
        }
    }
}

/// The shared-state wireless medium.
pub struct Medium {
    graph: UnitDiskGraph,
    radio: RadioModel,
    link: LinkModel,
    mac: MacModel,
    ledger: EnergyLedger,
    alive: Vec<bool>,
    death_time: Vec<Option<SimTime>>,
    actor_of: Vec<Option<ActorId>>,
    /// Per-link drop-probability overrides, keyed by canonical (min, max)
    /// node pair; the effective drop rate is the max of this and the
    /// global link model (a chaos plan can ramp a link up, never repair it
    /// below the ambient loss).
    link_overrides: BTreeMap<(usize, usize), f64>,
    /// Partition group per node (0 = unassigned). Traffic between nodes in
    /// different non-zero groups is blocked.
    partition: Option<Vec<u8>>,
    /// Duplication / reordering anomalies.
    chaos: DeliveryChaos,
    /// Causal send/deliver event log, when causal tracing is enabled.
    causal: Option<SharedCausalLog>,
    /// A send event recorded by the caller for the very next
    /// transmission (see [`Medium::causal_send_stamp`]).
    prestamp: Option<CausalStamp>,
    /// Sharded-scheduler order tap: while it holds a live tag, energy
    /// charges are journaled instead of applied, so the f64 accumulation
    /// order can be replayed canonically at the window barrier
    /// (see [`Medium::apply_energy_journal`]).
    tap: Option<OrderTap>,
    /// Deferred charges `(window position, node, kind, units)` in append
    /// order.
    journal: Vec<(u32, usize, EnergyKind, f64)>,
}

/// Handle shared by all node actors in one simulation.
pub type SharedMedium = Rc<RefCell<Medium>>;

impl Medium {
    /// Creates a medium over `graph` with the given radio, link model and
    /// energy ledger (which must track exactly the graph's nodes).
    pub fn new(
        graph: UnitDiskGraph,
        radio: RadioModel,
        link: LinkModel,
        ledger: EnergyLedger,
    ) -> Self {
        assert_eq!(
            graph.node_count(),
            ledger.node_count(),
            "ledger population must match graph"
        );
        let n = graph.node_count();
        Medium {
            graph,
            radio,
            link,
            mac: MacModel::Ideal,
            ledger,
            alive: vec![true; n],
            death_time: vec![None; n],
            actor_of: vec![None; n],
            link_overrides: BTreeMap::new(),
            partition: None,
            chaos: DeliveryChaos::none(),
            causal: None,
            prestamp: None,
            tap: None,
            journal: Vec::new(),
        }
    }

    /// Number of physical nodes in the medium.
    pub fn node_count(&self) -> usize {
        self.alive.len()
    }

    /// Wraps a medium for sharing among actors.
    pub fn shared(self) -> SharedMedium {
        Rc::new(RefCell::new(self))
    }

    /// Associates physical node `node` with kernel actor `actor`.
    /// Must be called for every node before any traffic flows.
    pub fn bind_actor(&mut self, node: usize, actor: ActorId) {
        self.actor_of[node] = Some(actor);
    }

    /// The connectivity graph.
    pub fn graph(&self) -> &UnitDiskGraph {
        &self.graph
    }

    /// The radio model.
    pub fn radio(&self) -> &RadioModel {
        &self.radio
    }

    /// The current link model.
    pub fn link(&self) -> LinkModel {
        self.link
    }

    /// Replaces the link model mid-simulation (e.g. reliable control
    /// phases followed by a lossy application phase).
    pub fn set_link(&mut self, link: LinkModel) {
        self.link = link;
    }

    /// The channel-access discipline.
    pub fn mac(&self) -> MacModel {
        self.mac
    }

    /// Replaces the channel-access discipline.
    pub fn set_mac(&mut self, mac: MacModel) {
        self.mac = mac;
    }

    /// The energy ledger (read side).
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Raises the drop probability of the link `{a, b}` to `drop_prob`
    /// (both directions). Repeated calls at increasing probabilities model
    /// a loss ramp; [`Medium::restore_link`] removes the override.
    pub fn degrade_link(&mut self, a: usize, b: usize, drop_prob: f64) {
        let key = (a.min(b), a.max(b));
        self.link_overrides.insert(key, drop_prob);
    }

    /// Removes the per-link override of `{a, b}`, restoring the global
    /// link model.
    pub fn restore_link(&mut self, a: usize, b: usize) {
        let key = (a.min(b), a.max(b));
        self.link_overrides.remove(&key);
    }

    /// Splits the network: traffic between `group_a` and `group_b` is
    /// blocked (both directions) until [`Medium::heal_partition`]. Nodes
    /// in neither group keep talking to everyone.
    pub fn set_partition(&mut self, group_a: &[usize], group_b: &[usize]) {
        let mut groups = vec![0u8; self.alive.len()];
        for &n in group_a {
            groups[n] = 1;
        }
        for &n in group_b {
            groups[n] = 2;
        }
        self.partition = Some(groups);
    }

    /// Removes the partition, if one is active.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// Whether a partition currently blocks `from -> to`.
    pub fn partition_blocks(&self, from: usize, to: usize) -> bool {
        match &self.partition {
            None => false,
            Some(groups) => groups[from] != 0 && groups[to] != 0 && groups[from] != groups[to],
        }
    }

    /// Attaches a shared causal log: every subsequent transmission
    /// records a send event and every arrival a deliver event (at the
    /// scheduled delivery instant, linked to the send by sequence
    /// number).
    pub fn set_causal(&mut self, log: SharedCausalLog) {
        self.causal = Some(log);
    }

    /// The attached causal log, if tracing is enabled.
    pub fn causal_log(&self) -> Option<&SharedCausalLog> {
        self.causal.as_ref()
    }

    /// Records a send event on behalf of the caller and arms it for the
    /// next transmission, so the caller can copy the returned stamp into
    /// the message payload *before* handing it to
    /// [`Medium::unicast`]/[`Medium::broadcast`] (which would otherwise
    /// self-stamp with a generic label and no cause). Returns
    /// [`CausalStamp::NONE`] when causal tracing is off.
    pub fn causal_send_stamp(
        &mut self,
        from: usize,
        now: SimTime,
        cause: u64,
        label: &str,
        units: u64,
    ) -> CausalStamp {
        let Some(log) = &self.causal else {
            return CausalStamp::NONE;
        };
        let stamp = log.borrow_mut().record_send(from, now, cause, label, units);
        self.prestamp = Some(stamp);
        stamp
    }

    /// The stamp for the transmission happening right now: the armed
    /// pre-stamp if the caller recorded one, else a fresh generic send
    /// event (control traffic the application layer never stamps).
    fn tx_stamp(&mut self, from: usize, now: SimTime, units: u64) -> CausalStamp {
        if let Some(stamp) = self.prestamp.take() {
            return stamp;
        }
        match &self.causal {
            Some(log) => log.borrow_mut().record_send(from, now, 0, "net.tx", units),
            None => CausalStamp::NONE,
        }
    }

    /// Records the deliver event paired with `stamp` at arrival time
    /// `at`, reusing the send event's label so waterfalls read naturally.
    fn record_deliver(&self, at: SimTime, to: usize, stamp: CausalStamp, units: u64) {
        if let Some(log) = &self.causal {
            let mut log = log.borrow_mut();
            let label = if stamp.is_some() {
                log.events()[stamp.seq as usize - 1].label.clone()
            } else {
                "net.rx".to_string()
            };
            log.record_deliver(to, at, stamp, &label, units);
        }
    }

    /// Replaces the duplication/reordering anomaly model.
    pub fn set_delivery_chaos(&mut self, chaos: DeliveryChaos) {
        self.chaos = chaos;
    }

    /// The current duplication/reordering anomaly model.
    pub fn delivery_chaos(&self) -> DeliveryChaos {
        self.chaos
    }

    /// Connects the medium to the sharded scheduler's order tap. While
    /// the tap holds a window position, energy charges are journaled
    /// under that position instead of hitting the ledger, because f64
    /// accumulation is order-sensitive and shard processing order differs
    /// from the sequential dispatch order. The runtime only engages
    /// sharded execution on unlimited ledgers, so deferring charges
    /// cannot change depletion behavior.
    pub fn set_order_tap(&mut self, tap: OrderTap) {
        self.tap = Some(tap);
    }

    /// Replays all journaled charges into the ledger in canonical window
    /// order (`order` is the scheduler's barrier-hook order; each
    /// dispatch's charges keep their append order). Called once per
    /// window barrier.
    pub fn apply_energy_journal(&mut self, order: &[u32], replay: &mut BarrierReplay) {
        if self.journal.is_empty() {
            return;
        }
        let (journal, ledger) = (&self.journal, &mut self.ledger);
        replay.replay(order, journal.iter().map(|&(pos, ..)| pos), |i| {
            let (_, node, kind, units) = journal[i];
            ledger.charge(node, kind, units);
        });
        self.journal.clear();
    }

    /// Charges the ledger directly, or journals the charge when a sharded
    /// window is in progress (see [`Medium::set_order_tap`]).
    fn charge_energy(&mut self, node: usize, kind: EnergyKind, units: f64) {
        match self.tap.as_ref().and_then(|t| t.get()) {
            None => self.ledger.charge(node, kind, units),
            Some(pos) => self.journal.push((pos, node, kind, units)),
        }
    }

    /// Instantly burns `units` of compute energy from `node` (a chaos
    /// energy shock), killing it if its budget runs out. A no-op on
    /// unlimited ledgers beyond the accounting entry.
    pub fn drain_energy(&mut self, node: usize, units: f64, now: SimTime) {
        self.charge_energy(node, EnergyKind::Compute, units);
        self.check_depletion(node, now);
    }

    /// The effective drop probability of `from -> to`: the global link
    /// model, raised by any per-link override.
    fn effective_drop(&self, from: usize, to: usize) -> f64 {
        let key = (from.min(to), from.max(to));
        match self.link_overrides.get(&key) {
            Some(&p) => p.max(self.link.drop_prob),
            None => self.link.drop_prob,
        }
    }

    /// Whether `node` is alive (not failed, not depleted).
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// Marks `node` dead at `now` (fault injection or budget depletion).
    pub fn kill(&mut self, node: usize, now: SimTime) {
        if self.alive[node] {
            self.alive[node] = false;
            self.death_time[node] = Some(now);
        }
    }

    /// Brings `node` (back) to life — §5.1's "new nodes can be added to
    /// the network", modeled as pre-deployed nodes waking up. A node that
    /// died of budget depletion stays dead (its ledger is still empty).
    pub fn wake(&mut self, node: usize) -> bool {
        if self.ledger.is_depleted(node) {
            return false;
        }
        self.alive[node] = true;
        self.death_time[node] = None;
        true
    }

    /// When `node` died, if it did.
    pub fn death_time(&self, node: usize) -> Option<SimTime> {
        self.death_time[node]
    }

    /// Earliest death in the network — the "system lifetime" under the
    /// first-node-death definition.
    pub fn first_death(&self) -> Option<SimTime> {
        self.death_time.iter().flatten().min().copied()
    }

    /// Charges computation energy to `node` (e.g. a merge over `units` of
    /// data), killing it if the budget runs out.
    pub fn charge_compute<M: Payload>(
        &mut self,
        ctx: &mut Context<'_, M>,
        node: usize,
        units: f64,
    ) {
        self.charge_energy(
            node,
            EnergyKind::Compute,
            units * self.radio.compute_energy_per_unit,
        );
        ctx.stats().incr("medium.compute");
        self.check_depletion(node, ctx.now());
    }

    fn check_depletion(&mut self, node: usize, now: SimTime) {
        if self.ledger.is_depleted(node) {
            self.kill(node, now);
        }
    }

    fn delivery_delay<M: Payload>(
        &self,
        ctx: &mut Context<'_, M>,
        from: usize,
        units: u64,
    ) -> SimTime {
        let access = self.mac.access_delay(from, ctx.now().ticks());
        let base = self.radio.tx_ticks(units);
        let jitter = if self.link.jitter_ticks == 0 {
            0
        } else {
            ctx.rng().bounded_u64(self.link.jitter_ticks + 1)
        };
        SimTime::from_ticks(access + base + jitter)
    }

    /// Attempts delivery of one already-transmitted copy to `to`: loss,
    /// partition and liveness checks, reception energy, and the optional
    /// chaos anomalies (reorder delay, duplicated copy). Returns whether
    /// the primary copy was delivered.
    fn try_deliver<M: Payload + Clone>(
        &mut self,
        ctx: &mut Context<'_, M>,
        from: usize,
        to: usize,
        units: u64,
        msg: Outgoing<'_, '_, M>,
        stamp: CausalStamp,
    ) -> bool {
        if self.partition_blocks(from, to) {
            ctx.stats().incr("medium.partition_blocked");
            ctx.stats().incr("medium.dropped");
            return false;
        }
        if !self.alive[to] || ctx.rng().chance(self.effective_drop(from, to)) {
            ctx.stats().incr("medium.dropped");
            return false;
        }
        self.charge_energy(
            to,
            EnergyKind::Rx,
            units as f64 * self.radio.rx_energy_per_unit,
        );
        self.check_depletion(to, ctx.now());
        ctx.stats().incr("medium.delivered");
        let mut delay = self.delivery_delay(ctx, from, units);
        let actor = self.actor_of[to].expect("destination node has no bound actor");
        if self.chaos.is_off() {
            self.record_deliver(ctx.now() + delay, to, stamp, units);
            msg.send(ctx, actor, delay);
            return true;
        }
        if self.chaos.reorder_prob > 0.0
            && self.chaos.reorder_max_extra_ticks > 0
            && ctx.rng().chance(self.chaos.reorder_prob)
        {
            delay = delay + 1 + ctx.rng().bounded_u64(self.chaos.reorder_max_extra_ticks);
            ctx.stats().incr("medium.reordered");
        }
        if self.chaos.dup_prob > 0.0 && ctx.rng().chance(self.chaos.dup_prob) {
            // The duplicate is a second physical reception: it pays rx
            // energy and lands a few ticks after the original.
            self.charge_energy(
                to,
                EnergyKind::Rx,
                units as f64 * self.radio.rx_energy_per_unit,
            );
            self.check_depletion(to, ctx.now());
            let dup_delay = delay + 1 + ctx.rng().bounded_u64(4);
            ctx.stats().incr("medium.duplicated");
            self.record_deliver(ctx.now() + dup_delay, to, stamp, units);
            msg.duplicate().send(ctx, actor, dup_delay);
        }
        self.record_deliver(ctx.now() + delay, to, stamp, units);
        msg.send(ctx, actor, delay);
        true
    }

    /// Sends `msg` from `from` to radio neighbor `to` carrying `units` of
    /// data. Returns `true` when the message was put on the air *and*
    /// survived the loss process (the sender cannot observe the
    /// difference; the return value is for harness bookkeeping only).
    ///
    /// Panics if `to` is not a radio neighbor of `from` — protocols built
    /// on the virtual architecture must route hop by hop.
    pub fn unicast<M: Payload + Clone>(
        &mut self,
        ctx: &mut Context<'_, M>,
        from: usize,
        to: usize,
        units: u64,
        msg: M,
    ) -> bool {
        assert!(
            self.graph.are_neighbors(from, to),
            "unicast {from}->{to}: not radio neighbors"
        );
        if !self.alive[from] {
            self.prestamp = None;
            return false;
        }
        self.charge_energy(
            from,
            EnergyKind::Tx,
            units as f64 * self.radio.tx_energy_per_unit,
        );
        ctx.stats().incr("medium.tx");
        ctx.stats().add("medium.tx_units", units);
        self.check_depletion(from, ctx.now());
        let stamp = self.tx_stamp(from, ctx.now(), units);
        self.try_deliver(ctx, from, to, units, Outgoing::Owned(msg), stamp)
    }

    /// Broadcasts `msg` from `from` to *all* its radio neighbors with one
    /// transmission (one tx charge; each live receiver pays rx). The
    /// kernel stores the payload once for every receiver. Returns the
    /// number of neighbors that actually received it.
    pub fn broadcast<M: Payload + Clone>(
        &mut self,
        ctx: &mut Context<'_, M>,
        from: usize,
        units: u64,
        msg: M,
    ) -> usize {
        if !self.alive[from] {
            self.prestamp = None;
            return 0;
        }
        self.charge_energy(
            from,
            EnergyKind::Tx,
            units as f64 * self.radio.tx_energy_per_unit,
        );
        ctx.stats().incr("medium.tx");
        ctx.stats().add("medium.tx_units", units);
        self.check_depletion(from, ctx.now());

        let stamp = self.tx_stamp(from, ctx.now(), units);
        let shared = ctx.share(msg);
        let mut delivered = 0;
        for i in 0..self.graph.neighbors(from).len() {
            let to = self.graph.neighbors(from)[i];
            if self.try_deliver(ctx, from, to, units, Outgoing::Shared(&shared), stamp) {
                delivered += 1;
            }
        }
        delivered
    }
}

#[cfg(test)]
mod mac_tests {
    use super::*;

    #[test]
    fn ideal_mac_never_waits() {
        for t in [0u64, 5, 99] {
            assert_eq!(MacModel::Ideal.access_delay(3, t), 0);
        }
    }

    #[test]
    fn tdma_waits_for_own_slot() {
        let mac = MacModel::Tdma {
            frame_slots: 4,
            slot_ticks: 2,
        }; // frame = 8
           // Node 0 owns [0,2), node 1 [2,4), node 2 [4,6), node 3 [6,8).
        assert_eq!(mac.access_delay(0, 0), 0);
        assert_eq!(mac.access_delay(1, 0), 2);
        assert_eq!(mac.access_delay(3, 0), 6);
        // Mid-frame: node 0 at t=1 is inside... access at slot *start*:
        // pos=1 > start=0 → wait to next frame start = 7.
        assert_eq!(mac.access_delay(0, 1), 7);
        assert_eq!(mac.access_delay(2, 3), 1);
        assert_eq!(mac.access_delay(2, 4), 0);
        assert_eq!(mac.access_delay(2, 5), 7);
        // Slot ownership wraps by node id.
        assert_eq!(mac.access_delay(4, 0), 0);
        assert_eq!(mac.access_delay(5, 0), 2);
    }

    #[test]
    fn tdma_delay_is_bounded_by_frame() {
        let mac = MacModel::Tdma {
            frame_slots: 8,
            slot_ticks: 3,
        };
        for sender in 0..20 {
            for now in 0..50 {
                assert!(mac.access_delay(sender, now) < 24);
            }
        }
    }

    #[test]
    #[should_panic(expected = "degenerate TDMA")]
    fn zero_slot_frame_panics() {
        MacModel::Tdma {
            frame_slots: 0,
            slot_ticks: 1,
        }
        .access_delay(0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use wsn_sim::{Actor, Kernel};

    /// Message: just the hop count so far.
    type Msg = u32;

    struct Node {
        phys: usize,
        medium: SharedMedium,
        forward_to: Option<usize>,
        received: Vec<Msg>,
    }

    impl Actor<Msg> for Node {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: ActorId, msg: Msg) {
            self.received.push(msg);
            if let Some(next) = self.forward_to {
                self.medium
                    .clone()
                    .borrow_mut()
                    .unicast(ctx, self.phys, next, 2, msg + 1);
            }
        }
    }

    fn three_node_line() -> (Kernel<Msg>, SharedMedium, Vec<ActorId>) {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        let graph = UnitDiskGraph::build(&pts, 1.0);
        let medium = Medium::new(
            graph,
            RadioModel::uniform(1.0),
            LinkModel::ideal(),
            EnergyLedger::unlimited(3),
        )
        .shared();
        let mut k: Kernel<Msg> = Kernel::new(7);
        let mut actors = Vec::new();
        for phys in 0..3 {
            let forward_to = if phys < 2 { Some(phys + 1) } else { None };
            let a = k.add_actor(Box::new(Node {
                phys,
                medium: medium.clone(),
                forward_to,
                received: vec![],
            }));
            medium.borrow_mut().bind_actor(phys, a);
            actors.push(a);
        }
        (k, medium, actors)
    }

    #[test]
    fn unicast_chain_delivers_and_charges() {
        let (mut k, medium, actors) = three_node_line();
        // Kick node 0 with an external message; it forwards 0->1->2.
        k.schedule_message(SimTime::ZERO, actors[0], actors[0], 0);
        k.run();
        let n2: &Node = k.actor(actors[2]).unwrap();
        assert_eq!(n2.received, vec![2]);
        let m = medium.borrow();
        // node0: tx 2 units; node1: rx 2 + tx 2; node2: rx 2.
        assert_eq!(m.ledger().consumed(0), 2.0);
        assert_eq!(m.ledger().consumed(1), 4.0);
        assert_eq!(m.ledger().consumed(2), 2.0);
        // Latency: 2 ticks per hop, 2 hops (delivery of the kick is at t=0).
        assert_eq!(k.now(), SimTime::from_ticks(4));
    }

    #[test]
    fn causal_log_pairs_every_delivery_with_its_send() {
        use wsn_sim::{shared_causal_log, CausalKind};
        let (mut k, medium, actors) = three_node_line();
        let log = shared_causal_log();
        medium.borrow_mut().set_causal(log.clone());
        k.schedule_message(SimTime::ZERO, actors[0], actors[0], 0);
        k.run();
        let log = log.borrow();
        // Two hops: send+deliver per hop, plus the kick is not a medium
        // transmission and records nothing.
        let sends: Vec<_> = log
            .events()
            .iter()
            .filter(|e| e.kind == CausalKind::Send)
            .collect();
        let delivers: Vec<_> = log
            .events()
            .iter()
            .filter(|e| e.kind == CausalKind::Deliver)
            .collect();
        assert_eq!(sends.len(), 2);
        assert_eq!(delivers.len(), 2);
        for d in &delivers {
            let s = &log.events()[d.cause as usize - 1];
            assert_eq!(s.kind, CausalKind::Send);
            assert!(d.lamport > s.lamport);
            // The deliver is recorded at the arrival instant: exactly
            // tx_ticks(2 units) = 2 ticks after the send.
            assert_eq!(d.time - s.time, 2);
            assert_eq!(d.units, s.units);
        }
        // Un-prestamped medium traffic self-stamps with the generic label.
        assert!(sends.iter().all(|s| s.label == "net.tx"));
    }

    #[test]
    fn dead_sender_clears_an_armed_prestamp() {
        use wsn_sim::{shared_causal_log, CausalKind};
        let (mut k, medium, actors) = three_node_line();
        let log = shared_causal_log();
        medium.borrow_mut().set_causal(log.clone());
        medium.borrow_mut().kill(0, SimTime::ZERO);
        // Arm a prestamp for node 0, whose transmission then fails: the
        // stamp must not leak onto node 1's later unrelated send.
        medium
            .borrow_mut()
            .causal_send_stamp(0, SimTime::ZERO, 0, "app.hop", 2);
        struct Kick {
            medium: SharedMedium,
            from: usize,
            to: usize,
        }
        impl Actor<Msg> for Kick {
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ActorId, msg: Msg) {
                self.medium
                    .clone()
                    .borrow_mut()
                    .unicast(ctx, self.from, self.to, 1, msg);
            }
        }
        let k0 = k.add_actor(Box::new(Kick {
            medium: medium.clone(),
            from: 0,
            to: 1,
        }));
        let k1 = k.add_actor(Box::new(Kick {
            medium: medium.clone(),
            from: 1,
            to: 2,
        }));
        k.schedule_message(SimTime::ZERO, k0, k0, 0);
        k.schedule_message(SimTime::from_ticks(1), k1, k1, 0);
        k.run();
        let _ = actors;
        let log = log.borrow();
        let sends: Vec<_> = log
            .events()
            .iter()
            .filter(|e| e.kind == CausalKind::Send)
            .collect();
        // The armed app.hop stamp (dead sender) plus node 1's generic one.
        assert_eq!(sends.len(), 2);
        let live = sends.iter().find(|s| s.node == 1).unwrap();
        assert_eq!(live.label, "net.tx", "prestamp did not leak");
    }

    #[test]
    #[should_panic(expected = "not radio neighbors")]
    fn unicast_beyond_range_panics() {
        let (mut k, medium, actors) = three_node_line();
        struct Bad {
            medium: SharedMedium,
        }
        impl Actor<Msg> for Bad {
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ActorId, _: Msg) {
                self.medium.clone().borrow_mut().unicast(ctx, 0, 2, 1, 0);
            }
        }
        let bad = k.add_actor(Box::new(Bad {
            medium: medium.clone(),
        }));
        let _ = actors;
        k.schedule_message(SimTime::ZERO, bad, bad, 0);
        k.run();
    }

    #[test]
    fn broadcast_charges_tx_once() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
        ];
        let graph = UnitDiskGraph::build(&pts, 1.5);
        let medium = Medium::new(
            graph,
            RadioModel::uniform(1.5),
            LinkModel::ideal(),
            EnergyLedger::unlimited(4),
        )
        .shared();

        struct Caster {
            medium: SharedMedium,
            received: u32,
        }
        impl Actor<Msg> for Caster {
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ActorId, msg: Msg) {
                if msg == 100 {
                    let delivered = self.medium.clone().borrow_mut().broadcast(ctx, 0, 3, 1);
                    assert_eq!(delivered, 3);
                } else {
                    self.received += 1;
                }
            }
        }
        let mut k: Kernel<Msg> = Kernel::new(9);
        let mut actors = Vec::new();
        for phys in 0..4 {
            let a = k.add_actor(Box::new(Caster {
                medium: medium.clone(),
                received: 0,
            }));
            medium.borrow_mut().bind_actor(phys, a);
            actors.push(a);
        }
        k.schedule_message(SimTime::ZERO, actors[0], actors[0], 100);
        k.run();
        let m = medium.borrow();
        assert_eq!(
            m.ledger().consumed_kind(0, EnergyKind::Tx),
            3.0,
            "one tx charge"
        );
        for (phys, &actor) in actors.iter().enumerate().skip(1) {
            assert_eq!(m.ledger().consumed_kind(phys, EnergyKind::Rx), 3.0);
            let c: &Caster = k.actor(actor).unwrap();
            assert_eq!(c.received, 1);
        }
        assert_eq!(k.stats().counter("medium.tx"), 1);
        assert_eq!(k.stats().counter("medium.delivered"), 3);
    }

    #[test]
    fn dead_nodes_neither_send_nor_receive() {
        let (mut k, medium, actors) = three_node_line();
        medium.borrow_mut().kill(1, SimTime::ZERO);
        k.schedule_message(SimTime::ZERO, actors[0], actors[0], 0);
        k.run();
        let n1: &Node = k.actor(actors[1]).unwrap();
        let n2: &Node = k.actor(actors[2]).unwrap();
        assert!(n1.received.is_empty());
        assert!(n2.received.is_empty());
        assert_eq!(medium.borrow().first_death(), Some(SimTime::ZERO));
    }

    #[test]
    fn wake_revives_killed_but_not_depleted_nodes() {
        let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let graph = UnitDiskGraph::build(&pts, 1.0);
        let mut m = Medium::new(
            graph,
            RadioModel::uniform(1.0),
            LinkModel::ideal(),
            EnergyLedger::with_budget(2, 5.0),
        );
        m.kill(0, SimTime::from_ticks(3));
        assert!(!m.is_alive(0));
        assert!(m.wake(0), "fault-killed node revives");
        assert!(m.is_alive(0));
        assert_eq!(m.death_time(0), None);
        // Deplete node 1: wake must refuse.
        m.ledger.charge(1, EnergyKind::Tx, 6.0);
        m.kill(1, SimTime::from_ticks(5));
        assert!(!m.wake(1), "depleted node stays dead");
        assert!(!m.is_alive(1));
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let graph = UnitDiskGraph::build(&pts, 1.0);
        let medium = Medium::new(
            graph,
            RadioModel::uniform(1.0),
            LinkModel::lossy(0.3, 0),
            EnergyLedger::unlimited(2),
        )
        .shared();
        struct Spammer {
            medium: SharedMedium,
        }
        impl Actor<Msg> for Spammer {
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
                self.medium.clone().borrow_mut().unicast(ctx, 0, 1, 1, 0);
                if tag > 0 {
                    ctx.set_timer(1, tag - 1);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ActorId, _: Msg) {}
        }
        struct Sink {
            received: u32,
        }
        impl Actor<Msg> for Sink {
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ActorId, _: Msg) {
                self.received += 1;
            }
        }
        let mut k: Kernel<Msg> = Kernel::new(5);
        let s = k.add_actor(Box::new(Spammer {
            medium: medium.clone(),
        }));
        let r = k.add_actor(Box::new(Sink { received: 0 }));
        medium.borrow_mut().bind_actor(0, s);
        medium.borrow_mut().bind_actor(1, r);
        k.schedule_timer(SimTime::ZERO, s, 999);
        k.run();
        let sink: &Sink = k.actor(r).unwrap();
        let rate = f64::from(sink.received) / 1000.0;
        assert!(
            (rate - 0.7).abs() < 0.05,
            "delivery rate {rate} too far from 0.7"
        );
        assert_eq!(
            k.stats().counter("medium.dropped") + u64::from(sink.received),
            1000
        );
    }

    #[test]
    fn budget_depletion_kills_sender() {
        let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let graph = UnitDiskGraph::build(&pts, 1.0);
        let medium = Medium::new(
            graph,
            RadioModel::uniform(1.0),
            LinkModel::ideal(),
            EnergyLedger::with_budget(2, 5.0),
        )
        .shared();
        struct Burner {
            medium: SharedMedium,
        }
        impl Actor<Msg> for Burner {
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
                self.medium.clone().borrow_mut().unicast(ctx, 0, 1, 3, 0);
                if tag > 0 {
                    ctx.set_timer(1, tag - 1);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ActorId, _: Msg) {}
        }
        struct Quiet;
        impl Actor<Msg> for Quiet {
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ActorId, _: Msg) {}
        }
        let mut k: Kernel<Msg> = Kernel::new(5);
        let b = k.add_actor(Box::new(Burner {
            medium: medium.clone(),
        }));
        let q = k.add_actor(Box::new(Quiet));
        medium.borrow_mut().bind_actor(0, b);
        medium.borrow_mut().bind_actor(1, q);
        k.schedule_timer(SimTime::ZERO, b, 10);
        k.run();
        let m = medium.borrow();
        assert!(
            !m.is_alive(0),
            "sender should deplete after 2 sends of 3 units"
        );
        assert!(m.first_death().is_some());
        // Exactly two transmissions spent energy (6 > 5).
        assert_eq!(m.ledger().consumed_kind(0, EnergyKind::Tx), 6.0);
    }

    /// One actor that unicasts 0->1 when kicked; node 1's actor records
    /// arrival times. Shared scaffolding for the chaos-knob tests.
    struct Pitcher {
        medium: SharedMedium,
    }
    impl Actor<Msg> for Pitcher {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ActorId, msg: Msg) {
            self.medium.clone().borrow_mut().unicast(ctx, 0, 1, 1, msg);
        }
    }
    struct Catcher {
        arrivals: Vec<(u64, Msg)>,
    }
    impl Actor<Msg> for Catcher {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ActorId, msg: Msg) {
            self.arrivals.push((ctx.now().ticks(), msg));
        }
    }

    fn pitcher_catcher(link: LinkModel) -> (Kernel<Msg>, SharedMedium, ActorId, ActorId) {
        let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let graph = UnitDiskGraph::build(&pts, 1.0);
        let medium = Medium::new(
            graph,
            RadioModel::uniform(1.0),
            link,
            EnergyLedger::unlimited(2),
        )
        .shared();
        let mut k: Kernel<Msg> = Kernel::new(21);
        let p = k.add_actor(Box::new(Pitcher {
            medium: medium.clone(),
        }));
        let c = k.add_actor(Box::new(Catcher { arrivals: vec![] }));
        medium.borrow_mut().bind_actor(0, p);
        medium.borrow_mut().bind_actor(1, c);
        (k, medium, p, c)
    }

    #[test]
    fn degraded_link_overrides_base_loss_until_restored() {
        let (mut k, medium, p, c) = pitcher_catcher(LinkModel::ideal());
        medium.borrow_mut().degrade_link(1, 0, 1.0);
        k.schedule_message(SimTime::ZERO, p, p, 1);
        k.run();
        assert_eq!(k.stats().counter("medium.dropped"), 1);
        medium.borrow_mut().restore_link(0, 1);
        k.schedule_message(k.now(), p, p, 2);
        k.run();
        let catcher: &Catcher = k.actor(c).unwrap();
        assert_eq!(catcher.arrivals.len(), 1);
        assert_eq!(catcher.arrivals[0].1, 2);
    }

    #[test]
    fn partition_blocks_cross_group_traffic_until_healed() {
        let (mut k, medium, p, c) = pitcher_catcher(LinkModel::ideal());
        medium.borrow_mut().set_partition(&[0], &[1]);
        assert!(medium.borrow().partition_blocks(0, 1));
        assert!(medium.borrow().partition_blocks(1, 0));
        k.schedule_message(SimTime::ZERO, p, p, 1);
        k.run();
        assert_eq!(k.stats().counter("medium.partition_blocked"), 1);
        let blocked = {
            let catcher: &Catcher = k.actor(c).unwrap();
            catcher.arrivals.len()
        };
        assert_eq!(blocked, 0);
        medium.borrow_mut().heal_partition();
        assert!(!medium.borrow().partition_blocks(0, 1));
        k.schedule_message(k.now(), p, p, 2);
        k.run();
        let catcher: &Catcher = k.actor(c).unwrap();
        assert_eq!(catcher.arrivals.len(), 1);
    }

    #[test]
    fn duplication_chaos_delivers_extra_copies_and_charges_rx() {
        let (mut k, medium, p, c) = pitcher_catcher(LinkModel::ideal());
        medium.borrow_mut().set_delivery_chaos(DeliveryChaos {
            dup_prob: 1.0,
            reorder_prob: 0.0,
            reorder_max_extra_ticks: 0,
        });
        k.schedule_message(SimTime::ZERO, p, p, 7);
        k.run();
        let catcher: &Catcher = k.actor(c).unwrap();
        assert_eq!(catcher.arrivals.len(), 2, "original plus duplicate");
        assert!(catcher.arrivals.iter().all(|&(_, m)| m == 7));
        assert_eq!(k.stats().counter("medium.duplicated"), 1);
        // Two receptions → double rx energy for the 1-unit payload.
        assert_eq!(
            medium.borrow().ledger().consumed_kind(1, EnergyKind::Rx),
            2.0
        );
    }

    #[test]
    fn reordering_chaos_adds_bounded_extra_delay() {
        let (mut k, medium, p, c) = pitcher_catcher(LinkModel::ideal());
        medium.borrow_mut().set_delivery_chaos(DeliveryChaos {
            dup_prob: 0.0,
            reorder_prob: 1.0,
            reorder_max_extra_ticks: 5,
        });
        k.schedule_message(SimTime::ZERO, p, p, 3);
        k.run();
        let catcher: &Catcher = k.actor(c).unwrap();
        assert_eq!(catcher.arrivals.len(), 1);
        let tick = catcher.arrivals[0].0;
        // Baseline delivery is 1 tick (1 unit, ideal link); extra is in
        // [1, 1 + 5].
        assert!(
            (2..=7).contains(&tick),
            "reordered arrival at tick {tick} outside bound"
        );
        assert_eq!(k.stats().counter("medium.reordered"), 1);
    }

    #[test]
    fn chaos_off_draws_no_extra_randomness() {
        // Bit-identical arrivals with chaos explicitly set to none() vs
        // never touched: the gate must not consume RNG words.
        let run = |set_none: bool| {
            let (mut k, medium, p, c) = pitcher_catcher(LinkModel::lossy(0.3, 2));
            if set_none {
                medium
                    .borrow_mut()
                    .set_delivery_chaos(DeliveryChaos::none());
            }
            for i in 0..20u64 {
                k.schedule_message(SimTime::from_ticks(i * 10), p, p, i as Msg);
            }
            k.run();
            let catcher: &Catcher = k.actor(c).unwrap();
            catcher.arrivals.clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn drain_energy_shock_can_deplete_a_node() {
        let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let graph = UnitDiskGraph::build(&pts, 1.0);
        let mut m = Medium::new(
            graph,
            RadioModel::uniform(1.0),
            LinkModel::ideal(),
            EnergyLedger::with_budget(2, 5.0),
        );
        m.drain_energy(0, 2.0, SimTime::from_ticks(1));
        assert!(m.is_alive(0), "partial drain leaves the node up");
        m.drain_energy(0, 4.0, SimTime::from_ticks(2));
        assert!(!m.is_alive(0), "budget exhausted by the shock");
        assert_eq!(m.death_time(0), Some(SimTime::from_ticks(2)));
        assert!(!m.wake(0), "depleted nodes stay dead");
    }

    /// Charges node 0 of `medium` with `units`, in order, on every timer.
    struct Charger {
        medium: SharedMedium,
        units: Vec<f64>,
    }

    impl Actor<Msg> for Charger {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ActorId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _tag: u64) {
            for &u in &self.units {
                self.medium.borrow_mut().drain_energy(0, u, ctx.now());
            }
        }
    }

    #[test]
    fn journaled_charges_replay_in_canonical_order() {
        // Two same-tick dispatches charge node 0: actor 1 charges 0.1
        // first in sequential order, then actor 0 charges 0.2 and 0.3.
        // Shard processing runs actor 0 first, and f64 addition does not
        // associate: (0.1 + 0.2) + 0.3 != (0.2 + 0.3) + 0.1.
        let run = |sharded: bool| {
            let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
            let medium = Medium::new(
                UnitDiskGraph::build(&pts, 1.0),
                RadioModel::uniform(1.0),
                LinkModel::ideal(),
                EnergyLedger::unlimited(2),
            )
            .shared();
            let mut k: Kernel<Msg> = Kernel::new(1);
            for units in [vec![0.2, 0.3], vec![0.1]] {
                k.add_actor(Box::new(Charger {
                    medium: medium.clone(),
                    units,
                }));
            }
            k.schedule_timer(SimTime::from_ticks(1), 1, 0);
            k.schedule_timer(SimTime::from_ticks(1), 0, 0);
            if sharded {
                let tap = wsn_sim::order_tap();
                medium.borrow_mut().set_order_tap(tap.clone());
                let schedule = wsn_sim::ShardSchedule::new(vec![0, 1], 2);
                let mut replay = wsn_sim::BarrierReplay::default();
                k.run_sharded(
                    &schedule,
                    Some(&tap),
                    |order| medium.borrow_mut().apply_energy_journal(order, &mut replay),
                    None,
                );
            } else {
                k.run();
            }
            let consumed = medium.borrow().ledger().consumed(0);
            consumed
        };
        let sequential = run(false);
        assert_eq!(sequential.to_bits(), ((0.1 + 0.2) + 0.3f64).to_bits());
        assert_ne!(sequential.to_bits(), ((0.2 + 0.3) + 0.1f64).to_bits());
        assert_eq!(run(true).to_bits(), sequential.to_bits());
    }
}
