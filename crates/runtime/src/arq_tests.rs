//! ARQ edge cases exercised on a hand-built two-node cell: retry
//! exhaustion, duplicate-data/duplicate-ack idempotence, and timeouts
//! against a peer that died with the packet in the air.

use crate::messages::{AppEnvelope, RtMsg};
use crate::node::{ArqConfig, ElectionPolicy, Phase, RtNode, RtShared};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use wsn_core::{GridCoord, NodeApi, NodeProgram, VirtualGrid};
use wsn_net::{
    DeliveryChaos, EnergyLedger, LinkModel, Medium, Point, RadioModel, SharedMedium, UnitDiskGraph,
};
use wsn_sim::{Kernel, SimTime};

/// A program that ignores what it receives; the runtime counts each
/// delivery to it in `rt.delivered`.
struct Ignore;
impl NodeProgram<f64> for Ignore {
    fn on_init(&mut self, _api: &mut dyn NodeApi<f64>) {}
    fn on_receive(&mut self, _api: &mut dyn NodeApi<f64>, _from: GridCoord, _payload: f64) {}
}

/// Node 0 is a follower whose spanning-tree parent is node 1, the cell
/// leader running [`Ignore`]. The runtime uses `cfg` for ARQ.
fn two_node_arq(cfg: ArqConfig) -> (Kernel<RtMsg<f64>>, SharedMedium) {
    let pts = [Point::new(0.2, 0.5), Point::new(0.8, 0.5)];
    let graph = UnitDiskGraph::build(&pts, 1.0);
    let medium = Medium::new(
        graph,
        RadioModel::uniform(1.0),
        LinkModel::ideal(),
        EnergyLedger::unlimited(2),
    )
    .shared();
    let cell = GridCoord::new(0, 0);
    let shared = Rc::new(RtShared::<f64> {
        grid: VirtualGrid::new(1),
        field: Box::new(|_| 0.0),
        cells: vec![cell; pts.len()],
        control_units: 1,
        election_policy: Cell::new(ElectionPolicy::default()),
        arq: Cell::new(Some(cfg)),
        heartbeat: Cell::new(None),
        exfil: RefCell::new(Vec::new()),
        tap: RefCell::new(None),
        staged_exfil: RefCell::new(Vec::new()),
    });
    let mut k: Kernel<RtMsg<f64>> = Kernel::new(3);
    for (i, &pt) in pts.iter().enumerate() {
        let node = RtNode::new(
            i,
            cell,
            pt,
            Point::new(0.5, 0.5),
            medium.clone(),
            shared.clone(),
        );
        let a = k.add_actor(Box::new(node));
        medium.borrow_mut().bind_actor(i, a);
    }
    let follower = k.actor_mut::<RtNode<f64>>(0).unwrap();
    follower.phase = Phase::App;
    follower.parent_to_leader = Some(1);
    let leader = k.actor_mut::<RtNode<f64>>(1).unwrap();
    leader.phase = Phase::App;
    leader.ldr = true;
    leader.program = Some(Box::new(Ignore));
    (k, medium)
}

fn envelope() -> AppEnvelope<f64> {
    AppEnvelope {
        src_cell: GridCoord::new(0, 0),
        dest_cell: GridCoord::new(0, 0),
        units: 1,
        round: 0,
        origin: 0,
        msg_id: 1,
        stamp: wsn_sim::CausalStamp::NONE,
        payload: 2.5,
    }
}

#[test]
fn retry_exhaustion_stops_at_max_retries() {
    let cfg = ArqConfig {
        max_retries: 3,
        timeout_ticks: 8,
    };
    let (mut k, medium) = two_node_arq(cfg);
    // The parent is dead from the start: every transmission is lost.
    medium.borrow_mut().kill(1, SimTime::ZERO);
    k.schedule_message(SimTime::ZERO, 0, 0, RtMsg::App(envelope()));
    k.run();
    // Exactly max_retries retransmissions, then one give-up; the timer
    // chain terminates (the run drained without a livelock).
    assert_eq!(k.stats().counter("rt.arq_retx"), 3);
    assert_eq!(k.stats().counter("rt.arq_gave_up"), 1);
    assert_eq!(k.stats().counter("rt.delivered"), 0);
    assert_eq!(k.pending_events(), 0);
}

#[test]
fn duplicate_data_and_duplicate_acks_are_idempotent() {
    let cfg = ArqConfig {
        max_retries: 3,
        timeout_ticks: 50,
    };
    let (mut k, medium) = two_node_arq(cfg);
    // Every delivery is duplicated: the data hop arrives twice and each
    // resulting ack arrives twice.
    medium.borrow_mut().set_delivery_chaos(DeliveryChaos {
        dup_prob: 1.0,
        reorder_prob: 0.0,
        reorder_max_extra_ticks: 0,
    });
    k.schedule_message(SimTime::ZERO, 0, 0, RtMsg::App(envelope()));
    k.run();
    // The leader acked both copies but delivered exactly once.
    assert_eq!(k.stats().counter("rt.delivered"), 1);
    assert_eq!(k.stats().counter("rt.arq_dup"), 1);
    // Redundant acks removed an already-absent pending entry: no
    // retransmission, no give-up.
    assert_eq!(k.stats().counter("rt.arq_retx"), 0);
    assert_eq!(k.stats().counter("rt.arq_gave_up"), 0);
}

#[test]
fn timeout_fires_after_peer_killed_mid_exchange() {
    let cfg = ArqConfig {
        max_retries: 2,
        timeout_ticks: 6,
    };
    let (mut k, medium) = two_node_arq(cfg);
    k.schedule_message(SimTime::ZERO, 0, 0, RtMsg::App(envelope()));
    // Process the send; the data hop is now in flight.
    k.run_until(SimTime::ZERO);
    assert_eq!(k.stats().counter("rt.arq_retx"), 0);
    // The peer dies with the packet in the air.
    medium.borrow_mut().kill(1, k.now());
    k.run();
    // The in-flight copy reached a dead node; no ack ever returned, so
    // the timeout path retransmitted until exhaustion.
    assert_eq!(k.stats().counter("rt.dead_rx"), 1);
    assert_eq!(k.stats().counter("rt.arq_retx"), 2);
    assert_eq!(k.stats().counter("rt.arq_gave_up"), 1);
    assert_eq!(k.stats().counter("rt.delivered"), 0);
}
