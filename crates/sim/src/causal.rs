//! Causal event records: Lamport-clocked send/deliver/local events.
//!
//! The kernel's dispatch trace ([`crate::trace`]) says *when* each actor
//! ran; it cannot say *why*. This module adds the why: a [`CausalLog`]
//! assigns every interesting runtime occurrence a globally unique
//! sequence number and a per-node Lamport clock, and records which
//! earlier event caused it. Senders stamp outgoing messages with a
//! [`CausalStamp`]; the medium records the matching deliver event at the
//! scheduled delivery instant; application handlers record local events
//! (merge completions, exfiltration) chained to the delivery that
//! triggered them.
//!
//! The resulting event list is a happens-before DAG: `cause` edges point
//! strictly backwards in sequence order, and simulated time is monotone
//! along every edge (an effect never precedes its cause). Because each
//! edge spans the interval `[cause.time, event.time]`, the durations
//! along any connected chain **telescope**: a walk from a phase-start
//! event to a terminal event sums *exactly* to the phase duration. That
//! telescoping identity is what makes critical-path extraction in
//! `wsn-obs` exact rather than approximate.
//!
//! Everything here is deterministic — sequence numbers are handed out in
//! record order, which the kernel's total event order fixes — so two
//! same-seed runs produce identical logs.

use crate::shard::{BarrierReplay, OrderTap};
use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Metadata a sender attaches to an in-flight message: the send event's
/// sequence number and the sender's Lamport clock at the send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CausalStamp {
    /// Sequence number of the send event (0 = unstamped).
    pub seq: u64,
    /// Sender's Lamport clock at the send.
    pub lamport: u64,
}

impl CausalStamp {
    /// The stamp carried by messages sent while causal tracing is off.
    pub const NONE: CausalStamp = CausalStamp { seq: 0, lamport: 0 };

    /// Whether this stamp refers to a recorded send event.
    pub fn is_some(&self) -> bool {
        self.seq != 0
    }
}

/// What kind of occurrence a [`CausalEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalKind {
    /// A message left a node (radio transmit or local self-send).
    Send,
    /// A message arrived at a node (recorded at the delivery instant).
    Deliver,
    /// A node-local milestone (phase start, merge completion, exfiltration).
    Local,
}

/// One recorded occurrence in the happens-before DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalEvent {
    /// Globally unique sequence number, 1-based in record order.
    pub seq: u64,
    /// Simulated time of the occurrence.
    pub time: SimTime,
    /// Kernel actor id of the node the event happened on.
    pub node: usize,
    /// Send, deliver, or local.
    pub kind: CausalKind,
    /// Lamport clock after this event.
    pub lamport: u64,
    /// Sequence number of the event that caused this one (0 = root).
    pub cause: u64,
    /// Human-readable label, e.g. `"app.hop"`, `"merge.level1"`.
    pub label: String,
    /// Data units carried (0 for local events).
    pub units: u64,
}

/// Accumulates [`CausalEvent`]s and maintains per-node Lamport clocks.
///
/// Storage order is always append order — [`CausalStamp::seq`] indexes
/// into it — but under the sharded scheduler append order is *shard*
/// order, not the sequential kernel's dispatch order. The log therefore
/// keeps a parallel canonical permutation: events appended while an
/// [`OrderTap`] holds a window position are staged, and
/// [`CausalLog::assign_order`] (called from the scheduler's barrier hook
/// with the window's canonical order) slots them into the global order.
/// [`CausalLog::canonical_events`] then renumbers sequence numbers, cause
/// edges, and Lamport clocks as if the log had been written sequentially
/// — the identity transform for a log that *was*.
#[derive(Debug, Default)]
pub struct CausalLog {
    events: Vec<CausalEvent>,
    clocks: Vec<u64>,
    /// Canonical position of `events[i]` (`u64::MAX` while staged).
    order_keys: Vec<u64>,
    /// Next canonical position to hand out.
    cursor: u64,
    /// Append indices awaiting a canonical position, with the window
    /// position of the dispatch they were recorded under.
    staged: Vec<(usize, u32)>,
    tap: Option<OrderTap>,
}

impl CausalLog {
    /// An empty log.
    pub fn new() -> Self {
        CausalLog::default()
    }

    fn clock_mut(&mut self, node: usize) -> &mut u64 {
        if node >= self.clocks.len() {
            self.clocks.resize(node + 1, 0);
        }
        &mut self.clocks[node]
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        time: SimTime,
        node: usize,
        kind: CausalKind,
        lamport: u64,
        cause: u64,
        label: &str,
        units: u64,
    ) -> u64 {
        let seq = self.events.len() as u64 + 1;
        self.events.push(CausalEvent {
            seq,
            time,
            node,
            kind,
            lamport,
            cause,
            label: label.to_string(),
            units,
        });
        match self.tap.as_ref().and_then(|t| t.get()) {
            None => {
                self.order_keys.push(self.cursor);
                self.cursor += 1;
            }
            Some(pos) => {
                self.order_keys.push(u64::MAX);
                self.staged.push((self.events.len() - 1, pos));
            }
        }
        seq
    }

    /// Connects the log to the sharded scheduler's order tap: events
    /// recorded while the tap holds a window position are staged for
    /// barrier-time ordering instead of taking the next canonical slot.
    pub fn set_order_tap(&mut self, tap: OrderTap) {
        self.tap = Some(tap);
    }

    /// Assigns canonical positions to all staged events, dispatch by
    /// dispatch in `order` (the window's canonical order from the
    /// scheduler's barrier hook), each dispatch's events in append order.
    pub fn assign_order(&mut self, order: &[u32], replay: &mut BarrierReplay) {
        if self.staged.is_empty() {
            return;
        }
        let (staged, keys, cursor) = (&self.staged, &mut self.order_keys, &mut self.cursor);
        replay.replay(order, staged.iter().map(|&(_, pos)| pos), |i| {
            keys[staged[i].0] = *cursor;
            *cursor += 1;
        });
        self.staged.clear();
    }

    /// Records a send event on `node` and returns the stamp to attach to
    /// the outgoing message. `cause` is the event that triggered the send
    /// (0 when spontaneous).
    pub fn record_send(
        &mut self,
        node: usize,
        time: SimTime,
        cause: u64,
        label: &str,
        units: u64,
    ) -> CausalStamp {
        let clock = self.clock_mut(node);
        *clock += 1;
        let lamport = *clock;
        let seq = self.push(time, node, CausalKind::Send, lamport, cause, label, units);
        CausalStamp { seq, lamport }
    }

    /// Records a deliver event on `node` for a message carrying `stamp`,
    /// merging the sender's Lamport clock into the receiver's. Returns
    /// the deliver event's sequence number.
    pub fn record_deliver(
        &mut self,
        node: usize,
        time: SimTime,
        stamp: CausalStamp,
        label: &str,
        units: u64,
    ) -> u64 {
        let clock = self.clock_mut(node);
        *clock = (*clock).max(stamp.lamport) + 1;
        let lamport = *clock;
        self.push(
            time,
            node,
            CausalKind::Deliver,
            lamport,
            stamp.seq,
            label,
            units,
        )
    }

    /// Records a node-local milestone chained to `cause` (0 for roots).
    /// Returns the event's sequence number.
    pub fn record_local(&mut self, node: usize, time: SimTime, cause: u64, label: &str) -> u64 {
        let clock = self.clock_mut(node);
        *clock += 1;
        let lamport = *clock;
        self.push(time, node, CausalKind::Local, lamport, cause, label, 0)
    }

    /// The recorded events, in sequence (append) order.
    pub fn events(&self) -> &[CausalEvent] {
        &self.events
    }

    /// The log as the sequential kernel would have written it: events in
    /// canonical dispatch order, with sequence numbers, cause edges, and
    /// Lamport clocks renumbered to match. Lamport clocks are recomputed
    /// by replaying the canonical order (delivers merge the cause event's
    /// recomputed clock), because the append-order clocks were advanced in
    /// shard order. For a log recorded entirely outside sharded windows
    /// this is exactly `events().to_vec()`.
    ///
    /// Panics if staged events are still awaiting [`CausalLog::assign_order`].
    pub fn canonical_events(&self) -> Vec<CausalEvent> {
        assert!(
            self.staged.is_empty(),
            "canonical_events while {} events await assign_order",
            self.staged.len()
        );
        let n = self.events.len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by_key(|&i| self.order_keys[i]);
        let mut new_seq = vec![0u64; n];
        for (pos, &old) in perm.iter().enumerate() {
            new_seq[old] = pos as u64 + 1;
        }
        let mut clocks: Vec<u64> = Vec::new();
        let mut lamports = vec![0u64; n];
        let mut out = Vec::with_capacity(n);
        for (pos, &old) in perm.iter().enumerate() {
            let ev = &self.events[old];
            if ev.node >= clocks.len() {
                clocks.resize(ev.node + 1, 0);
            }
            let cause = if ev.cause == 0 {
                0
            } else {
                let c = new_seq[ev.cause as usize - 1];
                debug_assert!(
                    c <= pos as u64,
                    "cause edge points forward in canonical order"
                );
                c
            };
            let lamport = match ev.kind {
                CausalKind::Deliver => {
                    let merged = if ev.cause == 0 {
                        0
                    } else {
                        lamports[ev.cause as usize - 1]
                    };
                    clocks[ev.node].max(merged) + 1
                }
                CausalKind::Send | CausalKind::Local => clocks[ev.node] + 1,
            };
            clocks[ev.node] = lamport;
            lamports[old] = lamport;
            out.push(CausalEvent {
                seq: pos as u64 + 1,
                cause,
                lamport,
                ..ev.clone()
            });
        }
        out
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the log, returning the event list.
    pub fn into_events(self) -> Vec<CausalEvent> {
        self.events
    }
}

/// A cloneable handle to a [`CausalLog`] shared between the medium, the
/// per-node runtimes, and the driver that exports the trace.
pub type SharedCausalLog = Rc<RefCell<CausalLog>>;

/// Creates a fresh shared log.
pub fn shared_causal_log() -> SharedCausalLog {
    Rc::new(RefCell::new(CausalLog::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn sequence_numbers_are_dense_and_one_based() {
        let mut log = CausalLog::new();
        let root = log.record_local(0, t(0), 0, "start");
        let stamp = log.record_send(0, t(1), root, "hop", 2);
        let del = log.record_deliver(1, t(3), stamp, "hop", 2);
        assert_eq!(root, 1);
        assert_eq!(stamp.seq, 2);
        assert_eq!(del, 3);
        assert_eq!(log.len(), 3);
        assert_eq!(log.events()[1].cause, root);
        assert_eq!(log.events()[2].cause, stamp.seq);
    }

    #[test]
    fn lamport_clocks_merge_on_delivery() {
        let mut log = CausalLog::new();
        // Node 0 does a burst of local work; node 1 is idle.
        for _ in 0..5 {
            log.record_local(0, t(0), 0, "work");
        }
        let stamp = log.record_send(0, t(1), 0, "hop", 1);
        assert_eq!(stamp.lamport, 6);
        let del = log.record_deliver(1, t(2), stamp, "hop", 1);
        // The receiver's clock jumps past the sender's.
        assert_eq!(log.events()[del as usize - 1].lamport, 7);
        // And a causally later local event on node 1 keeps climbing.
        let next = log.record_local(1, t(2), del, "merge");
        assert_eq!(log.events()[next as usize - 1].lamport, 8);
    }

    #[test]
    fn every_event_lamport_exceeds_its_cause() {
        let mut log = CausalLog::new();
        let a = log.record_local(0, t(0), 0, "start");
        let s = log.record_send(0, t(1), a, "hop", 1);
        let d = log.record_deliver(3, t(4), s, "hop", 1);
        let m = log.record_local(3, t(4), d, "merge");
        let s2 = log.record_send(3, t(5), m, "hop", 2);
        log.record_deliver(7, t(9), s2, "hop", 2);
        for ev in log.events() {
            if ev.cause != 0 {
                let cause = &log.events()[ev.cause as usize - 1];
                assert!(ev.lamport > cause.lamport, "{ev:?} vs {cause:?}");
                assert!(ev.time >= cause.time);
            }
        }
    }

    #[test]
    fn unstamped_messages_are_distinguishable() {
        assert!(!CausalStamp::NONE.is_some());
        let mut log = CausalLog::new();
        let stamp = log.record_send(0, t(0), 0, "hop", 1);
        assert!(stamp.is_some());
    }

    #[test]
    fn shared_log_is_shared() {
        let log = shared_causal_log();
        let clone = Rc::clone(&log);
        log.borrow_mut().record_local(0, t(0), 0, "a");
        assert_eq!(clone.borrow().len(), 1);
    }

    #[test]
    fn canonical_is_identity_for_sequential_logs() {
        let mut log = CausalLog::new();
        let a = log.record_local(0, t(0), 0, "start");
        let s = log.record_send(0, t(1), a, "hop", 1);
        let d = log.record_deliver(3, t(4), s, "hop", 1);
        let m = log.record_local(3, t(4), d, "merge");
        let s2 = log.record_send(3, t(5), m, "hop", 2);
        log.record_deliver(7, t(9), s2, "hop", 2);
        assert_eq!(log.canonical_events(), log.events().to_vec());
    }

    #[test]
    fn staged_events_reorder_into_canonical_positions() {
        use crate::shard::order_tap;

        // Shard order appends dispatch 0's events before dispatch 1's,
        // but the canonical dispatch order runs them the other way.
        let tap = order_tap();
        let mut log = CausalLog::new();
        log.set_order_tap(tap.clone());

        tap.set(Some(0));
        let s0 = log.record_send(0, t(5), 0, "hop", 1); // append 1
        tap.set(Some(1));
        let s1 = log.record_send(2, t(5), 0, "hop", 1); // append 2
        let d1 = log.record_deliver(3, t(6), s1, "hop", 1); // append 3
        tap.set(None);

        // Canonical order says dispatch 1 came first.
        log.assign_order(&[1, 0], &mut BarrierReplay::default());
        let canon = log.canonical_events();
        assert_eq!(canon.len(), 3);
        // s1 and d1 now lead; s0 trails with renumbered seq.
        assert_eq!(canon[0].node, 2);
        assert_eq!(canon[1].node, 3);
        assert_eq!(canon[1].cause, 1, "deliver cause remapped to new seq");
        assert_eq!(canon[2].node, 0);
        assert_eq!(canon[2].seq, 3);
        assert_eq!(canon[2].cause, 0);
        // Lamports replayed in canonical order: send=1, deliver merges to 2.
        assert_eq!(canon[0].lamport, 1);
        assert_eq!(canon[1].lamport, 2);
        assert_eq!(canon[2].lamport, 1);
        // Append-order accessors are untouched (stamp indexing contract).
        assert_eq!(log.events()[s0.seq as usize - 1].node, 0);
        assert_eq!(log.events()[d1 as usize - 1].cause, s1.seq);
    }

    #[test]
    #[should_panic(expected = "await assign_order")]
    fn canonical_with_pending_staged_events_panics() {
        let tap = crate::shard::order_tap();
        let mut log = CausalLog::new();
        log.set_order_tap(tap.clone());
        tap.set(Some(0));
        log.record_local(0, t(1), 0, "staged");
        log.canonical_events();
    }
}
