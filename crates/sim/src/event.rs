//! Event representation and the deterministic pending-event queue.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires at its target actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind<M> {
    /// Delivery of an application message from another actor.
    Message {
        /// Sending actor.
        from: usize,
        /// Payload.
        msg: M,
    },
    /// Expiration of a timer the target set on itself.
    Timer {
        /// Caller-chosen tag distinguishing concurrent timers.
        tag: u64,
    },
}

/// An event scheduled for a future instant.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<M> {
    /// When the event fires.
    pub time: SimTime,
    /// Global sequence number; breaks ties among same-tick events so that
    /// execution order equals scheduling order (determinism).
    pub seq: u64,
    /// When the event entered the queue; `time - enqueued_at` is the
    /// scheduling latency the kernel metrics histogram.
    pub enqueued_at: SimTime,
    /// Receiving actor.
    pub target: usize,
    /// Payload.
    pub kind: EventKind<M>,
}

/// Min-heap of pending events ordered by `(time, seq)`.
///
/// `BinaryHeap` is a max-heap, so ordering is inverted in the `Ord` impl.
#[derive(Debug)]
pub struct EventQueue<M> {
    heap: BinaryHeap<HeapEntry<M>>,
    next_seq: u64,
}

#[derive(Debug)]
struct HeapEntry<M>(ScheduledEvent<M>);

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<M> Eq for HeapEntry<M> {}
impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: smallest (time, seq) = greatest heap entry.
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `kind` to fire at `target` at absolute instant `time`,
    /// treating `time` as the enqueue instant (zero scheduling latency).
    pub fn push(&mut self, time: SimTime, target: usize, kind: EventKind<M>) {
        self.push_from(time, time, target, kind);
    }

    /// Schedules `kind` to fire at `target` at absolute instant `time`,
    /// stamping the event as enqueued at `enqueued_at` so the kernel can
    /// histogram scheduling latency (`time - enqueued_at`).
    pub fn push_from(
        &mut self,
        enqueued_at: SimTime,
        time: SimTime,
        target: usize,
        kind: EventKind<M>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(ScheduledEvent {
            time,
            seq,
            enqueued_at,
            target,
            kind,
        }));
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<M>> {
        self.heap.pop().map(|e| e.0)
    }

    /// Re-inserts an already-sequenced event without assigning a fresh
    /// sequence number. The sharded scheduler uses this to move events
    /// between the global queue and per-shard queues while preserving the
    /// exact `(time, seq)` total order the sequential kernel would have
    /// used.
    pub(crate) fn push_scheduled(&mut self, ev: ScheduledEvent<M>) {
        self.heap.push(HeapEntry(ev));
    }

    /// Drains every pending event (heap order is unspecified) and keeps
    /// the queue's capacity for its next use.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = ScheduledEvent<M>> + '_ {
        self.heap.drain().map(|e| e.0)
    }

    /// Gives back capacity beyond `capacity` events.
    pub(crate) fn shrink_to(&mut self, capacity: usize) {
        self.heap.shrink_to(capacity);
    }

    /// The next sequence number this queue will assign.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Advances the sequence counter to `seq` (monotone only — the
    /// sharded replay hands out the intervening numbers itself).
    pub(crate) fn set_next_seq(&mut self, seq: u64) {
        debug_assert!(seq >= self.next_seq, "sequence counter ran backwards");
        self.next_seq = seq;
    }

    /// Instant of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.0.time)
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(m: u32) -> EventKind<u32> {
        EventKind::Message { from: 0, msg: m }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(5), 0, msg(5));
        q.push(SimTime::from_ticks(1), 0, msg(1));
        q.push(SimTime::from_ticks(3), 0, msg(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.ticks())
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn same_tick_fifo_by_sequence() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(SimTime::from_ticks(7), 0, msg(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Message { msg, .. } => msg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(9), 1, msg(0));
        q.push(SimTime::from_ticks(2), 2, msg(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(2)));
        let e = q.pop().unwrap();
        assert_eq!(e.time.ticks(), 2);
        assert_eq!(e.target, 2);
    }

    #[test]
    fn len_tracks_contents() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 0, EventKind::Timer { tag: 1 });
        q.push(SimTime::ZERO, 0, EventKind::Timer { tag: 2 });
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn push_from_stamps_enqueue_instant() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push_from(SimTime::from_ticks(3), SimTime::from_ticks(10), 0, msg(0));
        q.push(SimTime::from_ticks(4), 0, msg(1));
        let first = q.pop().unwrap();
        assert_eq!(first.enqueued_at, first.time); // plain push: zero latency
        let second = q.pop().unwrap();
        assert_eq!(second.time - second.enqueued_at, 7);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime::from_ticks(10), 0, msg(10));
        q.push(SimTime::from_ticks(4), 0, msg(4));
        assert_eq!(q.pop().unwrap().time.ticks(), 4);
        q.push(SimTime::from_ticks(2), 0, msg(2));
        q.push(SimTime::from_ticks(12), 0, msg(12));
        assert_eq!(q.pop().unwrap().time.ticks(), 2);
        assert_eq!(q.pop().unwrap().time.ticks(), 10);
        assert_eq!(q.pop().unwrap().time.ticks(), 12);
        assert!(q.pop().is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The queue is a total order: pops are sorted by (time, seq).
        #[test]
        fn pop_order_is_sorted(ticks in prop::collection::vec(0u64..1000, 0..200)) {
            let mut q: EventQueue<u32> = EventQueue::new();
            for &t in &ticks {
                q.push(SimTime::from_ticks(t), 0, EventKind::Timer { tag: t });
            }
            let mut popped = Vec::new();
            while let Some(e) = q.pop() {
                popped.push((e.time, e.seq));
            }
            prop_assert_eq!(popped.len(), ticks.len());
            for w in popped.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }

        /// Every pushed event is popped exactly once (multiset equality on times).
        #[test]
        fn conservation(ticks in prop::collection::vec(0u64..50, 0..200)) {
            let mut q: EventQueue<u32> = EventQueue::new();
            for &t in &ticks {
                q.push(SimTime::from_ticks(t), 0, EventKind::Timer { tag: 0 });
            }
            let mut got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.ticks()).collect();
            let mut want = ticks.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
