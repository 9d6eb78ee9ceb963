//! Event keys, the payload slab, and the deterministic pending-event
//! queue.
//!
//! A queued event is a 40-byte `Key`: when it fires, its sequence
//! number, when it was queued, its target, and either its sender and a
//! handle on its payload or its timer tag. Payloads live in the kernel's
//! `Slab`, once per send, or once per broadcast however many receivers
//! it reaches ([`crate::Context::share`]).
//!
//! The `EventQueue` is a calendar queue over integer ticks (Brown,
//! CACM 1988): it keeps its pending ticks in a vector sorted latest
//! first, and each tick is a FIFO chain of fixed-size key chunks. A
//! fresh sequence number is always the largest so far, so FIFO order
//! within a tick is `(time, seq)` order, and a pop is a read at the head
//! of the earliest tick.
//!
//! A broadcast is queued as one key plus 4 bytes per further receiver:
//! a run of consecutive messages of one dispatch with one sender,
//! payload slot and tick takes consecutive seqs and one key, and its
//! further receivers wait as `u32`s in a second FIFO chain on the same
//! tick. A pop hands the run out one receiver at a time, each with the
//! next seq, so it returns exactly the keys single sends would have
//! queued. Every queue of a kernel draws its chunks of both kinds from
//! one `KeyPool`, and neither the pool nor the slab ever shrinks, so a
//! warm kernel queues and dispatches without allocating.

use crate::time::SimTime;

/// What happens when an event fires at its target actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EventKind<M> {
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

/// The `from` of a timer key; no actor id takes this value.
pub(crate) const TIMER: u32 = u32::MAX;

/// Keys per chunk of a tick's FIFO chain.
const CHUNK: usize = 64;

/// Receivers per chunk of a tick's receiver chain.
const RECEIVER_CHUNK: usize = 256;

/// The bits of a message key's `data` that hold its slab slot; the bits
/// above count the further receivers of a queued run.
const SLOT_BITS: u64 = u32::MAX as u64;

/// A queued event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    /// When the event fires.
    pub(crate) time: SimTime,
    /// Global push order; breaks ties among same-tick events so that
    /// execution order equals scheduling order (determinism).
    pub(crate) seq: u64,
    /// When the event entered the queue; `time - enqueued_at` is the
    /// scheduling latency the kernel metrics histogram.
    pub(crate) enqueued_at: SimTime,
    /// Receiving actor.
    pub(crate) target: u32,
    /// Sending actor, or [`TIMER`].
    pub(crate) from: u32,
    /// The payload's slab slot for a message, the tag for a timer. While
    /// a message key heads a queued run, its upper half counts the run's
    /// further receivers; a popped key never carries that count.
    pub(crate) data: u64,
}

const _: () = assert!(std::mem::size_of::<Key>() == 40);

impl Key {
    /// What fills a chunk's unused keys.
    const DUMMY: Key = Key {
        time: SimTime::ZERO,
        seq: 0,
        enqueued_at: SimTime::ZERO,
        target: 0,
        from: TIMER,
        data: 0,
    };

    /// A key for `target` at `time`, queued at `enqueued_at`; the queue
    /// stamps its seq.
    pub(crate) fn new(
        time: SimTime,
        enqueued_at: SimTime,
        target: u32,
        from: u32,
        data: u64,
    ) -> Key {
        Key {
            time,
            seq: 0,
            enqueued_at,
            target,
            from,
            data,
        }
    }

    /// The receiving actor's id.
    pub(crate) fn target(&self) -> usize {
        self.target as usize
    }

    /// The sending actor of a message, `None` for a timer.
    pub(crate) fn sender(&self) -> Option<usize> {
        (self.from != TIMER).then_some(self.from as usize)
    }

    /// Receivers of this queued key's run after its own target.
    fn further(&self) -> u64 {
        if self.from == TIMER {
            0
        } else {
            self.data >> 32
        }
    }

    /// Whether `other`, pushed right after this message in one
    /// dispatch, joins its run: the same sender, payload slot and tick.
    /// A timer joins no run, since its tag may equal a slot number.
    fn runs_with(&self, other: &Key) -> bool {
        self.from != TIMER
            && other.from == self.from
            && other.data == self.data
            && other.time == self.time
            && other.enqueued_at == self.enqueued_at
    }
}

/// Fixed-size chunks of `T`, each linked to the next chunk of its chain.
#[derive(Debug)]
struct Chunks<T, const N: usize> {
    items: Vec<[T; N]>,
    next: Vec<u32>,
    free: Vec<u32>,
}

impl<T, const N: usize> Default for Chunks<T, N> {
    fn default() -> Self {
        Chunks {
            items: Vec::new(),
            next: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Copy, const N: usize> Chunks<T, N> {
    fn take(&mut self, fill: T) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let chunk = u32::try_from(self.items.len()).expect("chunk pool outgrew u32 chunks");
            self.items.push([fill; N]);
            self.next.push(0);
            chunk
        })
    }
}

/// A FIFO chain of chunks from `head` to `tail`, whose items run from
/// `head[start]` to `tail[end - 1]`; `start` is always below `N`.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    start: u32,
    end: u32,
}

impl Chain {
    /// An empty chain on a fresh chunk.
    fn new<T: Copy, const N: usize>(chunks: &mut Chunks<T, N>, fill: T) -> Chain {
        let chunk = chunks.take(fill);
        Chain {
            head: chunk,
            tail: chunk,
            start: 0,
            end: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.head == self.tail && self.start == self.end
    }

    /// Where the first item lives.
    fn front(&self) -> (usize, usize) {
        (self.head as usize, self.start as usize)
    }

    /// The last item; the chain must not be empty.
    fn back<T: Copy, const N: usize>(&self, chunks: &Chunks<T, N>) -> T {
        chunks.items[self.tail as usize][self.end as usize - 1]
    }

    fn push<T: Copy, const N: usize>(&mut self, chunks: &mut Chunks<T, N>, item: T) {
        if self.end as usize == N {
            let chunk = chunks.take(item);
            chunks.next[self.tail as usize] = chunk;
            self.tail = chunk;
            self.end = 0;
        }
        chunks.items[self.tail as usize][self.end as usize] = item;
        self.end += 1;
    }

    /// Removes the first item; the chain must not be empty. A chunk is
    /// returned once its last item pops, except the tail, which an
    /// emptied chain reuses from its front.
    fn pop<T: Copy, const N: usize>(&mut self, chunks: &mut Chunks<T, N>) -> T {
        let item = chunks.items[self.head as usize][self.start as usize];
        self.start += 1;
        if self.start as usize == N {
            if self.head == self.tail {
                self.end = 0;
            } else {
                chunks.free.push(self.head);
                self.head = chunks.next[self.head as usize];
            }
            self.start = 0;
        }
        item
    }
}

/// Key and receiver chunks shared by every queue of one kernel. A queue
/// takes a chunk when a tick outgrows its tail and gives it back once
/// its last item pops; the pool never shrinks.
#[derive(Debug, Default)]
pub(crate) struct KeyPool {
    keys: Chunks<Key, CHUNK>,
    receivers: Chunks<u32, RECEIVER_CHUNK>,
}

impl KeyPool {
    /// Key chunks the pool owns, in use or free.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> usize {
        self.keys.items.len()
    }

    /// Receiver chunks the pool owns, in use or free.
    #[cfg(test)]
    pub(crate) fn receiver_chunks(&self) -> usize {
        self.receivers.items.len()
    }

    /// Whether every chunk of both kinds is back in the pool.
    #[cfg(test)]
    pub(crate) fn all_free(&self) -> bool {
        self.keys.free.len() == self.keys.items.len()
            && self.receivers.free.len() == self.receivers.items.len()
    }
}

/// One pending tick: its chain of keys and, once a run is queued on it,
/// the chain of the runs' further receivers, in key order.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    time: SimTime,
    keys: Chain,
    receivers: Option<Chain>,
}

/// Pending events ordered by `(time, seq)`: per-tick FIFO buckets of
/// keys drawn from a [`KeyPool`].
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Pending ticks, latest first, so the earliest is the last.
    ticks: Vec<Bucket>,
    /// Pending events, each receiver of a run counted.
    len: usize,
    next_seq: u64,
}

impl EventQueue {
    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Instant of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.ticks.last().map(|b| b.time)
    }

    /// Stamps `key` with the next sequence number and queues it.
    pub(crate) fn push(&mut self, pool: &mut KeyPool, mut key: Key) {
        key.seq = self.next_seq;
        self.next_seq += 1;
        self.enqueue(pool, key, &[]);
    }

    /// Queues a dispatch's pushes in push order, each with the next
    /// sequence number, and empties `outbox`. Each run of consecutive
    /// messages with one sender, payload slot and tick, which is what a
    /// broadcast's shared sends make, takes one key.
    pub(crate) fn push_outbox(&mut self, pool: &mut KeyPool, outbox: &mut Vec<Key>) {
        let mut rest = &outbox[..];
        while let Some((&first, tail)) = rest.split_first() {
            let n = tail.iter().take_while(|k| first.runs_with(k)).count();
            let key = Key {
                seq: self.next_seq,
                ..first
            };
            self.next_seq += 1 + n as u64;
            self.enqueue(pool, key, &tail[..n]);
            rest = &tail[n..];
        }
        outbox.clear();
    }

    /// Queues an already-sequenced key without assigning a fresh seq.
    /// The sharded scheduler moves keys between the global queue and
    /// the per-shard queues this way; it hands each tick its keys in
    /// ascending seq, which keeps every bucket in `(time, seq)` order.
    pub(crate) fn push_scheduled(&mut self, pool: &mut KeyPool, key: Key) {
        self.enqueue(pool, key, &[]);
    }

    /// Queues `key` and, as its run's further receivers, the targets of
    /// `further`, which take the seqs after `key.seq`.
    fn enqueue(&mut self, pool: &mut KeyPool, mut key: Key, further: &[Key]) {
        self.len += 1 + further.len();
        let b = match self.ticks.binary_search_by(|b| key.time.cmp(&b.time)) {
            Ok(i) => {
                let b = &mut self.ticks[i];
                debug_assert!(
                    {
                        let last = b.keys.back(&pool.keys);
                        last.seq + last.further() < key.seq
                    },
                    "key queued out of seq order at tick {}",
                    key.time.ticks()
                );
                b
            }
            Err(at) => {
                let bucket = Bucket {
                    time: key.time,
                    keys: Chain::new(&mut pool.keys, Key::DUMMY),
                    receivers: None,
                };
                self.ticks.insert(at, bucket);
                &mut self.ticks[at]
            }
        };
        if !further.is_empty() {
            let count = u32::try_from(further.len()).expect("a run outgrew u32 receivers");
            key.data |= u64::from(count) << 32;
            let receivers = b
                .receivers
                .get_or_insert_with(|| Chain::new(&mut pool.receivers, 0));
            for k in further {
                receivers.push(&mut pool.receivers, k.target);
            }
        }
        b.keys.push(&mut pool.keys, key);
    }

    /// Removes and returns the earliest pending key. A run at the head
    /// hands out its first receiver and stays queued, with its next
    /// receiver and seq in its place.
    pub(crate) fn pop(&mut self, pool: &mut KeyPool) -> Option<Key> {
        let b = self.ticks.last_mut()?;
        self.len -= 1;
        let (chunk, at) = b.keys.front();
        let key = pool.keys.items[chunk][at];
        if key.further() > 0 {
            let receivers = b.receivers.as_mut().expect("a queued run has receivers");
            let next = receivers.pop(&mut pool.receivers);
            let head = &mut pool.keys.items[chunk][at];
            head.seq += 1;
            head.target = next;
            head.data -= 1 << 32;
            return Some(Key {
                data: key.data & SLOT_BITS,
                ..key
            });
        }
        b.keys.pop(&mut pool.keys);
        if b.keys.is_empty() {
            pool.keys.free.push(b.keys.head);
            if let Some(receivers) = b.receivers {
                debug_assert!(receivers.is_empty(), "receivers outlived their runs");
                pool.receivers.free.push(receivers.head);
            }
            self.ticks.pop();
        }
        Some(key)
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
}

/// One payload of the [`Slab`].
#[derive(Debug)]
struct Slot<M> {
    msg: Option<M>,
    /// Keys holding the slot, plus one while a share handle is live.
    refs: u32,
    /// `M::clone`, captured when the payload was shared; a payload sent
    /// once is never cloned.
    clone: Option<fn(&M) -> M>,
}

/// The kernel's reference-counted message payloads. A pop clones a
/// payload while other keys still hold its slot and moves it out for the
/// last one. Freed slots are reused, and the slab never shrinks.
#[derive(Debug)]
pub(crate) struct Slab<M> {
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    /// The slots shared during the current dispatch; each holds one
    /// reference for its handle until the dispatch ends.
    shares: Vec<u32>,
}

impl<M> Default for Slab<M> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            shares: Vec::new(),
        }
    }
}

impl<M> Slab<M> {
    /// Stores `msg` for one key.
    pub(crate) fn insert(&mut self, msg: M) -> u64 {
        self.store(msg, None)
    }

    /// Stores `msg` for any number of keys: the slot holds one reference
    /// for its handle until [`Slab::end_dispatch`].
    pub(crate) fn share(&mut self, msg: M, clone: fn(&M) -> M) -> u64 {
        let slot = self.store(msg, Some(clone));
        self.shares.push(slot as u32);
        slot
    }

    fn store(&mut self, msg: M, clone: Option<fn(&M) -> M>) -> u64 {
        let slot = Slot {
            msg: Some(msg),
            refs: 1,
            clone,
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                u64::from(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("payload slab outgrew u32 slots");
                self.slots.push(slot);
                u64::from(i)
            }
        }
    }

    /// One more key holds `slot`.
    pub(crate) fn add_ref(&mut self, slot: u64) {
        self.slots[slot as usize].refs += 1;
    }

    /// The payload for one key holding `slot`: a clone while other keys
    /// hold it, the original for the last.
    pub(crate) fn take(&mut self, slot: u64) -> M {
        let s = &mut self.slots[slot as usize];
        s.refs -= 1;
        if s.refs > 0 {
            let clone = s
                .clone
                .expect("payload held by several keys was not shared");
            return clone(s.msg.as_ref().expect("payload slot is empty"));
        }
        self.free.push(slot as u32);
        s.msg.take().expect("payload slot is empty")
    }

    /// Drops the share handles of the dispatch that just ended, freeing
    /// a shared payload no send used.
    pub(crate) fn end_dispatch(&mut self) {
        for slot in self.shares.drain(..) {
            let s = &mut self.slots[slot as usize];
            s.refs -= 1;
            if s.refs == 0 {
                s.msg = None;
                self.free.push(slot);
            }
        }
    }

    /// The event a popped key delivers.
    pub(crate) fn event(&mut self, key: &Key) -> EventKind<M> {
        match key.sender() {
            Some(from) => EventKind::Message {
                from,
                msg: self.take(key.data),
            },
            None => EventKind::Timer { tag: key.data },
        }
    }

    /// Slots the slab owns, live or free.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Slots holding a payload.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.msg.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queue, its pool and a slab of `u32` payloads.
    #[derive(Default)]
    struct Q {
        queue: EventQueue,
        pool: KeyPool,
        slab: Slab<u32>,
    }

    impl Q {
        fn push(&mut self, time: u64, target: u32, m: u32) {
            self.push_from(time, time, target, m);
        }

        fn push_from(&mut self, enqueued_at: u64, time: u64, target: u32, m: u32) {
            let slot = self.slab.insert(m);
            let key = Key::new(
                SimTime::from_ticks(time),
                SimTime::from_ticks(enqueued_at),
                target,
                0,
                slot,
            );
            self.queue.push(&mut self.pool, key);
        }

        fn timer(&mut self, time: u64, tag: u64) {
            let key = Key::new(
                SimTime::from_ticks(time),
                SimTime::from_ticks(time),
                0,
                TIMER,
                tag,
            );
            self.queue.push(&mut self.pool, key);
        }

        fn pop(&mut self) -> Option<Key> {
            self.queue.pop(&mut self.pool)
        }

        /// Pops the next message's payload.
        fn pop_msg(&mut self) -> Option<u32> {
            let key = self.pop()?;
            match self.slab.event(&key) {
                EventKind::Message { msg, .. } => Some(msg),
                EventKind::Timer { .. } => unreachable!(),
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = Q::default();
        q.push(5, 0, 5);
        q.push(1, 0, 1);
        q.push(3, 0, 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_msg()).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn same_tick_fifo_by_sequence() {
        let mut q = Q::default();
        // Enough keys to chain several chunks on one tick.
        for i in 0..200u32 {
            q.push(7, 0, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_msg()).collect();
        assert_eq!(order, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = Q::default();
        q.push(9, 1, 0);
        q.push(2, 2, 0);
        assert_eq!(q.queue.peek_time(), Some(SimTime::from_ticks(2)));
        let e = q.pop().unwrap();
        assert_eq!(e.time.ticks(), 2);
        assert_eq!(e.target(), 2);
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = Q::default();
        assert_eq!(q.queue.len(), 0);
        q.timer(0, 1);
        q.timer(0, 2);
        assert_eq!(q.queue.len(), 2);
        let e = q.pop().unwrap();
        assert_eq!(e.sender(), None);
        assert_eq!(q.slab.event(&e), EventKind::Timer { tag: 1 });
        assert_eq!(q.queue.len(), 1);
    }

    #[test]
    fn push_from_stamps_enqueue_instant() {
        let mut q = Q::default();
        q.push_from(3, 10, 0, 0);
        q.push(4, 0, 1);
        let first = q.pop().unwrap();
        assert_eq!(first.enqueued_at, first.time); // plain push: zero latency
        let second = q.pop().unwrap();
        assert_eq!(second.time - second.enqueued_at, 7);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = Q::default();
        q.push(10, 0, 10);
        q.push(4, 0, 4);
        assert_eq!(q.pop_msg(), Some(4));
        q.push(2, 0, 2);
        q.push(12, 0, 12);
        assert_eq!(q.pop_msg(), Some(2));
        assert_eq!(q.pop_msg(), Some(10));
        assert_eq!(q.pop_msg(), Some(12));
        assert!(q.pop().is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every pending key by `(time, seq)`, as a pop must return it.
    type Model = BTreeMap<(SimTime, u64), Key>;

    /// Queues a timer at `at` and records it in `model`.
    fn push(q: &mut EventQueue, pool: &mut KeyPool, model: &mut Model, at: SimTime) {
        let key = Key::new(at, at, 0, TIMER, 0);
        model.insert(
            (at, q.next_seq()),
            Key {
                seq: q.next_seq(),
                ..key
            },
        );
        q.push(pool, key);
    }

    /// Queues a dispatch's outbox at `now` the way the kernel does, and
    /// records every key in `model` with the seq it takes: a run of up to
    /// 39 receivers sharing a slot and a tick, a timer whose tag equals
    /// that slot, the same payload split across a later tick (as delivery
    /// chaos makes), a second run back on the first tick, a run of
    /// another sender with the same slot, and a unicast. The first tick
    /// may be `now`, the tick being popped.
    fn push_outbox(
        q: &mut EventQueue,
        pool: &mut KeyPool,
        model: &mut Model,
        now: SimTime,
        arg: u64,
    ) {
        let (slot, from) = (arg % 4, (arg % 3) as u32);
        let at = now + arg % 3;
        let later = at + 1 + arg % 2;
        let run = |time: SimTime, targets: std::ops::Range<u32>, from: u32| {
            targets.map(move |t| Key::new(time, now, t, from, slot))
        };
        let mut outbox: Vec<Key> = run(at, 0..(arg % 40) as u32, from).collect();
        outbox.push(Key::new(at, now, 99, TIMER, slot));
        outbox.extend(run(later, 100..102, from));
        outbox.extend(run(at, 200..203, from));
        outbox.extend(run(at, 300..302, from + 1));
        outbox.push(Key::new(at, now, 400, from, slot + 1));
        for (i, &k) in outbox.iter().enumerate() {
            let seq = q.next_seq() + i as u64;
            model.insert((k.time, seq), Key { seq, ..k });
        }
        q.push_outbox(pool, &mut outbox);
        assert!(outbox.is_empty());
    }

    proptest! {
        /// The queue is a total order: pops are sorted by (time, seq).
        #[test]
        fn pop_order_is_sorted(ticks in prop::collection::vec(0u64..1000, 0..200)) {
            let (mut q, mut pool) = (EventQueue::default(), KeyPool::default());
            for &t in &ticks {
                let time = SimTime::from_ticks(t);
                q.push(&mut pool, Key::new(time, time, 0, TIMER, t));
            }
            let mut popped = Vec::new();
            while let Some(e) = q.pop(&mut pool) {
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
            let (mut q, mut pool) = (EventQueue::default(), KeyPool::default());
            for &t in &ticks {
                let time = SimTime::from_ticks(t);
                q.push(&mut pool, Key::new(time, time, 0, TIMER, 0));
            }
            let mut got: Vec<u64> =
                std::iter::from_fn(|| q.pop(&mut pool)).map(|e| e.time.ticks()).collect();
            let mut want = ticks.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        /// Random pushes at or after the clock, pops, same-tick cascades
        /// (a pop that pushes up to 99 keys at its own tick, across chunk
        /// boundaries), whole outboxes queued as a dispatch queues them
        /// (runs, split runs, a unicast and a timer), and round trips of
        /// every pending key through a second queue in (time, seq) order,
        /// as the sharded scheduler moves them: every pop returns exactly
        /// the key a `BTreeMap<(time, seq), Key>` model pops, and every
        /// key chunk and receiver chunk returns to the pool.
        #[test]
        fn matches_an_ordered_set_model(
            ops in prop::collection::vec((0u8..12, 0u64..300), 0..400),
        ) {
            let mut pool = KeyPool::default();
            let (mut q, mut side) = (EventQueue::default(), EventQueue::default());
            let mut model = Model::new();
            let mut now = SimTime::ZERO;
            for (op, arg) in ops {
                match op {
                    0..=4 => push(&mut q, &mut pool, &mut model, now + arg % 12),
                    5..=6 => {
                        let got = q.pop(&mut pool);
                        prop_assert_eq!(got, model.pop_first().map(|(_, k)| k));
                        if let Some(k) = got {
                            now = k.time;
                        }
                    }
                    7..=8 => {
                        if let Some(k) = q.pop(&mut pool) {
                            prop_assert_eq!(Some(k), model.pop_first().map(|(_, k)| k));
                            now = k.time;
                            for _ in 0..arg % 100 {
                                push(&mut q, &mut pool, &mut model, now);
                            }
                        }
                    }
                    9 => {
                        while let Some(k) = q.pop(&mut pool) {
                            side.push_scheduled(&mut pool, k);
                        }
                        while let Some(k) = side.pop(&mut pool) {
                            q.push_scheduled(&mut pool, k);
                        }
                    }
                    _ => push_outbox(&mut q, &mut pool, &mut model, now, arg),
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.peek_time(), model.first_key_value().map(|(&(t, _), _)| t));
            }
            while let Some(k) = q.pop(&mut pool) {
                prop_assert_eq!(Some(k), model.pop_first().map(|(_, k)| k));
            }
            prop_assert!(model.is_empty());
            prop_assert!(pool.all_free());
        }
    }
}
