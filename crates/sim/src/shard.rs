//! Spatially-sharded execution of the deterministic kernel.
//!
//! ROADMAP item 1: run one scheduler "worker" per quad-tree shard with an
//! epoch-barrier conservative synchronization scheme, while keeping every
//! observable **bit-identical** to the sequential kernel. The scheme rests
//! on one physical fact the radio layer guarantees: every transmission
//! takes at least one tick (`RadioModel::tx_ticks(u) ≥ 1`), so an event
//! dispatched at tick `t` can only schedule *cross-shard* work at tick
//! `t+1` or later — a one-tick lookahead. Zero-delay events (self-sends,
//! timers) stay inside their own shard by construction.
//!
//! ## How determinism survives the reordering
//!
//! The sequential kernel dispatches events in `(time, seq)` order, where
//! `seq` is global push order. Within one tick `t`:
//!
//! * every event already queued at the start of the tick (a **root**) was
//!   pushed earlier, so roots carry smaller seqs than any event pushed
//!   *during* the tick (a **child**);
//! * cross-shard pushes land at `t+1` or later (lookahead), so all of a
//!   shard's tick-`t` children are created by that shard's own dispatches.
//!
//! Hence the sequential order restricted to one shard is: the shard's
//! roots in seq order, then its children in local FIFO push order — which
//! is exactly how each shard processes its window here, independently of
//! every other shard. At the window barrier, a **symbolic replay** of the
//! sequential heap (roots keyed by their real seqs; children assigned the
//! next global seqs in replay pop order) reconstructs the exact global
//! dispatch order the sequential kernel would have used — including the
//! exact numeric `seq` values, since the replay hands out the counter in
//! the same order the sequential loop would have. Traces, kernel metrics,
//! and actor statistics are staged per dispatch and emitted in that
//! canonical order; cross-shard messages sit in a mailbox until the
//! barrier and enter the destination shard's queue with their final seqs
//! (by shard id, then sender dispatch order, then per-shard push sequence
//! — all encoded in the replayed `seq`).
//!
//! External state shared across shards (a medium's energy ledger, a causal
//! log, an exfiltration buffer) is handled through the [`OrderTap`]: the
//! scheduler publishes a [`DispatchTag`] before each dispatch; components
//! stage tag-keyed side effects and re-key them into canonical order when
//! the `barrier_hook` hands them the window's tag order.
//!
//! ## Contract and caveats
//!
//! * A cross-shard event scheduled for the *current* tick violates the
//!   lookahead and panics — the shard plan was wrong, not the run.
//! * Globally-pinned actors ([`GLOBAL_SHARD`], e.g. fault injectors that
//!   mutate the shared medium) are processed first within each window.
//!   This matches the sequential order whenever their same-tick events
//!   carry earlier seqs than every co-tick node event — true for
//!   injectors that arm all their timers at install time.
//! * `stop()` requests and event-budget exhaustion take effect at window
//!   granularity (the sequential kernel stops mid-tick). Parallel drivers
//!   use budgets as livelock guards, not as precise cutoffs.

use crate::event::{EventKind, EventQueue, ScheduledEvent};
use crate::flight::ShardObs;
use crate::kernel::{Context, Kernel, Payload, RunReport, StopReason};
use crate::stats::Stats;
use crate::time::SimTime;
use crate::trace::{TraceEntry, TraceKind};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::rc::Rc;

/// Shard id of actors pinned to the global pseudo-shard (processed first
/// in every window; see the module docs for when this is sound).
pub const GLOBAL_SHARD: u32 = u32::MAX;

/// Identifies one dispatch inside a sharded window: `(window, slot, idx)`
/// where `slot` is the processing slot (shard, or the global slot) and
/// `idx` the dispatch index within that slot's window. Published through
/// the [`OrderTap`] so shared components can stage side effects for
/// barrier-time reordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DispatchTag {
    /// Window number within the current sharded run.
    pub window: u64,
    /// Processing slot (shard index, or the global slot).
    pub slot: u32,
    /// Dispatch index within the slot's window.
    pub idx: u32,
}

impl DispatchTag {
    /// The tag outside any sharded window (sequential execution).
    pub const NONE: DispatchTag = DispatchTag {
        window: u64::MAX,
        slot: u32::MAX,
        idx: u32::MAX,
    };

    /// Whether this is the out-of-window sentinel.
    pub fn is_none(&self) -> bool {
        *self == DispatchTag::NONE
    }
}

/// Shared cell the sharded scheduler writes the current [`DispatchTag`]
/// into before each dispatch (and resets to [`DispatchTag::NONE`] outside
/// windows).
pub type OrderTap = Rc<Cell<DispatchTag>>;

/// A fresh order tap, initialized to the sequential sentinel.
pub fn order_tap() -> OrderTap {
    Rc::new(Cell::new(DispatchTag::NONE))
}

/// The static shard assignment of a kernel's actors.
#[derive(Debug, Clone)]
pub struct ShardSchedule {
    shard_of_actor: Vec<u32>,
    shard_count: u32,
    workers: usize,
    misorder_merge: bool,
}

impl ShardSchedule {
    /// A schedule mapping actor `i` to `shard_of_actor[i]`
    /// (or [`GLOBAL_SHARD`]). Actors beyond the map (installed later,
    /// e.g. fault injectors) default to the global pseudo-shard.
    pub fn new(shard_of_actor: Vec<u32>, shard_count: u32) -> Self {
        assert!(shard_count > 0, "schedule needs at least one shard");
        for (actor, &s) in shard_of_actor.iter().enumerate() {
            assert!(
                s < shard_count || s == GLOBAL_SHARD,
                "actor {actor} assigned to shard {s} of {shard_count}"
            );
        }
        ShardSchedule {
            shard_of_actor,
            shard_count,
            workers: 1,
            misorder_merge: false,
        }
    }

    /// Sets the logical worker count: shards are striped round-robin over
    /// `workers` lanes and each window processes lane 0's shards first,
    /// then lane 1's, and so on. Any value (clamped to ≥ 1) must leave
    /// every observable unchanged — the property tests hold the kernel to
    /// that.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Deliberately sabotages the boundary merge: barrier emission and
    /// mailbox sequencing run in reversed order. Exists so the
    /// differential suite can prove it *notices* — never use outside
    /// mutation tests.
    #[doc(hidden)]
    pub fn with_misordered_merge(mut self) -> Self {
        self.misorder_merge = true;
        self
    }

    /// Shard count (excluding the global pseudo-shard).
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// Logical worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn slot_of_actor(&self, actor: usize) -> usize {
        let shard = self
            .shard_of_actor
            .get(actor)
            .copied()
            .unwrap_or(GLOBAL_SHARD);
        if shard == GLOBAL_SHARD {
            self.shard_count as usize
        } else {
            shard as usize
        }
    }

    /// Number of processing slots: one per shard plus the global slot.
    fn slot_count(&self) -> usize {
        self.shard_count as usize + 1
    }

    /// Slot processing order for one window: the global slot first, then
    /// shards striped round-robin across the worker lanes.
    fn slot_order(&self) -> Vec<usize> {
        let n = self.shard_count as usize;
        let mut order = Vec::with_capacity(n + 1);
        order.push(n); // global slot first
        for lane in 0..self.workers.min(n.max(1)) {
            order.extend((0..n).filter(|s| s % self.workers == lane));
        }
        order
    }
}

/// What one dispatch pushed, in push order.
enum PushRec<M> {
    /// A same-tick, same-shard child: dispatched later in this window;
    /// identified by its provisional id until the replay assigns its seq.
    InWindow { prov: u64 },
    /// Anything else: enters a shard queue at the barrier with its final
    /// seq (this includes every cross-shard message — the mailbox).
    Future {
        time: SimTime,
        target: usize,
        kind: EventKind<M>,
    },
}

/// One dispatch staged during a window, awaiting barrier emission.
struct WindowRec<M> {
    tag: DispatchTag,
    /// Final global seq (roots know it at dispatch; children get it from
    /// the replay).
    seq: u64,
    time: SimTime,
    enqueued_at: SimTime,
    trace: Option<TraceEntry>,
    stats: Stats,
    pushes: Vec<PushRec<M>>,
    /// `pushes.len()` at creation (the replay consumes `pushes`, but the
    /// queue-depth reconstruction still needs the count).
    push_count: usize,
    is_root: bool,
}

/// An in-window child waiting in a shard's FIFO.
struct ReadyChild<M> {
    prov: u64,
    target: usize,
    kind: EventKind<M>,
}

/// The buffers of a sharded run, kept on the [`Kernel`] and cleared
/// between uses, so that rounds on a standing kernel reuse their
/// capacity: the per-slot queues, and each window's records, child FIFO,
/// replay heap, canonical order, tags and staged events.
pub(crate) struct ShardBuffers<M> {
    queues: Vec<EventQueue<M>>,
    recs: Vec<WindowRec<M>>,
    ready: VecDeque<ReadyChild<M>>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    order: Vec<usize>,
    tags: Vec<DispatchTag>,
    staged: Vec<ScheduledEvent<M>>,
}

impl<M> Default for ShardBuffers<M> {
    fn default() -> Self {
        ShardBuffers {
            queues: Vec::new(),
            recs: Vec::new(),
            ready: VecDeque::new(),
            heap: BinaryHeap::new(),
            order: Vec::new(),
            tags: Vec::new(),
            staged: Vec::new(),
        }
    }
}

impl<M: Payload> Kernel<M> {
    /// Runs the kernel sharded under `schedule` until the queue drains,
    /// `until` passes, or `max_events` dispatches occur — producing
    /// bit-identical observables to [`Kernel::run_with_limits`] (see the
    /// module docs for the argument and the window-granularity caveats on
    /// stop/budget).
    ///
    /// `tap`, when provided, receives the current [`DispatchTag`] before
    /// every dispatch; `barrier_hook` is called at each window barrier
    /// with the window's tags in canonical (sequential) dispatch order so
    /// externally staged side effects can be re-keyed.
    pub fn run_sharded(
        &mut self,
        schedule: &ShardSchedule,
        until: Option<SimTime>,
        max_events: Option<u64>,
        tap: Option<&OrderTap>,
        barrier_hook: impl FnMut(&[DispatchTag]),
    ) -> RunReport {
        self.run_sharded_observed(schedule, until, max_events, tap, barrier_hook, None)
    }

    /// [`Kernel::run_sharded`] with per-shard accounting: when `obs` is
    /// provided, the scheduler fills its [`ShardObs`] arrays (events per
    /// slot, cross-shard staged/applied, barrier stall, lane queue
    /// depth) as it runs. The accounting is write-only bookkeeping into
    /// preallocated arrays — it perturbs no kernel observable and
    /// allocates nothing.
    pub fn run_sharded_observed(
        &mut self,
        schedule: &ShardSchedule,
        until: Option<SimTime>,
        max_events: Option<u64>,
        tap: Option<&OrderTap>,
        mut barrier_hook: impl FnMut(&[DispatchTag]),
        mut obs: Option<&mut ShardObs>,
    ) -> RunReport {
        self.start_actors();
        let mut bufs = std::mem::take(&mut self.shard_buffers);
        let queues = &mut bufs.queues;
        queues.resize_with(schedule.slot_count(), EventQueue::new);
        // Distribute the global queue into per-shard queues, preserving
        // every event's (time, seq, enqueued_at) verbatim.
        for ev in self.queue.drain_all() {
            let slot = schedule.slot_of_actor(ev.target);
            queues[slot].push_scheduled(ev);
        }
        let mut next_seq = self.queue.next_seq();
        let mut pending: usize = queues.iter().map(|q| q.len()).sum();
        let slot_order = schedule.slot_order();
        let set_tap = |t: DispatchTag| {
            if let Some(tap) = tap {
                tap.set(t);
            }
        };

        let mut processed = 0u64;
        let mut window: u64 = 0;
        let mut outbox: Vec<(SimTime, usize, EventKind<M>)> = Vec::new();
        let finish = |kernel: &mut Kernel<M>, mut bufs: ShardBuffers<M>, next_seq: u64| {
            // Re-merge leftovers into the global queue with their exact
            // (time, seq) identities so a sequential continuation picks
            // up precisely where a sequential run would have been.
            for q in &mut bufs.queues {
                for ev in q.drain() {
                    kernel.queue.push_scheduled(ev);
                }
            }
            kernel.queue.set_next_seq(next_seq);
            kernel.flush_metrics_scratch();
            kernel.shard_buffers = bufs;
        };

        loop {
            if let Some(budget) = max_events {
                if processed >= budget {
                    set_tap(DispatchTag::NONE);
                    finish(self, bufs, next_seq);
                    return RunReport {
                        events_processed: processed,
                        end_time: self.now,
                        stop: StopReason::EventLimit,
                    };
                }
            }
            let Some(tick) = bufs.queues.iter().filter_map(|q| q.peek_time()).min() else {
                set_tap(DispatchTag::NONE);
                finish(self, bufs, next_seq);
                return RunReport {
                    events_processed: processed,
                    end_time: self.now,
                    stop: StopReason::QueueEmpty,
                };
            };
            if let Some(horizon) = until {
                if tick > horizon {
                    self.now = horizon;
                    set_tap(DispatchTag::NONE);
                    finish(self, bufs, next_seq);
                    return RunReport {
                        events_processed: processed,
                        end_time: self.now,
                        stop: StopReason::TimeLimit,
                    };
                }
            }
            debug_assert!(tick >= self.now, "time ran backwards");
            self.now = tick;

            // ---- The window: each slot drains its tick-`tick` events ----
            let ShardBuffers {
                queues,
                recs,
                ready,
                heap,
                order,
                tags,
                staged,
            } = &mut bufs;
            recs.clear();
            let mut prov_rec: BTreeMap<u64, usize> = BTreeMap::new();
            let mut next_prov: u64 = 0;
            let mut stop = false;
            for &slot in &slot_order {
                let mut idx_in_slot: u32 = 0;
                loop {
                    // Roots first (they pop in seq order and all carry
                    // smaller seqs than any child), then the FIFO.
                    let (seq, enqueued_at, target, kind, prov, is_root) =
                        if queues[slot].peek_time() == Some(tick) {
                            let ev = queues[slot].pop().expect("peeked event vanished");
                            (ev.seq, ev.enqueued_at, ev.target, ev.kind, 0, true)
                        } else if let Some(child) = ready.pop_front() {
                            (u64::MAX, tick, child.target, child.kind, child.prov, false)
                        } else {
                            break;
                        };
                    let tag = DispatchTag {
                        window,
                        slot: slot as u32,
                        idx: idx_in_slot,
                    };
                    idx_in_slot += 1;
                    set_tap(tag);
                    let trace = if self.tracer.is_enabled() || self.flight.is_some() {
                        let (tk, a, b) = match &kind {
                            EventKind::Message { from, msg } => {
                                (TraceKind::Message, *from, msg.discriminant())
                            }
                            EventKind::Timer { tag } => (TraceKind::Timer, 0, *tag),
                        };
                        Some(TraceEntry {
                            time: tick,
                            target,
                            kind: tk,
                            a,
                            b,
                        })
                    } else {
                        None
                    };
                    let mut scratch = Stats::new();
                    let mut actor = self.actors[target]
                        .take()
                        .unwrap_or_else(|| panic!("actor {target} re-entered"));
                    {
                        let mut ctx = Context {
                            now: self.now,
                            self_id: target,
                            outbox: &mut outbox,
                            rng: &mut self.rngs[target],
                            stats: &mut scratch,
                            stop_requested: &mut stop,
                            actor_count: self.actors.len(),
                        };
                        match kind {
                            EventKind::Message { from, msg } => {
                                actor.on_message(&mut ctx, from, msg)
                            }
                            EventKind::Timer { tag } => actor.on_timer(&mut ctx, tag),
                        }
                    }
                    self.actors[target] = Some(actor);
                    let mut pushes = Vec::with_capacity(outbox.len());
                    for (time, push_target, push_kind) in outbox.drain(..) {
                        let target_slot = schedule.slot_of_actor(push_target);
                        if time == tick && target_slot == slot {
                            let prov = next_prov;
                            next_prov += 1;
                            ready.push_back(ReadyChild {
                                prov,
                                target: push_target,
                                kind: push_kind,
                            });
                            pushes.push(PushRec::InWindow { prov });
                        } else {
                            assert!(
                                time > tick || target_slot == slot,
                                "cross-shard event violates the one-tick lookahead: \
                                 dispatch at tick {} on slot {slot} scheduled actor \
                                 {push_target} (slot {target_slot}) for tick {}",
                                tick.ticks(),
                                time.ticks(),
                            );
                            if target_slot != slot {
                                if let Some(o) = obs.as_deref_mut() {
                                    o.note_cross(slot, target_slot);
                                }
                            }
                            pushes.push(PushRec::Future {
                                time,
                                target: push_target,
                                kind: push_kind,
                            });
                        }
                    }
                    let rec_idx = recs.len();
                    if !is_root {
                        prov_rec.insert(prov, rec_idx);
                    }
                    let push_count = pushes.len();
                    recs.push(WindowRec {
                        tag,
                        seq,
                        time: tick,
                        enqueued_at,
                        trace,
                        stats: scratch,
                        pushes,
                        push_count,
                        is_root,
                    });
                }
            }
            set_tap(DispatchTag::NONE);
            processed += recs.len() as u64;

            // ---- Symbolic replay: reconstruct sequential dispatch order ----
            // Roots enter the heap with their real seqs; popping a record
            // assigns the global counter to its pushes in push order —
            // exactly when the sequential loop would have.
            heap.clear();
            heap.extend(
                recs.iter()
                    .enumerate()
                    .filter(|(_, r)| r.is_root)
                    .map(|(i, r)| Reverse((r.seq, i))),
            );
            order.clear();
            staged.clear();
            while let Some(Reverse((_, ri))) = heap.pop() {
                order.push(ri);
                let pushes = std::mem::take(&mut recs[ri].pushes);
                for push in pushes {
                    let seq = next_seq;
                    next_seq += 1;
                    match push {
                        PushRec::InWindow { prov } => {
                            let ci = prov_rec[&prov];
                            recs[ci].seq = seq;
                            heap.push(Reverse((seq, ci)));
                        }
                        PushRec::Future { time, target, kind } => {
                            staged.push(ScheduledEvent {
                                time,
                                seq,
                                enqueued_at: tick,
                                target,
                                kind,
                            });
                        }
                    }
                }
            }
            debug_assert_eq!(order.len(), recs.len(), "replay lost a dispatch");
            if schedule.misorder_merge {
                order.reverse();
                let seqs: Vec<u64> = staged.iter().map(|e| e.seq).collect();
                for (ev, seq) in staged.iter_mut().zip(seqs.into_iter().rev()) {
                    ev.seq = seq;
                }
            }

            // ---- Barrier emission: canonical-order observables ----
            tags.clear();
            for &ri in order.iter() {
                let rec = &recs[ri];
                let n_pushes = rec.push_count;
                pending -= 1;
                if self.metrics {
                    let latency = rec.time.ticks().saturating_sub(rec.enqueued_at.ticks());
                    self.metrics_scratch.0.push(latency as f64);
                    self.metrics_scratch.1.push(pending as f64);
                }
                pending += n_pushes;
                if let Some(entry) = &rec.trace {
                    if let Some(flight) = self.flight.as_mut() {
                        flight.record(entry);
                    }
                    self.tracer.record(entry.clone());
                }
                if let Some(o) = obs.as_deref_mut() {
                    o.note_dispatch(rec.tag.slot as usize);
                }
                self.stats.absorb(&rec.stats);
                tags.push(rec.tag);
            }
            barrier_hook(tags);

            // ---- Mailbox exchange: futures enter their shard queues ----
            for ev in staged.drain(..) {
                let slot = schedule.slot_of_actor(ev.target);
                queues[slot].push_scheduled(ev);
            }
            if let Some(o) = obs.as_deref_mut() {
                for (slot, q) in queues.iter().enumerate() {
                    o.note_depth(slot, q.len() as u64);
                }
                o.end_window();
            }

            window += 1;
            if stop {
                finish(self, bufs, next_seq);
                return RunReport {
                    events_processed: processed,
                    end_time: self.now,
                    stop: StopReason::Stopped,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Actor, ActorId};

    /// Replies to every message on the opposite parity actor with delay 1
    /// (cross-shard safe), burns rng, and records stats.
    struct Relay {
        peer: usize,
        hops_left: u32,
    }

    impl Actor<u32> for Relay {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ActorId, msg: u32) {
            ctx.stats().incr("relay.rx");
            ctx.stats().observe("relay.msg", msg as f64);
            let jitter = ctx.rng().bounded_u64(3);
            if self.hops_left > 0 {
                self.hops_left -= 1;
                ctx.send_after(self.peer, 1 + jitter, msg + 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, tag: u64) {
            ctx.stats().incr("relay.timer");
            ctx.send_after(self.peer, 1, tag as u32);
        }
    }

    /// Same-tick fan-out inside one shard: timers cascade at delay 0 to
    /// co-shard actors, exercising the in-window FIFO path.
    struct Cascade {
        downstream: Vec<usize>,
    }

    impl Actor<u32> for Cascade {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_timer(2, 9);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ActorId, msg: u32) {
            ctx.stats().incr("cascade.rx");
            if msg < 3 {
                for &d in &self.downstream {
                    ctx.send(d, SimTime::ZERO, msg + 1);
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _tag: u64) {
            for &d in &self.downstream {
                ctx.send(d, SimTime::ZERO, 0);
            }
        }
    }

    fn build_relay_ring(n: usize, hops: u32) -> Kernel<u32> {
        let mut k: Kernel<u32> = Kernel::new(42);
        for i in 0..n {
            k.add_actor(Box::new(Relay {
                peer: (i + 1) % n,
                hops_left: hops,
            }));
        }
        k.enable_tracing();
        k.enable_metrics();
        for i in 0..n {
            k.schedule_message(SimTime::from_ticks((i % 3) as u64), i, i, 1);
        }
        k
    }

    /// Two shards over a ring of relays: evens in shard 0, odds in shard 1.
    fn parity_schedule(n: usize) -> ShardSchedule {
        ShardSchedule::new((0..n).map(|i| (i % 2) as u32).collect(), 2)
    }

    fn observables(k: &Kernel<u32>) -> (Vec<TraceEntry>, String) {
        (k.trace_snapshot(), format!("{:?}", k.stats()))
    }

    #[test]
    fn sharded_relay_ring_is_bit_identical_to_sequential() {
        let mut seq = build_relay_ring(8, 20);
        let seq_report = seq.run();

        let mut par = build_relay_ring(8, 20);
        let schedule = parity_schedule(8);
        let par_report = par.run_sharded(&schedule, None, None, None, |_| {});

        assert_eq!(seq_report, par_report);
        assert_eq!(observables(&seq), observables(&par));
    }

    #[test]
    fn in_window_cascades_match_sequential() {
        let build = || {
            let mut k: Kernel<u32> = Kernel::new(7);
            // Shard 0: actors 0..3 cascading at delay 0; shard 1: 3..6.
            for base in [0usize, 3] {
                for i in 0..3 {
                    k.add_actor(Box::new(Cascade {
                        downstream: vec![base + (i + 1) % 3, base + (i + 2) % 3],
                    }));
                }
            }
            k.enable_tracing();
            k.enable_metrics();
            k
        };
        let mut seq = build();
        let seq_report = seq.run();
        let mut par = build();
        let schedule = ShardSchedule::new(vec![0, 0, 0, 1, 1, 1], 2);
        let par_report = par.run_sharded(&schedule, None, None, None, |_| {});
        assert_eq!(seq_report, par_report);
        assert_eq!(observables(&seq), observables(&par));
    }

    #[test]
    fn worker_count_never_changes_observables() {
        let schedule = ShardSchedule::new((0..8).map(|i| (i % 4) as u32).collect(), 4);
        let baseline = {
            let mut k = build_relay_ring(8, 15);
            let r = k.run_sharded(&schedule.clone().with_workers(1), None, None, None, |_| {});
            (r, observables(&k))
        };
        for workers in [2usize, 4, 11] {
            let mut k = build_relay_ring(8, 15);
            let r = k.run_sharded(
                &schedule.clone().with_workers(workers),
                None,
                None,
                None,
                |_| {},
            );
            assert_eq!(baseline.0, r, "workers={workers}");
            assert_eq!(baseline.1, observables(&k), "workers={workers}");
        }
    }

    #[test]
    fn sharded_prefix_then_sequential_suffix_matches_pure_sequential() {
        let mut seq = build_relay_ring(6, 30);
        let seq_report = seq.run();

        let mut par = build_relay_ring(6, 30);
        let schedule = parity_schedule(6);
        let mid = par.run_sharded(&schedule, Some(SimTime::from_ticks(9)), None, None, |_| {});
        assert_eq!(mid.stop, StopReason::TimeLimit);
        // Leftovers were re-merged with their exact (time, seq) identities,
        // so a plain sequential continuation must land on the same run.
        let rest = par.run();
        assert_eq!(
            seq_report.events_processed,
            mid.events_processed + rest.events_processed
        );
        assert_eq!(seq_report.end_time, rest.end_time);
        assert_eq!(observables(&seq), observables(&par));
    }

    #[test]
    fn barrier_hook_sees_each_dispatch_once_in_canonical_order() {
        let mut par = build_relay_ring(8, 20);
        let schedule = parity_schedule(8);
        let mut seen = 0u64;
        let mut last_window = None;
        let report = par.run_sharded(&schedule, None, None, None, |tags| {
            seen += tags.len() as u64;
            for t in tags {
                assert!(!t.is_none());
                if let Some(w) = last_window {
                    assert!(t.window >= w);
                }
                last_window = Some(t.window);
            }
        });
        assert_eq!(seen, report.events_processed);
    }

    #[test]
    fn order_tap_is_none_outside_windows() {
        let tap = order_tap();
        let mut par = build_relay_ring(4, 5);
        let schedule = parity_schedule(4);
        let tap_in_hook = tap.clone();
        par.run_sharded(&schedule, None, None, Some(&tap), move |_| {
            // At the barrier the window is over: the tap must be reset.
            assert!(tap_in_hook.get().is_none());
        });
        assert!(tap.get().is_none());
    }

    #[test]
    fn misordered_merge_diverges_from_sequential() {
        let mut seq = build_relay_ring(8, 20);
        seq.run();
        let mut par = build_relay_ring(8, 20);
        let schedule = parity_schedule(8).with_misordered_merge();
        par.run_sharded(&schedule, None, None, None, |_| {});
        // The sabotage knob must be *observable* — otherwise the
        // differential suite could not certify the merge order.
        assert_ne!(observables(&seq), observables(&par));
    }

    #[test]
    #[should_panic(expected = "one-tick lookahead")]
    fn same_tick_cross_shard_send_panics() {
        struct Bad;
        impl Actor<u32> for Bad {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(1, 0);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _tag: u64) {
                // Delay-0 send to an actor in the *other* shard.
                ctx.send(1, SimTime::ZERO, 0);
            }
        }
        struct Sink;
        impl Actor<u32> for Sink {
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
        }
        let mut k: Kernel<u32> = Kernel::new(1);
        k.add_actor(Box::new(Bad));
        k.add_actor(Box::new(Sink));
        let schedule = ShardSchedule::new(vec![0, 1], 2);
        k.run_sharded(&schedule, None, None, None, |_| {});
    }

    #[test]
    fn actors_beyond_schedule_run_on_global_slot() {
        let mut seq = build_relay_ring(4, 10);
        // A late monitor actor outside the shard map.
        seq.add_actor(Box::new(Relay {
            peer: 0,
            hops_left: 0,
        }));
        seq.schedule_timer(SimTime::from_ticks(1), 4, 77);
        let seq_report = seq.run();

        let mut par = build_relay_ring(4, 10);
        par.add_actor(Box::new(Relay {
            peer: 0,
            hops_left: 0,
        }));
        par.schedule_timer(SimTime::from_ticks(1), 4, 77);
        // Schedule only covers the first four actors.
        let schedule = parity_schedule(4);
        let par_report = par.run_sharded(&schedule, None, None, None, |_| {});
        assert_eq!(seq_report, par_report);
        assert_eq!(observables(&seq), observables(&par));
    }

    #[test]
    fn shard_obs_accounting_matches_the_run_report() {
        let mut par = build_relay_ring(8, 20);
        let schedule = parity_schedule(8);
        let mut obs = ShardObs::new(2);
        let report = par.run_sharded_observed(&schedule, None, None, None, |_| {}, Some(&mut obs));
        // Exact accounting: per-slot sums equal the kernel's own total.
        assert_eq!(obs.total_events(), report.events_processed);
        // The relay ring alternates parities, so every send is
        // cross-shard: staged and applied totals match and are nonzero.
        let staged: u64 = (0..obs.slot_count()).map(|s| obs.cross_staged(s)).sum();
        assert_eq!(staged, obs.cross_total());
        assert!(obs.cross_total() > 0);
        assert!(obs.windows() > 0);
        // Observing changes no observable: a blind run is bit-identical.
        let mut blind = build_relay_ring(8, 20);
        let blind_report = blind.run_sharded(&schedule, None, None, None, |_| {});
        assert_eq!(report, blind_report);
        assert_eq!(observables(&par), observables(&blind));
    }

    #[test]
    fn undercount_tap_breaks_exact_accounting() {
        let mut par = build_relay_ring(8, 20);
        let schedule = parity_schedule(8);
        let mut obs = ShardObs::new(2).with_undercount_tap();
        let report = par.run_sharded_observed(&schedule, None, None, None, |_| {}, Some(&mut obs));
        assert!(obs.total_events() < report.events_processed);
    }

    #[test]
    fn flight_recorder_is_identical_across_engines() {
        let shard_map: Vec<u32> = (0..8).map(|i| (i % 2) as u32).collect();
        let snapshot_all = |k: &Kernel<u32>| -> Vec<Vec<crate::flight::FlightRec>> {
            let rec = k.flight_recorder().expect("recorder installed");
            (0..rec.slot_count()).map(|s| rec.snapshot(s)).collect()
        };
        let mut seq = build_relay_ring(8, 20);
        seq.set_flight_recorder(crate::flight::FlightRecorder::new(shard_map.clone(), 2, 16));
        seq.run();

        let mut par = build_relay_ring(8, 20);
        par.set_flight_recorder(crate::flight::FlightRecorder::new(shard_map, 2, 16));
        par.run_sharded(&parity_schedule(8), None, None, None, |_| {});

        // Same stamps, same retained events, same drop counts — the
        // recorder itself is a deterministic observable.
        assert_eq!(snapshot_all(&seq), snapshot_all(&par));
        let (s, p) = (
            seq.flight_recorder().unwrap(),
            par.flight_recorder().unwrap(),
        );
        assert_eq!(s.recorded(), p.recorded());
        for slot in 0..s.slot_count() {
            assert_eq!(s.dropped(slot), p.dropped(slot));
        }
        // And it did not perturb the ordinary observables either.
        assert_eq!(observables(&seq), observables(&par));
    }

    #[test]
    fn event_budget_stops_at_window_granularity() {
        let mut par = build_relay_ring(8, 50);
        let schedule = parity_schedule(8);
        let report = par.run_sharded(&schedule, None, Some(10), None, |_| {});
        assert_eq!(report.stop, StopReason::EventLimit);
        assert!(report.events_processed >= 10);
        assert!(par.pending_events() > 0);
    }
}
