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
//! every other shard. At the window barrier, a **symbolic replay**
//! reconstructs the exact global dispatch order the sequential kernel
//! would have used: one sort puts the window's roots in seq order, and a
//! front-to-back walk of that order hands out the next global seqs to
//! each dispatch's pushes in push order, appending each same-tick child
//! as it gets its seq. That is the sequential queue's pop order (a tick's
//! FIFO bucket pops children in the order they got their seqs), and it
//! yields the exact numeric `seq` values, since the walk hands out the
//! counter in the same order the sequential loop would have. Cross-shard
//! messages sit in a mailbox until the barrier and enter the destination
//! shard's queue with their final seqs.
//!
//! ## Keeping every bucket in seq order
//!
//! The shard queues are the kernel's FIFO tick buckets, filled with keys
//! that already carry their seqs, so each bucket must receive its keys
//! in ascending seq. Two hand-overs guarantee it:
//!
//! * the start-of-run split pops the global queue in `(time, seq)` order;
//! * the mailbox records each future key as the replay walk gives it its
//!   seq, so the barrier hands the keys over in ascending final seq, all
//!   above any seq already queued (the sabotaged merge reverses both the
//!   seqs and the mailbox, and stays ordered too).
//!
//! A run goes on until every shard queue drains, so nothing is left to
//! hand back: the run returns only the seq counter to the global queue.
//!
//! Given a [`ShardObs`], [`Kernel::run_sharded`] also keeps per-shard
//! accounting: a cross-shard event counts as staged when its dispatch
//! pushes it and as applied when the mailbox exchange enters it into the
//! destination queue.
//!
//! ## What is staged, and what is not
//!
//! A window records each dispatch's observables in flat window buffers,
//! one range per dispatch, and emits them at the barrier in the canonical
//! order: the trace entry, the kernel's self-metrics, and the handler's
//! histogram observations, the only handler statistics that are
//! order-sensitive (a histogram keeps its samples in order). Handler
//! **counters are not staged**: they are `u64` sums, which commute, so
//! handlers add them straight to the kernel's [`Stats`](crate::Stats) in
//! shard order and the totals come out the same.
//!
//! External state shared across shards (a medium's energy ledger, a causal
//! log, an exfiltration buffer) is handled through the [`OrderTap`]: the
//! scheduler publishes each dispatch's window-local position (its index in
//! processing order) before dispatching it. A component stages its side
//! effects under that position, and the `barrier_hook` hands it the
//! window's canonical order, a list of positions, to replay them through a
//! [`BarrierReplay`].
//!
//! ## Contract: what a window refuses
//!
//! Two things a window cannot reproduce panic with a message that names
//! them, so a run is either bit-identical to the sequential one or no run:
//!
//! * a cross-shard event scheduled for the *current* tick violates the
//!   lookahead — the shard plan was wrong, not the run;
//! * an actor outside the [`ShardSchedule`]'s map has no shard to run on,
//!   so a kernel with one is refused before anything dispatches.
//!
//! Like [`Kernel::run`], a run that dispatches one billion events without
//! draining panics as a suspected livelock.

use crate::event::{EventQueue, Key};
use crate::kernel::{Kernel, Payload, RunReport, StopReason, LIVELOCK, LIVELOCK_BUDGET};
use crate::shard_obs::ShardObs;
use crate::stats::StagedStats;
use crate::time::SimTime;
use crate::trace::TraceEntry;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

/// Shared cell the sharded scheduler writes the current dispatch's
/// window-local position into before each dispatch, and resets to `None`
/// outside windows.
pub type OrderTap = Rc<Cell<Option<u32>>>;

/// A fresh order tap, outside any window.
pub fn order_tap() -> OrderTap {
    Rc::new(Cell::new(None))
}

/// Replays side effects staged during one sharded window in the window's
/// canonical dispatch order.
///
/// A component stages each entry under the window position its
/// [`OrderTap`] held. A window dispatches one event at a time, so the
/// positions of the staged entries never decrease. At the barrier,
/// [`BarrierReplay::replay`] counts the entries per position into a flat
/// offset array, then walks the hook's canonical order and visits each
/// dispatch's entries in staging order. That is linear in the window and
/// its entries, and a warm replay allocates nothing. One replay serves any
/// number of components in turn.
#[derive(Debug, Default)]
pub struct BarrierReplay {
    starts: Vec<usize>,
}

impl BarrierReplay {
    /// Calls `visit` with the index of every staged entry, in canonical
    /// order: the entries of `order[0]`'s dispatch first, each dispatch's
    /// in staging order. `positions` are the entries' window positions in
    /// staging order; `order` is the barrier hook's canonical order.
    pub fn replay(
        &mut self,
        order: &[u32],
        positions: impl IntoIterator<Item = u32>,
        mut visit: impl FnMut(usize),
    ) {
        let starts = &mut self.starts;
        starts.clear();
        starts.resize(order.len() + 1, 0);
        let mut last = 0;
        for pos in positions {
            debug_assert!(pos >= last, "entries staged out of window order");
            last = pos;
            starts[pos as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        for &pos in order {
            (starts[pos as usize]..starts[pos as usize + 1]).for_each(&mut visit);
        }
    }
}

/// The static shard assignment of a kernel's actors. It must map every
/// actor of the kernel it runs: [`Kernel::run_sharded`] refuses a kernel
/// with an actor beyond the map.
#[derive(Debug, Clone)]
pub struct ShardSchedule {
    shard_of_actor: Vec<u32>,
    shard_count: u32,
    /// Shard processing order for one window: shards striped round-robin
    /// across the worker lanes.
    shard_order: Vec<usize>,
    misorder_merge: bool,
}

impl ShardSchedule {
    /// A schedule mapping actor `i` to shard `shard_of_actor[i]`.
    pub fn new(shard_of_actor: Vec<u32>, shard_count: u32) -> Self {
        assert!(shard_count > 0, "schedule needs at least one shard");
        for (actor, &s) in shard_of_actor.iter().enumerate() {
            assert!(
                s < shard_count,
                "actor {actor} assigned to shard {s} of {shard_count}"
            );
        }
        ShardSchedule {
            shard_of_actor,
            shard_count,
            shard_order: Vec::new(),
            misorder_merge: false,
        }
        .with_workers(1)
    }

    /// Sets the logical worker count: shards are striped round-robin over
    /// `workers` lanes and each window processes lane 0's shards first,
    /// then lane 1's, and so on. Any value (clamped to ≥ 1) must leave
    /// every observable unchanged — the property tests hold the kernel to
    /// that.
    pub fn with_workers(mut self, workers: usize) -> Self {
        let workers = workers.max(1);
        let n = self.shard_count as usize;
        self.shard_order.clear();
        for lane in 0..workers.min(n) {
            self.shard_order
                .extend((0..n).filter(|s| s % workers == lane));
        }
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

    /// Shard count.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    fn shard_of(&self, actor: usize) -> usize {
        self.shard_of_actor[actor] as usize
    }
}

/// One push of a dispatch, recorded in the window's push buffer.
#[derive(Clone, Copy)]
enum PushRec {
    /// A same-tick, same-shard child, dispatched later in this window:
    /// the window's `n`-th child, since children dispatch in push order.
    InWindow(usize),
    /// Anything else: `staged[i]`, which enters a shard queue at the
    /// barrier with its final seq (this includes every cross-shard
    /// message — the mailbox).
    Future(usize),
}

/// One dispatch of a window, awaiting barrier emission.
struct WindowRec {
    shard: u32,
    enqueued_at: SimTime,
    trace: Option<TraceEntry>,
    /// Its pushes, in push order, in [`ShardBuffers::pushes`].
    pushes: Range<usize>,
    /// Its histogram observations in [`ShardBuffers::stats`].
    stats: Range<usize>,
}

/// The buffers of a sharded run, kept on the [`Kernel`] and cleared
/// between uses, so that rounds on a standing kernel reuse their
/// capacity: the per-shard queues, and each window's records, pushes,
/// child FIFO, roots, canonical order, staged keys, mailbox and staged
/// histogram observations.
#[derive(Default)]
pub(crate) struct ShardBuffers {
    queues: Vec<EventQueue>,
    recs: Vec<WindowRec>,
    pushes: Vec<PushRec>,
    /// In-window children awaiting dispatch, in push order.
    ready: VecDeque<Key>,
    /// Record index of the window's `n`-th child.
    child_rec: Vec<u32>,
    /// The window's roots as `(seq, record)`, in processing order.
    roots: Vec<(u64, u32)>,
    order: Vec<u32>,
    /// The window's future keys, in push order, awaiting their seqs.
    staged: Vec<Key>,
    /// The same keys with their final seqs, in ascending seq: the order
    /// the barrier hands them to their queues.
    mailbox: Vec<Key>,
    stats: StagedStats,
}

impl<M: Payload> Kernel<M> {
    /// Runs the kernel sharded under `schedule` until the queue drains,
    /// producing bit-identical observables to [`Kernel::run`] (see the
    /// module docs for the argument).
    ///
    /// `tap`, when provided, receives the window position of every
    /// dispatch before it runs; `barrier_hook` is called at each window
    /// barrier with the window's positions in canonical (sequential)
    /// dispatch order, so externally staged side effects can be replayed
    /// ([`BarrierReplay`]).
    ///
    /// `obs`, when provided, receives per-shard accounting as the run
    /// goes: events per shard, cross-shard events staged at dispatch and
    /// applied when the barrier's mailbox exchange enters them into
    /// their destination queue, barrier stall and lane queue depth. The
    /// accounting is write-only bookkeeping into preallocated
    /// [`ShardObs`] arrays — it perturbs no kernel observable and
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// On what a window cannot reproduce (the module docs' contract): an
    /// actor outside `schedule`'s map or a cross-shard event inside the
    /// one-tick lookahead; and, like [`Kernel::run`], after one billion
    /// events without draining.
    pub fn run_sharded(
        &mut self,
        schedule: &ShardSchedule,
        tap: Option<&OrderTap>,
        mut barrier_hook: impl FnMut(&[u32]),
        mut obs: Option<&mut ShardObs>,
    ) -> RunReport {
        let mapped = schedule.shard_of_actor.len();
        assert!(
            self.actor_count() <= mapped,
            "sharded run refused: actor {mapped} is outside the shard map, which covers \
             actors 0..{mapped}; a window has no shard to run it on"
        );
        self.start_actors();
        let mut bufs = std::mem::take(&mut self.shard_buffers);
        let mut outbox = std::mem::take(&mut self.outbox_scratch);
        outbox.clear();
        bufs.queues
            .resize_with(schedule.shard_count as usize, EventQueue::default);
        // Distribute the global queue into per-shard queues, preserving
        // every key verbatim. It pops in (time, seq) order, one receiver
        // of a run at a time, so each shard tick receives single keys in
        // seq order; shard queues never hold a run.
        let mut pending: usize = 0;
        while let Some(key) = self.queue.pop(&mut self.pool) {
            let shard = schedule.shard_of(key.target());
            bufs.queues[shard].push_scheduled(&mut self.pool, key);
            pending += 1;
        }
        let mut next_seq = self.queue.next_seq();
        let set_tap = |pos: Option<u32>| {
            if let Some(tap) = tap {
                tap.set(pos);
            }
        };

        let mut processed = 0u64;
        loop {
            assert!(processed < LIVELOCK_BUDGET, "{LIVELOCK}");
            let Some(tick) = bufs.queues.iter().filter_map(|q| q.peek_time()).min() else {
                break;
            };
            debug_assert!(tick >= self.now, "time ran backwards");
            self.now = tick;

            // ---- The window: each shard drains its tick-`tick` events ----
            let ShardBuffers {
                queues,
                recs,
                pushes,
                ready,
                child_rec,
                roots,
                order,
                staged,
                mailbox,
                stats,
            } = &mut bufs;
            recs.clear();
            pushes.clear();
            child_rec.clear();
            roots.clear();
            staged.clear();
            stats.clear();
            let mut children = 0;
            for &shard in &schedule.shard_order {
                loop {
                    // Roots first (they pop in seq order and all carry
                    // smaller seqs than any child), then the FIFO. Roots
                    // are recorded with their real seqs for the replay.
                    let key = if queues[shard].peek_time() == Some(tick) {
                        let key = queues[shard]
                            .pop(&mut self.pool)
                            .expect("peeked event vanished");
                        roots.push((key.seq, recs.len() as u32));
                        key
                    } else if let Some(key) = ready.pop_front() {
                        child_rec.push(recs.len() as u32);
                        key
                    } else {
                        break;
                    };
                    set_tap(Some(recs.len() as u32));
                    let event = self.slab.event(&key);
                    let trace = self
                        .trace
                        .is_some()
                        .then(|| TraceEntry::dispatch(tick, key.target(), &event));
                    let (pushes_start, stats_start) = (pushes.len(), stats.len());
                    self.dispatch(key.target(), Some(event), &mut outbox, Some(&mut *stats));
                    for push in outbox.drain(..) {
                        let target_shard = schedule.shard_of(push.target());
                        if push.time == tick && target_shard == shard {
                            pushes.push(PushRec::InWindow(children));
                            children += 1;
                            ready.push_back(push);
                        } else {
                            assert!(
                                push.time > tick || target_shard == shard,
                                "cross-shard event violates the one-tick lookahead: \
                                 dispatch at tick {} on shard {shard} scheduled actor \
                                 {} (shard {target_shard}) for tick {}",
                                tick.ticks(),
                                push.target,
                                push.time.ticks(),
                            );
                            if target_shard != shard {
                                if let Some(o) = obs.as_deref_mut() {
                                    o.note_staged(shard);
                                }
                            }
                            pushes.push(PushRec::Future(staged.len()));
                            staged.push(push);
                        }
                    }
                    recs.push(WindowRec {
                        shard: shard as u32,
                        enqueued_at: key.enqueued_at,
                        trace,
                        pushes: pushes_start..pushes.len(),
                        stats: stats_start..stats.len(),
                    });
                }
            }
            set_tap(None);
            processed += recs.len() as u64;

            // ---- Symbolic replay: reconstruct sequential dispatch order ----
            // The sequential queue pops the roots in seq order, then the
            // children in the order they were pushed: every root's seq is
            // below every child's, and children receive increasing seqs
            // as they are appended. Walking `order` from the front hands
            // the global counter to each record's pushes in push order —
            // exactly when the sequential loop would have — so the
            // mailbox, filled as the futures get their seqs, is in
            // ascending seq.
            roots.sort_unstable();
            order.clear();
            order.extend(roots.iter().map(|&(_, ri)| ri));
            mailbox.clear();
            let mut next = 0;
            while let Some(&ri) = order.get(next) {
                next += 1;
                for &push in &pushes[recs[ri as usize].pushes.clone()] {
                    let seq = next_seq;
                    next_seq += 1;
                    match push {
                        PushRec::InWindow(child) => order.push(child_rec[child]),
                        PushRec::Future(i) => mailbox.push(Key { seq, ..staged[i] }),
                    }
                }
            }
            debug_assert_eq!(order.len(), recs.len(), "replay lost a dispatch");
            if schedule.misorder_merge {
                // Emit the window backwards and hand the futures their
                // seqs in reverse; the mailbox stays in ascending seq.
                order.reverse();
                let n = mailbox.len();
                for j in 0..n / 2 {
                    (mailbox[j].seq, mailbox[n - 1 - j].seq) =
                        (mailbox[n - 1 - j].seq, mailbox[j].seq);
                }
                mailbox.reverse();
            }

            // ---- Barrier emission: canonical-order observables ----
            for &ri in order.iter() {
                let rec = &recs[ri as usize];
                // Saturating: a misordered merge emits children before
                // their parents.
                pending = pending.saturating_sub(1);
                if let Some((latency_id, depth_id)) = self.metrics {
                    let latency = tick.ticks().saturating_sub(rec.enqueued_at.ticks());
                    self.stats.record(latency_id, latency as f64);
                    self.stats.record(depth_id, pending as f64);
                }
                pending += rec.pushes.len();
                if let (Some(trace), Some(entry)) = (self.trace.as_mut(), &rec.trace) {
                    trace.push(entry.clone());
                }
                if let Some(o) = obs.as_deref_mut() {
                    o.note_dispatch(rec.shard as usize);
                }
                for &(id, value) in &stats[rec.stats.clone()] {
                    self.stats.record(id, value);
                }
            }
            barrier_hook(order);

            // ---- Mailbox exchange: futures enter their shard queues ----
            for &key in mailbox.iter() {
                let shard = schedule.shard_of(key.target());
                if let (Some(o), Some(from)) = (obs.as_deref_mut(), key.sender()) {
                    if schedule.shard_of(from) != shard {
                        o.note_applied(shard);
                    }
                }
                queues[shard].push_scheduled(&mut self.pool, key);
            }
            if let Some(o) = obs.as_deref_mut() {
                for (shard, q) in queues.iter().enumerate() {
                    o.note_depth(shard, q.len() as u64);
                }
                o.end_window();
            }
        }
        self.queue.set_next_seq(next_seq);
        self.shard_buffers = bufs;
        self.outbox_scratch = outbox;
        RunReport {
            events_processed: processed,
            end_time: self.now,
            stop: StopReason::QueueEmpty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Actor, ActorId, Context};
    use crate::trace::TraceKind;

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
        (k.trace().to_vec(), format!("{:?}", k.stats()))
    }

    #[test]
    fn sharded_relay_ring_is_bit_identical_to_sequential() {
        let mut seq = build_relay_ring(8, 20);
        let seq_report = seq.run();

        let mut par = build_relay_ring(8, 20);
        let schedule = parity_schedule(8);
        let par_report = par.run_sharded(&schedule, None, |_| {}, None);

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
        let par_report = par.run_sharded(&schedule, None, |_| {}, None);
        assert_eq!(seq_report, par_report);
        assert_eq!(observables(&seq), observables(&par));
    }

    /// A same-tick cascade like [`Cascade`] whose handlers count and
    /// observe.
    struct Tally {
        downstream: Vec<usize>,
    }

    impl Actor<u32> for Tally {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_timer(2, 0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ActorId, msg: u32) {
            let id = ctx.id() as f64;
            ctx.stats().incr("tally.rx");
            ctx.stats().observe("tally.msg", id + f64::from(msg) / 10.0);
            if msg < 2 {
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

    #[test]
    fn staged_statistics_replay_in_canonical_order() {
        // Shard 0: actors 0..3 cascading at delay 0; shard 1: 3..6. The
        // sequential order interleaves the shards; processing does not.
        let run = |schedule: Option<ShardSchedule>| {
            let mut k: Kernel<u32> = Kernel::new(7);
            for base in [0usize, 3] {
                for i in 0..3 {
                    k.add_actor(Box::new(Tally {
                        downstream: vec![base + (i + 1) % 3, base + (i + 2) % 3],
                    }));
                }
            }
            match schedule {
                None => k.run(),
                Some(s) => k.run_sharded(&s, None, |_| {}, None),
            };
            k.stats().clone()
        };
        let schedule = ShardSchedule::new(vec![0, 0, 0, 1, 1, 1], 2);
        let seq = run(None);
        let par = run(Some(schedule.clone()));
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
        // The staged observations notice a misordered replay; the
        // unstaged counters cannot.
        let bad = run(Some(schedule.with_misordered_merge()));
        assert_eq!(seq.counter("tally.rx"), bad.counter("tally.rx"));
        assert_ne!(
            seq.histogram("tally.msg").unwrap().values(),
            bad.histogram("tally.msg").unwrap().values()
        );
    }

    #[test]
    fn worker_count_never_changes_observables() {
        let schedule = ShardSchedule::new((0..8).map(|i| (i % 4) as u32).collect(), 4);
        let baseline = {
            let mut k = build_relay_ring(8, 15);
            let r = k.run_sharded(&schedule.clone().with_workers(1), None, |_| {}, None);
            (r, observables(&k))
        };
        for workers in [2usize, 4, 11] {
            let mut k = build_relay_ring(8, 15);
            let r = k.run_sharded(&schedule.clone().with_workers(workers), None, |_| {}, None);
            assert_eq!(baseline.0, r, "workers={workers}");
            assert_eq!(baseline.1, observables(&k), "workers={workers}");
        }
    }

    #[test]
    fn sharded_prefix_then_sequential_suffix_matches_pure_sequential() {
        // A second kick once the first run has drained: every relay
        // fires a timer that sends to its peer.
        let kick = |k: &mut Kernel<u32>| {
            let at = k.now() + 2;
            for i in 0..6 {
                k.schedule_timer(at, i, i as u64);
            }
        };
        let mut seq = build_relay_ring(6, 30);
        let first = seq.run();
        kick(&mut seq);
        let second = seq.run();

        let mut par = build_relay_ring(6, 30);
        let mid = par.run_sharded(&parity_schedule(6), None, |_| {}, None);
        kick(&mut par);
        let rest = par.run();
        assert_eq!(first, mid);
        assert_eq!(second, rest);
        assert_eq!(observables(&seq), observables(&par));
        // The sharded run handed its seq counter back, so the sequential
        // phase numbered its events as a purely sequential kernel did.
        assert_eq!(seq.queue.next_seq(), par.queue.next_seq());
    }

    #[test]
    fn barrier_hook_sees_each_dispatch_once_in_canonical_order() {
        let mut par = build_relay_ring(8, 20);
        let schedule = parity_schedule(8);
        let mut seen = 0u64;
        let report = par.run_sharded(
            &schedule,
            None,
            |order: &[u32]| {
                seen += order.len() as u64;
                // Every window position appears exactly once.
                let mut positions = order.to_vec();
                positions.sort_unstable();
                assert!(positions.into_iter().eq(0..order.len() as u32));
            },
            None,
        );
        assert_eq!(seen, report.events_processed);
    }

    #[test]
    fn order_tap_is_none_outside_windows() {
        let tap = order_tap();
        let mut par = build_relay_ring(4, 5);
        let schedule = parity_schedule(4);
        let tap_in_hook = tap.clone();
        par.run_sharded(
            &schedule,
            Some(&tap),
            move |_| {
                // At the barrier the window is over: the tap must be reset.
                assert!(tap_in_hook.get().is_none());
            },
            None,
        );
        assert!(tap.get().is_none());
    }

    #[test]
    fn misordered_merge_diverges_from_sequential() {
        let mut seq = build_relay_ring(8, 20);
        seq.run();
        let mut par = build_relay_ring(8, 20);
        let schedule = parity_schedule(8).with_misordered_merge();
        par.run_sharded(&schedule, None, |_| {}, None);
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
        k.run_sharded(&schedule, None, |_| {}, None);
    }

    #[test]
    #[should_panic(expected = "outside the shard map")]
    fn an_actor_outside_the_map_is_refused() {
        let mut k = build_relay_ring(4, 10);
        // A late monitor actor beyond the four the schedule maps.
        k.add_actor(Box::new(Relay {
            peer: 0,
            hops_left: 0,
        }));
        k.run_sharded(&parity_schedule(4), None, |_| {}, None);
    }

    #[test]
    fn shard_obs_accounting_matches_the_run_report() {
        let mut par = build_relay_ring(8, 20);
        let schedule = parity_schedule(8);
        let mut obs = ShardObs::new(2);
        let report = par.run_sharded(&schedule, None, |_| {}, Some(&mut obs));
        // Exact accounting: per-shard sums equal the kernel's own total.
        assert_eq!(obs.total_events(), report.events_processed);
        // The relay ring alternates parities, so every send is
        // cross-shard: staged and applied totals match and are nonzero.
        let staged: u64 = (0..2).map(|s| obs.cross_staged(s)).sum();
        assert_eq!(staged, obs.cross_total());
        assert!(obs.cross_total() > 0);
        assert!(obs.windows() > 0);
        // Observing changes no observable: a blind run is bit-identical.
        let mut blind = build_relay_ring(8, 20);
        let blind_report = blind.run_sharded(&schedule, None, |_| {}, None);
        assert_eq!(report, blind_report);
        assert_eq!(observables(&par), observables(&blind));
    }

    #[test]
    fn undercount_tap_breaks_exact_accounting() {
        let mut par = build_relay_ring(8, 20);
        let schedule = parity_schedule(8);
        let mut obs = ShardObs::new(2).with_undercount_tap();
        let report = par.run_sharded(&schedule, None, |_| {}, Some(&mut obs));
        assert!(obs.total_events() < report.events_processed);
    }

    #[test]
    fn cross_applied_matches_traced_cross_shard_dispatches() {
        // Ring neighbours pair up in shards, so some sends stay inside a
        // shard.
        let map = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let schedule = ShardSchedule::new(map.clone(), 4);
        let mut par = build_relay_ring(8, 20);
        let mut obs = ShardObs::new(4);
        let report = par.run_sharded(&schedule, None, |_| {}, Some(&mut obs));
        assert_eq!(report.stop, StopReason::QueueEmpty);
        let mut applied = [0u64; 4];
        let mut inside = 0;
        for e in par.trace().iter().filter(|e| e.kind == TraceKind::Message) {
            let (from, to) = (map[e.a], map[e.target]);
            if from == to {
                inside += 1;
            } else {
                applied[to as usize] += 1;
            }
        }
        assert!(inside > 0);
        assert!(applied.iter().sum::<u64>() > 0);
        for (shard, &n) in applied.iter().enumerate() {
            assert_eq!(obs.cross_applied(shard), n, "shard {shard}");
        }
        let staged: u64 = (0..4).map(|s| obs.cross_staged(s)).sum();
        assert_eq!(staged, obs.cross_total());
    }

    /// Spends its message's (or timer tag's) remaining depth on delay-0
    /// sends to actors on its own shard, one delayed send to any actor,
    /// and sometimes a timer, all drawn from its rng.
    struct Fanout {
        same_shard: Vec<usize>,
        actors: usize,
        fan: u64,
    }

    impl Fanout {
        fn act(&mut self, ctx: &mut Context<'_, u32>, depth: u32) {
            ctx.stats().incr("fanout.events");
            let id = ctx.id() as f64;
            ctx.stats()
                .observe("fanout.depth", f64::from(depth) + id / 100.0);
            if depth == 0 {
                return;
            }
            for _ in 0..=ctx.rng().bounded_u64(self.fan) {
                let k = ctx.rng().bounded_u64(self.same_shard.len() as u64) as usize;
                ctx.send(self.same_shard[k], SimTime::ZERO, depth - 1);
            }
            let to = ctx.rng().bounded_u64(self.actors as u64) as usize;
            let delay = 1 + ctx.rng().bounded_u64(3);
            ctx.send_after(to, delay, depth - 1);
            if ctx.rng().bounded_u64(2) == 0 {
                let delay = ctx.rng().bounded_u64(3);
                ctx.set_timer(delay, u64::from(depth - 1));
            }
        }
    }

    impl Actor<u32> for Fanout {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            let delay = ctx.rng().bounded_u64(4);
            ctx.set_timer(delay, 3);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ActorId, depth: u32) {
            self.act(ctx, depth);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, tag: u64) {
            self.act(ctx, tag as u32);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random same-tick cascades on random shard maps: with one lane
        /// and with several, the sharded run equals the sequential one.
        #[test]
        fn random_cascades_match_sequential(
            actors in 1usize..10,
            shards in 1u32..5,
            draws in prop::collection::vec(0u32..1000, 9..10),
            fan in 1u64..3,
            workers in 2usize..6,
            seed in 0u64..1000,
        ) {
            let map: Vec<u32> = draws[..actors].iter().map(|&d| d % shards).collect();
            let build = || {
                let mut k: Kernel<u32> = Kernel::new(seed);
                for i in 0..actors {
                    k.add_actor(Box::new(Fanout {
                        same_shard: (0..actors).filter(|&j| map[j] == map[i]).collect(),
                        actors,
                        fan,
                    }));
                }
                k.enable_tracing();
                k.enable_metrics();
                k
            };
            let mut seq = build();
            let seq_report = seq.run();
            let schedule = ShardSchedule::new(map.clone(), shards);
            for lanes in [1, workers] {
                let mut par = build();
                let par_report =
                    par.run_sharded(&schedule.clone().with_workers(lanes), None, |_| {}, None);
                prop_assert_eq!(seq_report, par_report, "lanes={}", lanes);
                prop_assert_eq!(seq.now(), par.now(), "lanes={}", lanes);
                prop_assert!(observables(&seq) == observables(&par), "lanes={}", lanes);
            }
        }
    }
}
