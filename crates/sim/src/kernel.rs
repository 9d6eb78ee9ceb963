//! The simulation kernel: actors, contexts, and the run loop.

use crate::event::{EventKind, EventQueue, Key, KeyPool, Slab, TIMER};
use crate::rng::DetRng;
use crate::shard::ShardBuffers;
use crate::stats::{HistId, StagedStats, Stats, StatsSink};
use crate::time::SimTime;
use crate::trace::TraceEntry;
use std::any::Any;
use std::marker::PhantomData;

/// Index of an actor inside a [`Kernel`]. Actors are never removed, so ids
/// stay valid for the lifetime of the kernel.
pub type ActorId = usize;

/// Stats histogram key for per-event scheduling latency (ticks between an
/// event entering the queue and being dispatched). Recorded when
/// [`Kernel::enable_metrics`] is on.
pub const METRIC_DISPATCH_LATENCY: &str = "kernel.dispatch_latency";

/// Stats histogram key for queue depth sampled after each pop. Recorded
/// when [`Kernel::enable_metrics`] is on.
pub const METRIC_QUEUE_DEPTH: &str = "kernel.queue_depth";

/// The event budget of [`Kernel::run`] and [`Kernel::run_sharded`]: a
/// run that dispatches this many events without draining its queue is
/// taken for a livelock and panics with [`LIVELOCK`].
pub(crate) const LIVELOCK_BUDGET: u64 = 1_000_000_000;

/// The panic message of an exhausted [`LIVELOCK_BUDGET`].
pub(crate) const LIVELOCK: &str = "kernel default event budget exhausted; suspected livelock";

/// Implemented by message types so traces can record a cheap discriminant.
pub trait Payload: 'static {
    /// A small integer identifying the message variant (for traces only;
    /// semantics are up to the implementor).
    fn discriminant(&self) -> u64 {
        0
    }
}

impl Payload for () {}
impl Payload for u32 {
    fn discriminant(&self) -> u64 {
        u64::from(*self)
    }
}
impl Payload for u64 {
    fn discriminant(&self) -> u64 {
        *self
    }
}

/// A simulated entity driven by messages and timers.
///
/// `Any` is a supertrait so callers can downcast a finished actor back to
/// its concrete type and read out final state
/// (see [`Kernel::actor`]).
pub trait Actor<M: Payload>: Any {
    /// Called once, in id order, when the run starts (before any event).
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called for each message delivered to this actor.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ActorId, msg: M);

    /// Called when a timer set via [`Context::set_timer`] expires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _tag: u64) {}
}

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No events remained.
    QueueEmpty,
    /// The `until` horizon was reached.
    TimeLimit,
    /// The event budget was exhausted (likely a livelock — investigate).
    EventLimit,
}

/// Summary of a run loop invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Events dispatched during this invocation.
    pub events_processed: u64,
    /// Simulated clock when the loop returned.
    pub end_time: SimTime,
    /// Why the loop returned.
    pub stop: StopReason,
}

/// The facilities an actor may use while handling an event.
pub struct Context<'a, M: Payload> {
    now: SimTime,
    self_id: ActorId,
    /// This dispatch's pushes, awaiting their seqs.
    outbox: &'a mut Vec<Key>,
    slab: &'a mut Slab<M>,
    rng: &'a mut DetRng,
    stats: &'a mut Stats,
    /// Where order-sensitive statistics wait for the barrier inside a
    /// sharded window; `None` on the sequential path.
    staged_stats: Option<&'a mut StagedStats>,
    actor_count: usize,
}

/// A payload stored once for any number of sends in the dispatch that
/// shared it ([`Context::share`]). Each receiver gets its own `M`: a
/// clone, or the original for the last one popped.
#[derive(Debug)]
pub struct Shared<'a> {
    slot: u64,
    /// Ties the handle to its dispatch's context.
    dispatch: PhantomData<&'a ()>,
}

impl<'a, M: Payload> Context<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.self_id
    }

    /// Number of actors in the kernel.
    pub fn actor_count(&self) -> usize {
        self.actor_count
    }

    /// Sends `msg` to `to`, arriving `delay` ticks from now.
    pub fn send(&mut self, to: ActorId, delay: SimTime, msg: M) {
        assert!(to < self.actor_count, "send to unknown actor {to}");
        let slot = self.slab.insert(msg);
        self.push(to, delay.ticks(), self.self_id as u32, slot);
    }

    /// Stores `msg` once for any number of [`Context::send_shared`]
    /// calls in this dispatch. A share no send used is freed when the
    /// dispatch ends.
    pub fn share(&mut self, msg: M) -> Shared<'a>
    where
        M: Clone,
    {
        Shared {
            slot: self.slab.share(msg, M::clone),
            dispatch: PhantomData,
        }
    }

    /// Sends the shared payload `msg` to `to`, arriving `delay` ticks
    /// from now. Consecutive sends of one payload at one delay are
    /// queued as one key plus 4 bytes per further receiver.
    pub fn send_shared(&mut self, to: ActorId, delay: SimTime, msg: &Shared<'_>) {
        assert!(to < self.actor_count, "send to unknown actor {to}");
        self.slab.add_ref(msg.slot);
        self.push(to, delay.ticks(), self.self_id as u32, msg.slot);
    }

    fn push(&mut self, target: ActorId, delay_ticks: u64, from: u32, data: u64) {
        self.outbox.push(Key::new(
            self.now + delay_ticks,
            self.now,
            target as u32,
            from,
            data,
        ));
    }

    /// Sends `msg` to `to` after `delay` ticks (integer convenience).
    pub fn send_after(&mut self, to: ActorId, delay_ticks: u64, msg: M) {
        self.send(to, SimTime::from_ticks(delay_ticks), msg);
    }

    /// Schedules a timer on this actor, `delay` ticks from now.
    pub fn set_timer(&mut self, delay_ticks: u64, tag: u64) {
        self.push(self.self_id, delay_ticks, TIMER, tag);
    }

    /// This actor's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// The shared statistics sink.
    pub fn stats(&mut self) -> StatsSink<'_> {
        StatsSink {
            stats: self.stats,
            staged: self.staged_stats.as_deref_mut(),
        }
    }
}

/// A deterministic discrete-event simulator over actors exchanging `M`s.
///
/// Fields are crate-visible so the sharded scheduler
/// ([`crate::shard`]) can drive the same queue, key pool, payload slab
/// and bookkeeping as the sequential loop below; both run handlers
/// through one `dispatch`.
pub struct Kernel<M: Payload> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    rngs: Vec<DetRng>,
    pub(crate) queue: EventQueue,
    /// The key and receiver chunks of the global queue and of every
    /// shard queue.
    pub(crate) pool: KeyPool,
    /// The payloads of every queued message.
    pub(crate) slab: Slab<M>,
    pub(crate) now: SimTime,
    master_seed: u64,
    pub(crate) stats: Stats,
    /// The dispatch log: `None` while tracing is off, else every
    /// dispatch so far.
    pub(crate) trace: Option<Vec<TraceEntry>>,
    /// The [`METRIC_DISPATCH_LATENCY`] and [`METRIC_QUEUE_DEPTH`] slots
    /// in `stats` while self-metrics are on.
    pub(crate) metrics: Option<(HistId, HistId)>,
    started: bool,
    /// Dispatch staging buffer, held on the struct so repeated runs on a
    /// warm kernel reuse its capacity instead of allocating a fresh
    /// outbox per run (the no-alloc gate measures exactly this path).
    pub(crate) outbox_scratch: Vec<Key>,
    /// The sharded scheduler's queues and window buffers, kept between
    /// runs so rounds on a standing kernel reuse their capacity.
    pub(crate) shard_buffers: ShardBuffers,
}

impl<M: Payload> Kernel<M> {
    /// Creates a kernel whose randomness derives entirely from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Kernel {
            actors: Vec::new(),
            rngs: Vec::new(),
            queue: EventQueue::default(),
            pool: KeyPool::default(),
            slab: Slab::default(),
            now: SimTime::ZERO,
            master_seed,
            stats: Stats::new(),
            trace: None,
            metrics: None,
            started: false,
            outbox_scratch: Vec::new(),
            shard_buffers: ShardBuffers::default(),
        }
    }

    /// Enables trace recording: every later dispatch is kept (see
    /// [`Kernel::trace`]).
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Enables kernel self-metrics: each dispatched event records
    /// [`METRIC_DISPATCH_LATENCY`] and [`METRIC_QUEUE_DEPTH`] into the
    /// stats sink. Off by default — the hot loop then pays only a branch.
    /// The two histograms are registered here, once, and each dispatch
    /// records into them in place; they show in [`Kernel::stats`] from
    /// the first dispatch on (see the `obs` gate row's overhead bound).
    pub fn enable_metrics(&mut self) {
        self.metrics = Some((
            self.stats.histogram_id(METRIC_DISPATCH_LATENCY),
            self.stats.histogram_id(METRIC_QUEUE_DEPTH),
        ));
    }

    /// Whether kernel self-metrics are being recorded.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// The trace recorded so far, in dispatch order (empty unless
    /// [`Kernel::enable_tracing`] was called).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or_default()
    }

    /// Registers an actor and returns its id. May be called mid-run:
    /// once the kernel has started, the new actor's
    /// [`Actor::on_start`] fires immediately at the current simulated
    /// time, so late-installed actors (fault injectors, monitors) can
    /// arm timers relative to *now*.
    ///
    /// Panics when the id would not fit a queue key (`u32`, less one
    /// value reserved for timers).
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = self.actors.len();
        assert!(
            id < TIMER as usize,
            "actor id {id} does not fit a queue key"
        );
        self.actors.push(Some(actor));
        self.rngs.push(DetRng::stream(self.master_seed, id as u64));
        if self.started {
            self.start_actor(id);
        }
        id
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared statistics sink (read side; actors write through `Context`).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Borrows actor `id` downcast to its concrete type.
    pub fn actor<T: Actor<M>>(&self, id: ActorId) -> Option<&T> {
        let boxed = self.actors.get(id)?.as_ref()?;
        (boxed.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrows actor `id` downcast to its concrete type.
    pub fn actor_mut<T: Actor<M>>(&mut self, id: ActorId) -> Option<&mut T> {
        let boxed = self.actors.get_mut(id)?.as_mut()?;
        (boxed.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Schedules an external message delivery (harness-injected stimulus).
    pub fn schedule_message(&mut self, at: SimTime, from: ActorId, to: ActorId, msg: M) {
        assert!(to < self.actors.len(), "schedule to unknown actor {to}");
        assert!(
            from < TIMER as usize,
            "sender id {from} does not fit a queue key"
        );
        let slot = self.slab.insert(msg);
        let key = Key::new(at, at, to as u32, from as u32, slot);
        self.queue.push(&mut self.pool, key);
    }

    /// Schedules an external timer event on `target`.
    pub fn schedule_timer(&mut self, at: SimTime, target: ActorId, tag: u64) {
        assert!(
            target < self.actors.len(),
            "schedule to unknown actor {target}"
        );
        let key = Key::new(at, at, target as u32, TIMER, tag);
        self.queue.push(&mut self.pool, key);
    }

    pub(crate) fn start_actors(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.actors.len() {
            self.start_actor(id);
        }
    }

    /// Runs `on_start` for one actor and flushes anything it scheduled.
    fn start_actor(&mut self, id: ActorId) {
        let mut outbox = std::mem::take(&mut self.outbox_scratch);
        outbox.clear();
        self.dispatch(id, None, &mut outbox, None);
        self.queue.push_outbox(&mut self.pool, &mut outbox);
        self.outbox_scratch = outbox;
    }

    /// Runs one handler of actor `target` at the current instant:
    /// `on_start` for `None`, else the event's. Its pushes are left in
    /// `outbox`, and the shares it made no send used are freed.
    #[inline]
    pub(crate) fn dispatch(
        &mut self,
        target: ActorId,
        event: Option<EventKind<M>>,
        outbox: &mut Vec<Key>,
        staged_stats: Option<&mut StagedStats>,
    ) {
        let actor_count = self.actors.len();
        let mut actor = self.actors[target]
            .take()
            .unwrap_or_else(|| panic!("actor {target} re-entered"));
        let mut ctx = Context {
            now: self.now,
            self_id: target,
            outbox,
            slab: &mut self.slab,
            rng: &mut self.rngs[target],
            stats: &mut self.stats,
            staged_stats,
            actor_count,
        };
        match event {
            None => actor.on_start(&mut ctx),
            Some(EventKind::Message { from, msg }) => actor.on_message(&mut ctx, from, msg),
            Some(EventKind::Timer { tag }) => actor.on_timer(&mut ctx, tag),
        }
        self.actors[target] = Some(actor);
        self.slab.end_dispatch();
    }

    /// Runs until the queue drains. Panics if one billion events pass
    /// without draining (livelock guard); use
    /// [`Kernel::run_with_limits`] for explicit budgets.
    pub fn run(&mut self) -> RunReport {
        let report = self.run_with_limits(None, Some(LIVELOCK_BUDGET));
        assert!(report.stop != StopReason::EventLimit, "{LIVELOCK}");
        report
    }

    /// Runs until the queue drains or simulated time would pass `until`.
    /// Events at exactly `until` still fire.
    pub fn run_until(&mut self, until: SimTime) -> RunReport {
        self.run_with_limits(Some(until), Some(LIVELOCK_BUDGET))
    }

    /// Runs with optional time horizon and event budget.
    pub fn run_with_limits(
        &mut self,
        until: Option<SimTime>,
        max_events: Option<u64>,
    ) -> RunReport {
        self.start_actors();
        let mut processed = 0u64;
        let mut outbox = std::mem::take(&mut self.outbox_scratch);
        outbox.clear();
        let report = loop {
            if let Some(budget) = max_events {
                if processed >= budget {
                    break RunReport {
                        events_processed: processed,
                        end_time: self.now,
                        stop: StopReason::EventLimit,
                    };
                }
            }
            let Some(next_time) = self.queue.peek_time() else {
                break RunReport {
                    events_processed: processed,
                    end_time: self.now,
                    stop: StopReason::QueueEmpty,
                };
            };
            if let Some(horizon) = until {
                if next_time > horizon {
                    self.now = horizon;
                    break RunReport {
                        events_processed: processed,
                        end_time: self.now,
                        stop: StopReason::TimeLimit,
                    };
                }
            }
            let key = self
                .queue
                .pop(&mut self.pool)
                .expect("peeked event vanished");
            debug_assert!(key.time >= self.now, "time ran backwards");
            self.now = key.time;
            processed += 1;

            if let Some((latency_id, depth_id)) = self.metrics {
                let latency = key.time.ticks().saturating_sub(key.enqueued_at.ticks());
                self.stats.record(latency_id, latency as f64);
                self.stats.record(depth_id, self.queue.len() as f64);
            }

            let event = self.slab.event(&key);
            if let Some(trace) = self.trace.as_mut() {
                trace.push(TraceEntry::dispatch(key.time, key.target(), &event));
            }
            self.dispatch(key.target(), Some(event), &mut outbox, None);
            self.queue.push_outbox(&mut self.pool, &mut outbox);
        };
        self.outbox_scratch = outbox;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Echo {
        received: Vec<(ActorId, u32)>,
        reply_to: Option<ActorId>,
    }

    impl Actor<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ActorId, msg: u32) {
            self.received.push((from, msg));
            ctx.stats().incr("echo.rx");
            if let Some(peer) = self.reply_to {
                if msg > 0 {
                    ctx.send_after(peer, 1, msg - 1);
                }
            }
        }
    }

    #[test]
    fn delivers_in_time_order() {
        let mut k: Kernel<u32> = Kernel::new(1);
        let a = k.add_actor(Box::new(Echo::default()));
        k.schedule_message(SimTime::from_ticks(5), 0, a, 50);
        k.schedule_message(SimTime::from_ticks(2), 0, a, 20);
        let report = k.run();
        assert_eq!(report.stop, StopReason::QueueEmpty);
        assert_eq!(report.end_time, SimTime::from_ticks(5));
        let echo: &Echo = k.actor(a).unwrap();
        assert_eq!(echo.received, vec![(0, 20), (0, 50)]);
        assert_eq!(k.stats().counter("echo.rx"), 2);
    }

    #[test]
    fn ping_pong_countdown_terminates() {
        let mut k: Kernel<u32> = Kernel::new(1);
        let a = k.add_actor(Box::new(Echo {
            reply_to: Some(1),
            ..Default::default()
        }));
        let b = k.add_actor(Box::new(Echo {
            reply_to: Some(0),
            ..Default::default()
        }));
        k.schedule_message(SimTime::ZERO, b, a, 5);
        let report = k.run();
        // messages 5,4,3,2,1,0 = 6 deliveries
        assert_eq!(report.events_processed, 6);
        assert_eq!(report.end_time, SimTime::from_ticks(5));
        let echo_a: &Echo = k.actor(a).unwrap();
        let echo_b: &Echo = k.actor(b).unwrap();
        assert_eq!(echo_a.received.len() + echo_b.received.len(), 6);
    }

    struct TimerBeat {
        fired: Vec<u64>,
        period: u64,
        remaining: u32,
    }

    impl Actor<u32> for TimerBeat {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_timer(self.period, 7);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: ActorId, _msg: u32) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, tag: u64) {
            self.fired.push(ctx.now().ticks());
            assert_eq!(tag, 7);
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(self.period, 7);
            }
        }
    }

    #[test]
    fn periodic_timers_fire_on_schedule() {
        let mut k: Kernel<u32> = Kernel::new(1);
        let t = k.add_actor(Box::new(TimerBeat {
            fired: vec![],
            period: 10,
            remaining: 3,
        }));
        k.run();
        let beat: &TimerBeat = k.actor(t).unwrap();
        assert_eq!(beat.fired, vec![10, 20, 30, 40]);
    }

    #[test]
    fn actors_added_mid_run_get_started() {
        let mut k: Kernel<u32> = Kernel::new(1);
        let first = k.add_actor(Box::new(TimerBeat {
            fired: vec![],
            period: 10,
            remaining: 1,
        }));
        k.run_until(SimTime::from_ticks(15));
        assert_eq!(k.now(), SimTime::from_ticks(15));
        // Installed after the kernel has started: on_start must fire now,
        // so the timer lands at now + period.
        let late = k.add_actor(Box::new(TimerBeat {
            fired: vec![],
            period: 10,
            remaining: 0,
        }));
        k.run();
        let beat: &TimerBeat = k.actor(first).unwrap();
        assert_eq!(beat.fired, vec![10, 20]);
        let late_beat: &TimerBeat = k.actor(late).unwrap();
        assert_eq!(late_beat.fired, vec![25]);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut k: Kernel<u32> = Kernel::new(1);
        let t = k.add_actor(Box::new(TimerBeat {
            fired: vec![],
            period: 10,
            remaining: 100,
        }));
        let report = k.run_until(SimTime::from_ticks(35));
        assert_eq!(report.stop, StopReason::TimeLimit);
        assert_eq!(report.end_time, SimTime::from_ticks(35));
        let beat: &TimerBeat = k.actor(t).unwrap();
        assert_eq!(beat.fired, vec![10, 20, 30]);
        // Continuing picks up where we left off.
        let report2 = k.run_until(SimTime::from_ticks(55));
        assert_eq!(report2.stop, StopReason::TimeLimit);
        let beat: &TimerBeat = k.actor(t).unwrap();
        assert_eq!(beat.fired, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn event_limit_reports_livelock() {
        struct Selfie;
        impl Actor<u32> for Selfie {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(1, 0);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _tag: u64) {
                ctx.set_timer(1, 0);
            }
        }
        let mut k: Kernel<u32> = Kernel::new(1);
        k.add_actor(Box::new(Selfie));
        let report = k.run_with_limits(None, Some(100));
        assert_eq!(report.stop, StopReason::EventLimit);
        assert_eq!(report.events_processed, 100);
    }

    #[test]
    fn traces_are_deterministic_across_runs() {
        fn run_once() -> Vec<TraceEntry> {
            let mut k: Kernel<u32> = Kernel::new(77);
            let a = k.add_actor(Box::new(Echo {
                reply_to: Some(1),
                ..Default::default()
            }));
            let _b = k.add_actor(Box::new(Echo {
                reply_to: Some(0),
                ..Default::default()
            }));
            k.enable_tracing();
            k.schedule_message(SimTime::ZERO, 1, a, 20);
            k.run();
            k.trace().to_vec()
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn metrics_record_latency_and_queue_depth() {
        let mut k: Kernel<u32> = Kernel::new(3);
        let a = k.add_actor(Box::new(Echo {
            reply_to: Some(1),
            ..Default::default()
        }));
        let _b = k.add_actor(Box::new(Echo {
            reply_to: Some(0),
            ..Default::default()
        }));
        k.enable_metrics();
        assert!(k.metrics_enabled());
        k.schedule_message(SimTime::ZERO, 1, a, 5);
        let report = k.run();
        let latency = k
            .stats()
            .histogram(METRIC_DISPATCH_LATENCY)
            .expect("latency histogram");
        assert_eq!(latency.count() as u64, report.events_processed);
        // Every reply is sent with delay 1, so latency is 1 for all events
        // after the externally injected kickoff (latency 0).
        assert_eq!(latency.max(), Some(1.0));
        let depth = k
            .stats()
            .histogram(METRIC_QUEUE_DEPTH)
            .expect("depth histogram");
        assert_eq!(depth.count() as u64, report.events_processed);
    }

    #[test]
    fn metrics_disabled_record_nothing() {
        let mut k: Kernel<u32> = Kernel::new(3);
        let a = k.add_actor(Box::new(Echo::default()));
        k.schedule_message(SimTime::ZERO, 0, a, 5);
        k.run();
        assert!(k.stats().histogram(METRIC_DISPATCH_LATENCY).is_none());
        assert!(k.stats().histogram(METRIC_QUEUE_DEPTH).is_none());
    }

    #[test]
    fn per_actor_rng_streams_differ() {
        struct Draw {
            value: u64,
        }
        impl Actor<u32> for Draw {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                self.value = ctx.rng().next_u64();
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
        }
        let mut k: Kernel<u32> = Kernel::new(5);
        let a = k.add_actor(Box::new(Draw { value: 0 }));
        let b = k.add_actor(Box::new(Draw { value: 0 }));
        k.run();
        let va = k.actor::<Draw>(a).unwrap().value;
        let vb = k.actor::<Draw>(b).unwrap().value;
        assert_ne!(va, vb);
    }

    #[test]
    #[should_panic(expected = "unknown actor")]
    fn send_to_unknown_actor_panics() {
        struct Bad;
        impl Actor<u32> for Bad {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send_after(99, 1, 0);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
        }
        let mut k: Kernel<u32> = Kernel::new(1);
        k.add_actor(Box::new(Bad));
        k.run();
    }

    /// Counts its clones.
    #[derive(Debug, PartialEq)]
    struct Counted(u32);

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    impl Payload for Counted {}

    /// Actor 0 shares each message it gets with actors `1..=fanout`, or,
    /// when `fanout` is 0, shares it and sends nothing; the others keep
    /// what they receive.
    struct Fan {
        fanout: usize,
        got: Vec<Counted>,
    }

    impl Actor<Counted> for Fan {
        fn on_message(&mut self, ctx: &mut Context<'_, Counted>, _: ActorId, msg: Counted) {
            if ctx.id() != 0 {
                self.got.push(msg);
                return;
            }
            let shared = ctx.share(msg);
            for to in 1..=self.fanout {
                ctx.send_shared(to, SimTime::from_ticks(1), &shared);
            }
        }
    }

    fn fan_kernel(fanout: usize, receivers: usize) -> Kernel<Counted> {
        let mut k = Kernel::new(1);
        for _ in 0..=receivers {
            k.add_actor(Box::new(Fan {
                fanout,
                got: Vec::new(),
            }));
        }
        k
    }

    #[test]
    fn a_shared_payload_reaches_k_receivers_with_k_minus_one_clones() {
        for fanout in 1..=5 {
            let mut k = fan_kernel(fanout, fanout);
            k.schedule_message(SimTime::ZERO, 0, 0, Counted(7));
            CLONES.with(|c| c.set(0));
            k.run();
            assert_eq!(CLONES.with(|c| c.get()), fanout - 1, "fanout {fanout}");
            for to in 1..=fanout {
                assert_eq!(k.actor::<Fan>(to).unwrap().got, vec![Counted(7)]);
            }
            assert_eq!(k.slab.live(), 0);
        }
    }

    #[test]
    fn a_share_no_send_used_is_freed_when_its_dispatch_ends() {
        let mut k = fan_kernel(0, 1);
        k.schedule_message(SimTime::ZERO, 0, 0, Counted(1));
        let report = k.run();
        assert_eq!(report.events_processed, 1);
        assert_eq!(k.slab.slots(), 1);
        assert_eq!(k.slab.live(), 0);
    }

    #[test]
    fn warm_rounds_grow_neither_the_slab_nor_the_key_pool() {
        let mut k = fan_kernel(8, 8);
        let round = |k: &mut Kernel<Counted>| {
            let now = k.now();
            for tick in 0..3 {
                k.schedule_message(now + tick, 0, 0, Counted(tick as u32));
            }
            k.schedule_timer(now, 1, 0);
            k.run();
        };
        round(&mut k);
        let sizes =
            |k: &Kernel<Counted>| (k.slab.slots(), k.pool.chunks(), k.pool.receiver_chunks());
        let warm = sizes(&k);
        for _ in 0..1_000 {
            round(&mut k);
        }
        assert_eq!(sizes(&k), warm);
        assert_eq!(k.slab.live(), 0);
    }

    /// At start, sends its id to the next 15 actors, one tick later:
    /// once as a shared payload when `shared`, else once per send.
    struct Storm {
        shared: bool,
    }

    impl Actor<u32> for Storm {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            let (id, n) = (ctx.id(), ctx.actor_count());
            let delay = SimTime::from_ticks(1);
            let shared = self.shared.then(|| ctx.share(id as u32));
            for to in (1..=15).map(|d| (id + d) % n) {
                match &shared {
                    Some(msg) => ctx.send_shared(to, delay, msg),
                    None => ctx.send(to, delay, id as u32),
                }
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
    }

    #[test]
    fn a_broadcast_storm_queues_one_key_per_broadcast() {
        let storm = |shared| {
            let mut k: Kernel<u32> = Kernel::new(1);
            for _ in 0..1_000 {
                k.add_actor(Box::new(Storm { shared }));
            }
            k.enable_tracing();
            k.run();
            assert_eq!(k.trace().len(), 15_000);
            assert!(k.pool.all_free());
            (k.pool.chunks(), k.trace().to_vec())
        };
        let (broadcast_chunks, broadcast_trace) = storm(true);
        let (send_chunks, send_trace) = storm(false);
        assert!(
            broadcast_chunks <= 1_000usize.div_ceil(64) + 1,
            "{broadcast_chunks} key chunks"
        );
        assert_eq!(send_chunks, 15_000usize.div_ceil(64));
        assert_eq!(broadcast_trace, send_trace);
    }

    #[test]
    fn downcast_wrong_type_is_none() {
        let mut k: Kernel<u32> = Kernel::new(1);
        let a = k.add_actor(Box::new(Echo::default()));
        assert!(k.actor::<TimerBeat>(a).is_none());
        assert!(k.actor::<Echo>(a).is_some());
    }
}
