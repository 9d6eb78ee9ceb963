//! Optional event tracing.
//!
//! When enabled ([`crate::Kernel::enable_tracing`]), the kernel appends one
//! [`TraceEntry`] per dispatched event and keeps every entry: a trace is
//! either off or complete. Tests use traces to assert determinism (two runs
//! with the same seed must produce identical traces) and to debug protocol
//! interleavings. A run is a pure function of its configuration and seed,
//! so a post-mortem replays the failing seed with tracing on.

use crate::event::EventKind;
use crate::kernel::Payload;
use crate::time::SimTime;

/// The kind of dispatched event recorded in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A message delivery; `a` is the sender, `b` the payload discriminant.
    Message,
    /// A timer expiration; `a` is unused, `b` the tag.
    Timer,
}

/// One dispatched event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Dispatch instant.
    pub time: SimTime,
    /// Receiving actor.
    pub target: usize,
    /// Message or timer.
    pub kind: TraceKind,
    /// Sender (messages) — unused for timers.
    pub a: usize,
    /// Payload discriminant (messages) or tag (timers).
    pub b: u64,
}

impl TraceEntry {
    /// The entry for dispatching `kind` to `target` at `time` — the one
    /// constructor both dispatch loops use.
    pub(crate) fn dispatch<M: Payload>(time: SimTime, target: usize, kind: &EventKind<M>) -> Self {
        let (kind, a, b) = match kind {
            EventKind::Message { from, msg } => (TraceKind::Message, *from, msg.discriminant()),
            EventKind::Timer { tag } => (TraceKind::Timer, 0, *tag),
        };
        TraceEntry {
            time,
            target,
            kind,
            a,
            b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Actor, ActorId, Context, Kernel, RunReport};

    /// Bounces a countdown to `peer`, one tick per hop, and optionally
    /// sets one timer (tag 7) at start.
    struct Bounce {
        peer: ActorId,
        timer: Option<u64>,
    }

    impl Actor<u32> for Bounce {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if let Some(delay) = self.timer {
                ctx.set_timer(delay, 7);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ActorId, msg: u32) {
            if msg > 0 {
                ctx.send_after(self.peer, 1, msg - 1);
            }
        }
    }

    fn run(traced: bool) -> (Vec<TraceEntry>, RunReport) {
        let mut k: Kernel<u32> = Kernel::new(7);
        k.add_actor(Box::new(Bounce {
            peer: 1,
            timer: None,
        }));
        k.add_actor(Box::new(Bounce {
            peer: 0,
            timer: Some(2),
        }));
        if traced {
            k.enable_tracing();
        }
        k.schedule_message(SimTime::ZERO, 1, 0, 3);
        let report = k.run();
        (k.trace().to_vec(), report)
    }

    fn entry(t: u64, target: usize, kind: TraceKind, a: usize, b: u64) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_ticks(t),
            target,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let (trace, report) = run(false);
        assert!(trace.is_empty());
        assert_eq!(report.events_processed, 5);
    }

    #[test]
    fn enabled_records_in_order() {
        let (trace, report) = run(true);
        assert_eq!(report, run(false).1, "tracing perturbed the run");
        // The countdown runs 3, 2, 1, 0; the timer set at start carries
        // an earlier seq than the tick-2 message, so it dispatches first.
        assert_eq!(
            trace,
            vec![
                entry(0, 0, TraceKind::Message, 1, 3),
                entry(1, 1, TraceKind::Message, 0, 2),
                entry(2, 1, TraceKind::Timer, 0, 7),
                entry(2, 0, TraceKind::Message, 1, 1),
                entry(3, 1, TraceKind::Message, 0, 0),
            ]
        );
        assert_eq!(trace.len() as u64, report.events_processed);
    }
}
