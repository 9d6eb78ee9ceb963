//! # wsn-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate on which every other layer of the
//! reproduction runs. The paper (Bakshi & Prasanna, ICPP 2004) evaluates its
//! virtual-architecture methodology on a deployed sensor network; we have no
//! hardware, so all protocols and algorithms execute on this kernel instead.
//!
//! The kernel is intentionally small and *strictly deterministic*:
//!
//! * Simulated time is a monotone [`SimTime`] in abstract ticks (the paper's
//!   uniform cost model measures latency in abstract units, so ticks map
//!   1:1 onto cost-model latency units).
//! * Events are totally ordered by `(time, sequence number)`; two events
//!   scheduled for the same tick fire in scheduling order, so a run is a
//!   pure function of the configuration and the seed.
//! * A queued event is a 40-byte key in a per-tick FIFO bucket (a
//!   calendar queue), and its payload lives once in a reference-counted
//!   slab on the kernel. [`Context::share`] stores one payload for many
//!   sends, so a broadcast costs one payload however many receivers it
//!   reaches.
//! * Randomness comes from [`rng::DetRng`], a self-contained xoshiro256++
//!   generator with per-actor streams derived from a single master seed.
//!
//! The programming model is actor-based ([`Actor`]): each simulated entity
//! (a sensor node, a virtual grid process, a sink) receives messages and
//! timer expirations through a [`Context`] that lets it send further
//! messages, set timers, draw random numbers, and bump statistics counters.
//! Each handler receives its message as an owned `M`.
//!
//! ```
//! use wsn_sim::{Actor, Context, Kernel, SimTime};
//!
//! struct Ping { peer: usize, remaining: u32 }
//!
//! impl Actor<u32> for Ping {
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: usize, msg: u32) {
//!         if self.remaining > 0 {
//!             self.remaining -= 1;
//!             ctx.send(self.peer, SimTime::from_ticks(1), msg + 1);
//!         }
//!     }
//! }
//!
//! let mut k = Kernel::new(42);
//! let a = k.add_actor(Box::new(Ping { peer: 1, remaining: 3 }));
//! let b = k.add_actor(Box::new(Ping { peer: 0, remaining: 3 }));
//! assert_eq!(a, 0);
//! k.schedule_message(SimTime::ZERO, a, b, 0);
//! let report = k.run();
//! assert_eq!(report.events_processed, 7); // initial + 3 + 3 replies
//! ```

#![forbid(unsafe_code)]

pub mod causal;
mod event;
pub mod kernel;
pub mod rng;
pub mod shard;
pub mod shard_obs;
pub mod stats;
pub mod time;
pub mod trace;

pub use causal::{
    shared_causal_log, CausalEvent, CausalKind, CausalLog, CausalStamp, SharedCausalLog,
};
pub use kernel::{
    Actor, ActorId, Context, Kernel, Payload, RunReport, Shared, StopReason,
    METRIC_DISPATCH_LATENCY, METRIC_QUEUE_DEPTH,
};
pub use rng::DetRng;
pub use shard::{order_tap, BarrierReplay, OrderTap, ShardSchedule};
pub use shard_obs::ShardObs;
pub use stats::{Histogram, Stats, StatsSink};
pub use time::SimTime;
pub use trace::{TraceEntry, TraceKind};
