//! # wsn-runtime — the runtime system (§5 of the paper)
//!
//! Implements the two functionalities the paper assigns to the runtime:
//!
//! 1. **Topology emulation** (§5.1) — overlaying the virtual grid on the
//!    arbitrary deployment. Each node fills a four-entry routing table
//!    (one per compass direction of the oriented grid): directly, when a
//!    radio neighbor lies in the adjacent cell, and otherwise by adopting
//!    a same-cell neighbor that already has a path. Broadcast messages
//!    from nodes in *other* cells are ignored on receipt, so protocol
//!    messages cross at most one cell boundary — the property that makes
//!    the protocol's cost local and parallel per cell.
//!
//! 2. **Binding virtual processes to physical nodes** (§5.2) — per-cell
//!    leader election by flooding δ = distance-to-cell-center values;
//!    the unique node whose δ (tie-broken by id) is a cell-wide minimum
//!    keeps `ldr = TRUE` and executes the virtual node's program. A
//!    follow-up announce flood (implied by the paper's "this node can
//!    start executing the program") builds per-cell spanning trees so
//!    followers can forward application traffic to their leader.
//!
//! [`PhysicalRuntime`] sequences the phases and then runs unmodified
//! [`wsn_core::NodeProgram`]s on the emulated topology: a virtual `send()`
//! becomes hop-by-hop physical forwarding — dimension-order across cells
//! via the emulated routing tables, up the spanning tree within the
//! destination cell — with every physical hop paying radio energy and
//! latency. The gap between this execution and the idealized
//! [`wsn_core::Vm`] is exactly the abstraction cost the paper's
//! methodology accepts (§7).

#![forbid(unsafe_code)]

pub mod messages;
pub mod node;
pub mod runner;
pub mod wire;

#[cfg(test)]
mod arq_tests;

pub use messages::{AppEnvelope, RtMsg};
pub use node::{
    dim_order_direction, ArqConfig, ElectionPolicy, HeartbeatConfig, Phase, RtNode, FILL_COUNTERS,
};
pub use runner::{
    AppReport, BindReport, ChaosMissionReport, MissionConfig, MissionReport, ParallelConfig,
    PhysicalRuntime, SelfHealConfig, ShardMutation, TopoReport,
};
pub use wire::{decode_framed, FramedProgram};
