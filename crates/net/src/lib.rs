//! # wsn-net — physical sensor-network substrate
//!
//! The paper's runtime system (§5) presumes `n` identical sensor nodes
//! deployed over a square terrain of side `L`, each with transmission range
//! `r`, forming a unit-disk graph `G_R = (V_R, E_R)` with an edge whenever
//! the Euclidean distance is at most `r`. This crate builds that world:
//!
//! * [`geometry`] — points, rectangles, distances;
//! * [`terrain`] — the deployment terrain and its partition into square
//!   cells, one per virtual-grid vertex;
//! * [`deployment`] — deployment generators (uniform random, perturbed
//!   grid, clustered), with an optional *coverage repair* pass that
//!   guarantees at least one node per cell — the paper's standing
//!   assumption;
//! * [`graph`] — the unit-disk connectivity graph with BFS utilities,
//!   connected components, and per-cell induced-subgraph checks;
//! * [`radio`] & [`energy`] — the uniform cost model's physical side: unit
//!   energy per unit data transmitted/received/computed, with a per-node
//!   energy ledger;
//! * [`medium`] — the shared wireless medium used by node actors to
//!   unicast/broadcast to radio neighbors through the simulation kernel,
//!   with configurable latency, jitter, and loss;
//! * [`fault`] — chaos injection: crashes, recoveries, link degradation,
//!   partitions, delivery anomalies, and energy shocks on a schedule;
//! * [`frame`] — fixed-size wire frames, bounded payload encodings, and
//!   the run-sized frame arena behind the certified zero-copy hot path.

#![forbid(unsafe_code)]

pub mod deployment;
pub mod energy;
pub mod fault;
pub mod frame;
pub mod geometry;
pub mod graph;
pub mod medium;
pub mod radio;
pub mod terrain;

pub use deployment::{Deployment, DeploymentSpec, Placement};
pub use energy::{EnergyKind, EnergyLedger, EnergySnapshot};
pub use fault::{ChaosError, ChaosEvent, ChaosPlan, FaultKind};
pub use frame::{
    FrameBuf, WireError, WirePayload, FRAME_BYTES, FRAME_HEADER_BYTES, FRAME_PAYLOAD_CAPACITY,
};
pub use geometry::{Point, Rect};
pub use graph::UnitDiskGraph;
pub use medium::{DeliveryChaos, LinkModel, MacModel, Medium, SharedMedium};
pub use radio::RadioModel;
pub use terrain::{CellCoord, CellGrid, Terrain};
