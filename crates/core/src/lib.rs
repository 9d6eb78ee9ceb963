//! # wsn-core — the virtual architecture (the paper's contribution)
//!
//! Bakshi & Prasanna's central idea is to let a domain expert design,
//! analyze, and synthesize sensor-network applications against a *virtual
//! architecture*: an abstract machine model plus primitives whose
//! implementation on the real network is someone else's problem (the
//! runtime system, crate `wsn-runtime`). This crate is that abstract
//! machine, with all four components the paper enumerates in §2:
//!
//! * **Network model** ([`grid`]) — an oriented two-dimensional grid of
//!   virtual nodes (one per point of coverage), with dimension-order
//!   shortest-path routing;
//! * **Programming primitives** ([`program`]) — `send()`/`receive()`
//!   message passing to any virtual node, plus group communication that
//!   addresses "the level-k leader" as a logical entity;
//! * **Middleware services** ([`groups`]) — the hierarchical group
//!   formation service: at level k the grid is partitioned into 2^k × 2^k
//!   blocks whose north-west node is leader;
//! * **Cost functions** ([`cost`], [`estimate`], [`metrics`]) — the uniform
//!   cost model (one unit of energy per unit of data transmitted, received
//!   or computed; latency proportional to data volume and hop count) and
//!   closed-form first-order performance estimation for algorithms
//!   expressed against the model.
//!
//! [`vm`] executes a node program *directly on the virtual topology* — the
//! designer's idealized view. The same program, unchanged, runs on a real
//! (simulated) deployment through `wsn-runtime`; comparing the two (and
//! the closed forms) is experiment EXP-9.

#![forbid(unsafe_code)]

pub mod arch;
pub mod collective;
pub mod cost;
pub mod estimate;
pub mod framelayout;
pub mod grid;
pub mod groups;
pub mod metrics;
pub mod program;
pub mod shard;
pub mod tree;
pub mod vm;

pub use arch::VirtualArchitecture;
pub use collective::{
    snake_coord, snake_index, CollectiveMsg, DisseminateProgram, ReduceOp, ReduceProgram,
    SortProgram,
};
pub use cost::CostModel;
pub use estimate::{
    centralized_collection_estimate, follower_to_leader_hops, full_boundary_units,
    quadtree_merge_estimate, Estimate,
};
pub use framelayout::{
    framed_payload_fits, payload_bound_bytes, payload_bound_units, summary_wire_bound_bytes,
};
pub use grid::{Direction, GridCoord, VirtualGrid};
pub use groups::Hierarchy;
pub use metrics::{RunMetrics, CTR_DATA_UNITS, CTR_MESSAGES};
pub use program::{merge_milestone, NodeApi, NodeProgram, ProgramFactory, MERGE_COMPLETE_KEYS};
pub use shard::{HopEdge, RoleFootprint, ShardPlan, SiteFootprint};
pub use tree::{
    spanning_tree_from_positions, tree_convergecast_estimate, ConvergecastSum, TreeApi,
    TreeProgram, TreeVm, VirtualTree,
};
pub use vm::{Exfiltrated, Vm, VmReport};
