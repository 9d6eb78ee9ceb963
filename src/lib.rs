//! # wsn — umbrella crate
//!
//! Re-exports the whole reproduction of Bakshi & Prasanna, *Algorithm
//! Design and Synthesis for Wireless Sensor Networks* (ICPP 2004), so
//! examples and downstream users depend on one crate:
//!
//! * [`sim`] — deterministic discrete-event kernel;
//! * [`net`] — physical sensor-network substrate;
//! * [`core`] — the virtual architecture (grid model, cost model, group
//!   middleware, programming primitives, analytical estimation, VM);
//! * [`runtime`] — topology emulation and virtual-process binding on real
//!   deployments;
//! * [`obs`] — telemetry: phase spans, JSONL traces of metric stores;
//! * [`synth`] — task graphs, constrained mapping, program synthesis;
//! * [`analyze`] — static analysis of synthesized artifacts: structured
//!   diagnostics, reachability, constraint/deadlock/budget lints;
//! * [`topoquery`] — the topographic-querying case study.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map.

#![forbid(unsafe_code)]

pub use wsn_analyze as analyze;
pub use wsn_core as core;
pub use wsn_net as net;
pub use wsn_obs as obs;
pub use wsn_runtime as runtime;
pub use wsn_sim as sim;
pub use wsn_synth as synth;
pub use wsn_topoquery as topoquery;
