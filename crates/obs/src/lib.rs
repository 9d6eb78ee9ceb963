//! # wsn-obs — telemetry for the WSN reproduction stack
//!
//! Observability primitives shared by every layer of the reproduction.
//! Metrics themselves live in [`wsn_sim::Stats`] stores, the one metric
//! store of the stack: the kernel's run statistics, and the runtime's phase
//! telemetry and per-shard accounting, which it writes at phase
//! boundaries. This crate turns them into records and renders them:
//!
//! * [`SpanRecorder`] / [`SpanNode`] — phase-scoped spans over simulated
//!   time. The runtime driver opens a span per mission phase
//!   (topology-emulation, binding, application) and per quadtree merge
//!   level; the closed spans form a tree whose durations decompose the
//!   total run, which is exactly what the paper's phase-latency analysis
//!   needs.
//! * [`TraceDocument`] — a JSONL serialization of a whole run: meta line,
//!   span trees, counters, gauges and histograms absorbed from [`wsn_sim::Stats`]
//!   stores ([`TraceDocument::absorb_stats`], which re-bins each exact
//!   histogram into a [`FixedHistogram`]), per-node resource snapshots,
//!   and the kernel event stream, the run's one dispatch log (a
//!   post-mortem replays the failing seed with it on). Round-trips
//!   losslessly through
//!   [`TraceDocument::to_jsonl`] / [`TraceDocument::from_jsonl`] with a
//!   built-in parser (no external JSON dependency).
//! * [`render_span_forest`] / [`render_timeline`] — human-readable sinks:
//!   an ASCII span tree with durations and shares, and a per-node activity
//!   timeline.
//! * [`HbDag`] / [`extract_critical_path`] — the causal layer: a
//!   validated happens-before DAG over a run's Lamport-stamped events,
//!   and the exact critical path through the quad-tree merge with
//!   per-hop flight/handle and per-merge-level attribution.
//! * [`shard_table`] — the per-shard utilization, skew and barrier-stall
//!   table of a sharded run's telemetry (what `netscope shards` prints).
//! * [`render_trace_diff`] — per-counter/per-span deltas between two
//!   trace documents (what `netscope diff` prints).
//!
//! Everything here is deterministic: spans and traces from two runs with
//! the same seed compare equal, which the determinism suite asserts.

#![forbid(unsafe_code)]

pub mod causal;
pub mod critpath;
pub mod diff;
pub mod json;
pub mod registry;
pub mod shardview;
pub mod span;
pub mod timeline;
pub mod trace;

pub use causal::{DagError, HbDag};
pub use critpath::{extract_critical_path, CriticalPath, PathSegment, SegmentKind};
pub use diff::render_trace_diff;
pub use json::{Json, JsonError};
pub use registry::{labeled, split_labels, FixedHistogram, TICK_BUCKETS};
pub use shardview::{shard_table, ShardRow, ShardTable};
pub use span::{render_span_forest, SpanNode, SpanRecorder};
pub use timeline::{render_timeline, TimelineConfig};
pub use trace::{NodeSnapshot, TraceDocument, TraceMeta, TraceParseError, TRACE_SCHEMA_VERSION};
