//! Per-layer views of a traced pass: self times, counts at call
//! boundaries, and the per-layer metrics derived from them.

use crate::report::{median, metric, Metric};
use crate::trace::{Span, Tracer};
use crate::workloads::Workload;
use std::collections::BTreeMap;

/// Per-span-name views of a traced pass.
pub struct Layers<'a> {
    tr: &'a Tracer,
    self_ns: Vec<u64>,
    by_name: BTreeMap<&'static str, Vec<usize>>,
}

impl<'a> Layers<'a> {
    pub fn new(tr: &'a Tracer) -> Self {
        Layers {
            tr,
            self_ns: tr.self_times_ns(),
            by_name: tr.by_name(),
        }
    }

    fn spans(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median self time per call of `name`, in seconds (0 if never called).
    fn self_s(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .spans(name)
            .iter()
            .map(|&i| self.self_ns[i] as f64 * 1e-9)
            .collect();
        median(&v)
    }

    /// Values of count `key` on the spans named `name`.
    fn counts(&self, name: &str, key: &str) -> Vec<f64> {
        let spans = self.tr.spans();
        self.spans(name)
            .iter()
            .filter_map(|&i| spans[i].count(key))
            .collect()
    }

    /// Median of count `key` over the spans named `name`.
    fn count_median(&self, name: &str, key: &str) -> f64 {
        median(&self.counts(name, key))
    }

    /// Median over calls of `name` of `f(span)`.
    fn per_call(&self, name: &str, f: impl Fn(&Span) -> Option<f64>) -> f64 {
        let spans = self.tr.spans();
        let v: Vec<f64> = self
            .spans(name)
            .iter()
            .filter_map(|&i| f(&spans[i]))
            .collect();
        median(&v)
    }

    fn ns_per_event(&self, name: &str) -> f64 {
        self.per_call(name, |s| {
            let events = s.count("events")?;
            (events > 0.0).then(|| s.duration_ns() as f64 / events)
        })
    }

    fn hwm_per_node(&self, name: &str, nodes: usize) -> f64 {
        self.count_median(name, "hwm_growth") / nodes as f64
    }

    /// Per-op totals of count `key` over the calls the op span encloses.
    fn op_totals(&self, key: &str) -> Vec<f64> {
        let spans = self.tr.spans();
        let mut per_op: BTreeMap<usize, f64> = BTreeMap::new();
        for s in spans {
            let Some(parent) = s.parent.map(|p| &spans[p]) else {
                continue;
            };
            if let (true, Some(op), Some(v)) = (parent.name == "op", parent.op, s.count(key)) {
                *per_op.entry(op).or_default() += v;
            }
        }
        per_op.into_values().collect()
    }

    /// Application calls on either engine.
    fn app_counts(&self, key: &str) -> Vec<f64> {
        let mut v = self.counts("runtime.app", key);
        v.extend(self.counts("runtime.app_sharded", key));
        v
    }

    pub fn print_self_times(&self) {
        println!(
            "{:<22} {:>6} {:>12} {:>14}  counts (median per call)",
            "layer span", "calls", "self total s", "self median ms"
        );
        for (name, idx) in &self.by_name {
            let total: u64 = idx.iter().map(|&i| self.self_ns[i]).sum();
            let mut keys: Vec<&str> = idx
                .iter()
                .flat_map(|&i| self.tr.spans()[i].counts.iter().map(|(k, _)| *k))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let counts: Vec<String> = keys
                .iter()
                .map(|k| format!("{k}={}", self.count_median(name, k)))
                .collect();
            println!(
                "{:<22} {:>6} {:>12.6} {:>14.6}  {}",
                name,
                idx.len(),
                total as f64 * 1e-9,
                self.self_s(name) * 1e3,
                counts.join(" ")
            );
        }
    }

    /// Each op's host time and the share of it no layer span covers.
    pub fn print_unattributed(&self) {
        let spans = self.tr.spans();
        for &i in self.spans("op") {
            let op_ns = spans[i].duration_ns() as f64;
            let gap = self.self_ns[i] as f64;
            println!(
                "op {:>4} {:>12.3} ms  unattributed {:>9.3} ms ({:.2}%)",
                spans[i].op.unwrap_or(0),
                op_ns * 1e-6,
                gap * 1e-6,
                100.0 * gap / op_ns.max(1.0)
            );
        }
    }

    pub fn per_layer<W: Workload>(
        &self,
        w: &W,
        record_trace_s: f64,
        trace_bytes: usize,
        overhead_pct: f64,
        rss_bytes: u64,
    ) -> Vec<Metric> {
        let n = w.nodes();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let tx = self.op_totals("medium_tx");
        let delivered = self.op_totals("medium_delivered");
        let per_tx: Vec<f64> = tx
            .iter()
            .zip(&delivered)
            .map(|(t, d)| ratio(*d, *t))
            .collect();
        let messages = self.app_counts("messages");
        let hops_per_msg: Vec<f64> = self
            .app_counts("hops")
            .iter()
            .zip(&messages)
            .map(|(h, m)| ratio(*h, *m))
            .collect();
        let queue_max = self
            .counts("op", "queue_depth_max")
            .into_iter()
            .fold(0.0, f64::max);
        vec![
            metric("net.deploy_s", self.self_s("net.deploy"), "s"),
            metric("topoquery.oracle_s", self.self_s("topoquery.oracle"), "s"),
            metric(
                "analyze.shard_cert_s",
                self.self_s("analyze.shard_cert"),
                "s",
            ),
            metric("runtime.new_s", self.self_s("runtime.new"), "s"),
            metric(
                "runtime.new_hwm_bytes_per_node",
                self.hwm_per_node("runtime.new", n),
                "bytes",
            ),
            metric("runtime.topo_s", self.self_s("runtime.topo"), "s"),
            metric(
                "runtime.topo_events",
                self.count_median("runtime.topo", "events"),
                "count",
            ),
            metric(
                "runtime.topo_ns_per_event",
                self.ns_per_event("runtime.topo"),
                "ns",
            ),
            metric(
                "runtime.topo_hwm_bytes_per_node",
                self.hwm_per_node("runtime.topo", n),
                "bytes",
            ),
            metric("runtime.bind_s", self.self_s("runtime.bind"), "s"),
            metric(
                "runtime.bind_events",
                self.count_median("runtime.bind", "events"),
                "count",
            ),
            metric(
                "runtime.bind_ns_per_event",
                self.ns_per_event("runtime.bind"),
                "ns",
            ),
            metric(
                "runtime.bind_hwm_bytes_per_node",
                self.hwm_per_node("runtime.bind", n),
                "bytes",
            ),
            metric("runtime.install_s", self.self_s("runtime.install"), "s"),
            metric("runtime.app_s", self.self_s("runtime.app"), "s"),
            metric(
                "runtime.app_events",
                self.count_median("runtime.app", "events"),
                "count",
            ),
            metric(
                "runtime.app_ns_per_event",
                self.ns_per_event("runtime.app"),
                "ns",
            ),
            metric(
                "runtime.app_hwm_bytes_per_node",
                self.hwm_per_node("runtime.app", n),
                "bytes",
            ),
            metric(
                "runtime.app_sharded_s",
                self.self_s("runtime.app_sharded"),
                "s",
            ),
            metric(
                "runtime.app_sharded_ns_per_event",
                self.ns_per_event("runtime.app_sharded"),
                "ns",
            ),
            metric(
                "runtime.sharded_over_sequential",
                ratio(
                    self.self_s("runtime.app_sharded"),
                    self.self_s("runtime.app"),
                ),
                "ratio",
            ),
            metric(
                "sim.shard_windows",
                self.count_median("runtime.app_sharded", "shard_windows"),
                "count",
            ),
            metric(
                "sim.shard_barrier_stall",
                self.count_median("runtime.app_sharded", "shard_barrier_stall"),
                "count",
            ),
            metric(
                "sim.shard_cross_staged",
                self.count_median("runtime.app_sharded", "shard_cross_staged"),
                "count",
            ),
            metric(
                "sim.shard_events_skew",
                self.count_median("runtime.app_sharded", "shard_events_skew"),
                "ratio",
            ),
            metric("runtime.event_bytes", w.event_bytes() as f64, "bytes"),
            metric("runtime.exfil_s", self.self_s("runtime.exfil"), "s"),
            metric("net.medium_tx", median(&tx), "count"),
            metric("net.medium_delivered", median(&delivered), "count"),
            metric("net.delivered_per_tx", median(&per_tx), "ratio"),
            metric(
                "net.suppressed_ratio",
                self.per_call("runtime.topo", |s| {
                    Some(ratio(s.count("suppressed")?, s.count("medium_delivered")?))
                }),
                "ratio",
            ),
            metric("runtime.app_messages", median(&messages), "count"),
            metric(
                "runtime.app_hops_per_message",
                median(&hops_per_msg),
                "ratio",
            ),
            metric(
                "sim.queue_depth_p50",
                self.count_median("op", "queue_depth_p50"),
                "events",
            ),
            metric("sim.queue_depth_max", queue_max, "events"),
            metric("obs.record_trace_s", record_trace_s, "s"),
            metric("obs.trace_bytes", trace_bytes as f64, "bytes"),
            metric("obs.tracing_overhead_pct", overhead_pct, "%"),
            metric(
                "mem.rss_bytes_per_node",
                rss_bytes as f64 / n as f64,
                "bytes",
            ),
            metric(
                "mem.minor_faults_per_op",
                self.count_median("op", "minor_faults"),
                "count",
            ),
        ]
    }
}
