//! Per-shard telemetry view — the table behind `netscope shards`.
//!
//! A shard-metrics trace (recorded by `wsn_bench::experiments::record_shard_metrics_trace`
//! or `netscope shards --demo`) carries the engine's per-shard accounting as
//! `shard=`-labeled series. [`shard_table`] folds those series back
//! into one row per shard — events dispatched, cross-shard traffic staged and
//! applied at the epoch barrier, the barrier-stall proxy, and the lane queue
//! depths — plus the reconciliation verdict the TC010 conformance check
//! automates: the per-shard event counters must sum to the kernel's own
//! dispatch total for the run.

use crate::registry::split_labels;
use crate::trace::TraceDocument;

/// One shard's accumulated telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRow {
    /// Shard label: `"0"`..`"N-1"`.
    pub label: String,
    /// Events dispatched on this shard's lane.
    pub events: u64,
    /// Cross-shard events staged at this shard's outbox.
    pub staged: u64,
    /// Cross-shard events applied into this shard at the barrier.
    pub applied: u64,
    /// Barrier-stall proxy: events this shard waited on the per-window
    /// straggler for, summed over all windows.
    pub stall: u64,
    /// Peak lane queue depth over the run.
    pub depth_max: f64,
    /// Mean lane queue depth over the run's windows.
    pub depth_mean: f64,
}

/// The decoded per-shard view of one shard-metrics trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTable {
    /// Shard count the engine ran with (`shard.count` gauge).
    pub shard_count: u64,
    /// Barrier windows executed (`shard.windows`).
    pub windows: u64,
    /// The kernel's own dispatch total (`shard.events.total`) — counted
    /// independently of the per-shard series, which is what makes the
    /// reconciliation below meaningful.
    pub total: u64,
    /// Per-shard rows, shards in numeric order.
    pub rows: Vec<ShardRow>,
    /// `true` when the per-shard event counters sum to [`ShardTable::total`]
    /// and staged cross-shard traffic balances applied.
    pub reconciled: bool,
    /// Utilization skew: max over mean of the per-shard event counts.
    /// `1.0` is a perfectly balanced run.
    pub skew: f64,
}

/// Decodes the `shard=`-labeled series of `doc` into a [`ShardTable`].
/// Errors when the trace carries no shard telemetry at all.
pub fn shard_table(doc: &TraceDocument) -> Result<ShardTable, String> {
    if !doc.counters.iter().any(|(k, _)| k == "shard.events.total") {
        return Err(
            "trace carries no shard telemetry (no shard.events.total counter); record one \
             with wsn_bench::experiments::record_shard_metrics_trace or netscope shards --demo"
                .to_string(),
        );
    }
    let total = doc.counter("shard.events.total");
    let windows = doc.counter("shard.windows");
    let shard_count = doc
        .gauges
        .iter()
        .find(|(k, _)| k == "shard.count")
        .map(|&(_, v)| v as u64)
        .ok_or("trace has shard counters but no shard.count gauge")?;

    let counter_series = |metric: &str, shard: &str| -> u64 {
        doc.counters
            .iter()
            .find(|(k, _)| {
                let (name, labels) = split_labels(k);
                name == metric && labels == [("shard", shard)]
            })
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let gauge_series = |metric: &str, shard: &str| -> f64 {
        doc.gauges
            .iter()
            .find(|(k, _)| {
                let (name, labels) = split_labels(k);
                name == metric && labels == [("shard", shard)]
            })
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };

    let rows: Vec<ShardRow> = (0..shard_count)
        .map(|s| s.to_string())
        .map(|l| ShardRow {
            events: counter_series("shard.events", &l),
            staged: counter_series("shard.cross.staged", &l),
            applied: counter_series("shard.cross.applied", &l),
            stall: counter_series("shard.barrier.stall", &l),
            depth_max: gauge_series("shard.queue.depth.max", &l),
            depth_mean: gauge_series("shard.queue.depth.mean", &l),
            label: l,
        })
        .collect();

    let events_sum: u64 = rows.iter().map(|r| r.events).sum();
    let staged_sum: u64 = rows.iter().map(|r| r.staged).sum();
    let applied_sum: u64 = rows.iter().map(|r| r.applied).sum();
    let mean = events_sum as f64 / rows.len().max(1) as f64;
    let skew = if mean > 0.0 {
        rows.iter().map(|r| r.events).max().unwrap_or(0) as f64 / mean
    } else {
        1.0
    };
    Ok(ShardTable {
        shard_count,
        windows,
        total,
        rows,
        reconciled: events_sum == total && staged_sum == applied_sum,
        skew,
    })
}

impl ShardTable {
    /// Renders the per-shard table with the reconciliation verdict — the
    /// `netscope shards` output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "shard telemetry: {} shard(s), {} barrier window(s), {} events dispatched\n",
            self.shard_count, self.windows, self.total
        );
        out.push_str(&format!(
            "{:<8} {:>8} {:>7} {:>8} {:>8} {:>8} {:>10} {:>11}\n",
            "shard", "events", "share%", "staged", "applied", "stall", "depth.max", "depth.mean"
        ));
        for row in &self.rows {
            let share = 100.0 * row.events as f64 / self.total.max(1) as f64;
            out.push_str(&format!(
                "{:<8} {:>8} {:>6.1}% {:>8} {:>8} {:>8} {:>10.1} {:>11.2}\n",
                row.label,
                row.events,
                share,
                row.staged,
                row.applied,
                row.stall,
                row.depth_max,
                row.depth_mean
            ));
        }
        out.push_str(&format!("utilization skew (max/mean): {:.2}x\n", self.skew));
        let events_sum: u64 = self.rows.iter().map(|r| r.events).sum();
        if self.reconciled {
            out.push_str(&format!(
                "reconciliation: per-shard sum {events_sum} == kernel total {} — reconciled\n",
                self.total
            ));
        } else {
            out.push_str(&format!(
                "reconciliation: MISMATCH — per-shard sum {events_sum} vs kernel total {} \
                 (see wsn-lint gate shard-metrics / TC010)\n",
                self.total
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::labeled;

    fn doc_with(counters: Vec<(&str, u64)>, gauges: Vec<(&str, f64)>) -> TraceDocument {
        TraceDocument {
            counters: counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            ..TraceDocument::default()
        }
    }

    fn balanced_doc() -> TraceDocument {
        doc_with(
            vec![
                ("shard.events.total", 90),
                ("shard.windows", 6),
                (&labeled("shard.events", &[("shard", "0")]), 40),
                (&labeled("shard.events", &[("shard", "1")]), 50),
                (&labeled("shard.cross.staged", &[("shard", "0")]), 3),
                (&labeled("shard.cross.applied", &[("shard", "1")]), 3),
                (&labeled("shard.barrier.stall", &[("shard", "0")]), 7),
            ],
            vec![
                ("shard.count", 2.0),
                (&labeled("shard.queue.depth.max", &[("shard", "0")]), 4.0),
                (&labeled("shard.queue.depth.mean", &[("shard", "0")]), 1.5),
            ],
        )
    }

    #[test]
    fn balanced_trace_reconciles_and_renders_every_row() {
        let table = shard_table(&balanced_doc()).unwrap();
        assert!(table.reconciled);
        assert_eq!(table.shard_count, 2);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[1].label, "1");
        assert!((table.skew - 50.0 / 45.0).abs() < 1e-9);
        let text = table.render();
        assert!(
            text.contains("2 shard(s), 6 barrier window(s), 90 events"),
            "{text}"
        );
        assert!(text.contains("— reconciled"), "{text}");
    }

    #[test]
    fn undercounted_trace_reports_a_mismatch() {
        let mut doc = balanced_doc();
        for (k, v) in &mut doc.counters {
            if k == &labeled("shard.events", &[("shard", "0")]) {
                *v -= 1;
            }
        }
        let table = shard_table(&doc).unwrap();
        assert!(!table.reconciled);
        assert!(table.render().contains("MISMATCH"), "{}", table.render());
    }

    #[test]
    fn unbalanced_cross_traffic_also_breaks_reconciliation() {
        let mut doc = balanced_doc();
        doc.counters
            .push((labeled("shard.cross.staged", &[("shard", "1")]), 2));
        assert!(!shard_table(&doc).unwrap().reconciled);
    }

    #[test]
    fn traces_without_shard_telemetry_are_refused() {
        let doc = doc_with(vec![("net.messages", 5)], vec![]);
        let err = shard_table(&doc).unwrap_err();
        assert!(err.contains("no shard telemetry"), "{err}");
    }
}
