//! JSONL trace documents.
//!
//! A trace is a sequence of JSON Lines records, one per line, each tagged
//! with a `"t"` field:
//!
//! | tag     | record                                                   |
//! |---------|----------------------------------------------------------|
//! | `meta`  | run parameters (grid side, seed, node count, totals)     |
//! | `span`  | one root [`SpanNode`] with nested children               |
//! | `ctr`   | a counter name/value pair                                |
//! | `gauge` | a gauge name/value pair                                  |
//! | `hist`  | a [`FixedHistogram`] with buckets and summary stats      |
//! | `node`  | a per-node snapshot (energy, tx/rx message counts)       |
//! | `ev`    | one kernel [`TraceEntry`] (dispatched event)             |
//! | `cev`   | one causal [`CausalEvent`] (Lamport-stamped send/deliver/local) |
//!
//! [`TraceDocument`] is the in-memory form; [`TraceDocument::to_jsonl`] and
//! [`TraceDocument::from_jsonl`] convert losslessly in both directions.
//! [`TraceDocument::absorb_stats`] is the one path from a metric store into
//! a trace.

use crate::json::Json;
use crate::registry::FixedHistogram;
use crate::span::SpanNode;
use std::fmt;
use wsn_sim::{CausalEvent, CausalKind, SimTime, Stats, TraceEntry, TraceKind};

/// The JSONL trace schema this writer emits and this reader understands.
/// Bumped on any incompatible record-shape change; see
/// [`TraceDocument::from_jsonl`] for the mismatch policy.
///
/// * v1 — meta/span/ctr/gauge/hist/node/ev records.
/// * v2 — adds `cev` causal-event records (Lamport stamps, cause links);
///   consumers assume causal semantics v1 readers cannot check, so v1
///   traces are rejected rather than silently read without them.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// Run parameters recorded in a trace's `meta` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Trace schema version (see [`TRACE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Grid side length (the run simulates `grid * grid` sensors).
    pub grid: u64,
    /// Master seed of the run.
    pub seed: u64,
    /// Number of simulated nodes.
    pub nodes: u64,
    /// Simulated clock at the end of the run, in ticks.
    pub total_ticks: u64,
    /// Total kernel events dispatched.
    pub events: u64,
}

impl Default for TraceMeta {
    fn default() -> Self {
        TraceMeta {
            schema_version: TRACE_SCHEMA_VERSION,
            grid: 0,
            seed: 0,
            nodes: 0,
            total_ticks: 0,
            events: 0,
        }
    }
}

/// Per-node resource snapshot recorded in a `node` line.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot {
    /// Node id (kernel actor id).
    pub id: u64,
    /// Energy consumed over the run, in cost-model units.
    pub energy: f64,
    /// Transmit activity (data units; equals tx energy under the uniform
    /// cost model).
    pub tx: u64,
    /// Receive activity, in data units.
    pub rx: u64,
    /// Deployment cell `(col, row)` the node lies in, when the recorder
    /// knows the placement map; `None` for synthetic or legacy traces.
    /// Optional within schema v2: shard-conformance replay requires it,
    /// plain bound conformance does not.
    pub cell: Option<(u32, u32)>,
}

/// A parsed or under-construction trace; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct TraceDocument {
    /// Run parameters, if a `meta` line was present.
    pub meta: Option<TraceMeta>,
    /// Root spans, in file order.
    pub spans: Vec<SpanNode>,
    /// Counters, in file order.
    pub counters: Vec<(String, u64)>,
    /// Gauges, in file order.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, in file order.
    pub histograms: Vec<(String, FixedHistogram)>,
    /// Per-node snapshots, in file order.
    pub nodes: Vec<NodeSnapshot>,
    /// Kernel events, in dispatch order.
    pub events: Vec<TraceEntry>,
    /// Causal events (Lamport-stamped sends/deliveries/local milestones),
    /// in record order — empty unless causal tracing was enabled.
    pub causal: Vec<CausalEvent>,
}

/// Failure to parse a JSONL trace, with the 1-based offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong on that line.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

impl TraceDocument {
    /// An empty document.
    pub fn new() -> Self {
        TraceDocument::default()
    }

    /// Appends every counter and gauge of `stats`, and every histogram
    /// re-binned into [`crate::TICK_BUCKETS`], each kind in key order.
    pub fn absorb_stats(&mut self, stats: &Stats) {
        self.counters
            .extend(stats.counters().map(|(key, v)| (key.to_string(), v)));
        self.gauges
            .extend(stats.gauges().map(|(key, v)| (key.to_string(), v)));
        for (key, h) in stats.histograms() {
            let mut fixed = FixedHistogram::ticks();
            for &v in h.values() {
                fixed.record(v);
            }
            self.histograms.push((key.to_string(), fixed));
        }
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Serializes the document to JSON Lines (one record per line, in the
    /// order meta, spans, counters, gauges, histograms, nodes, events).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(meta) = &self.meta {
            push_line(&mut out, meta_to_json(meta));
        }
        for span in &self.spans {
            let mut obj = vec![("t".to_string(), Json::Str("span".to_string()))];
            span_fields(span, &mut obj);
            push_line(&mut out, Json::Obj(obj));
        }
        for (name, value) in &self.counters {
            push_line(
                &mut out,
                Json::Obj(vec![
                    ("t".to_string(), Json::Str("ctr".to_string())),
                    ("name".to_string(), Json::Str(name.clone())),
                    ("value".to_string(), Json::from_u64(*value)),
                ]),
            );
        }
        for (name, value) in &self.gauges {
            push_line(
                &mut out,
                Json::Obj(vec![
                    ("t".to_string(), Json::Str("gauge".to_string())),
                    ("name".to_string(), Json::Str(name.clone())),
                    ("value".to_string(), Json::Num(*value)),
                ]),
            );
        }
        for (name, h) in &self.histograms {
            push_line(&mut out, hist_to_json(name, h));
        }
        for node in &self.nodes {
            let mut fields = vec![
                ("t".to_string(), Json::Str("node".to_string())),
                ("id".to_string(), Json::from_u64(node.id)),
                ("energy".to_string(), Json::Num(node.energy)),
                ("tx".to_string(), Json::from_u64(node.tx)),
                ("rx".to_string(), Json::from_u64(node.rx)),
            ];
            if let Some((col, row)) = node.cell {
                fields.push(("col".to_string(), Json::from_u64(u64::from(col))));
                fields.push(("row".to_string(), Json::from_u64(u64::from(row))));
            }
            push_line(&mut out, Json::Obj(fields));
        }
        for ev in &self.events {
            push_line(&mut out, event_to_json(ev));
        }
        for cev in &self.causal {
            push_line(&mut out, causal_to_json(cev));
        }
        out
    }

    /// Parses a JSON Lines trace. Blank lines are skipped; unknown record
    /// tags are an error (they indicate a version mismatch).
    pub fn from_jsonl(text: &str) -> Result<Self, TraceParseError> {
        let mut doc = TraceDocument::new();
        for (idx, line) in text.lines().enumerate() {
            let line_no = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| TraceParseError {
                line: line_no,
                message: e.to_string(),
            })?;
            let fail = |message: &str| TraceParseError {
                line: line_no,
                message: message.to_string(),
            };
            let tag = v
                .get("t")
                .and_then(Json::as_str)
                .ok_or_else(|| fail("missing record tag \"t\""))?;
            match tag {
                "meta" => doc.meta = Some(meta_from_json(&v).map_err(|e| fail(&e))?),
                "span" => doc.spans.push(span_from_json(&v).map_err(&fail)?),
                "ctr" => {
                    let name = v
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| fail("ctr without name"))?;
                    let value = v
                        .get("value")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| fail("ctr without value"))?;
                    doc.counters.push((name.to_string(), value));
                }
                "gauge" => {
                    let name = v
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| fail("gauge without name"))?;
                    let value = v
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| fail("gauge without value"))?;
                    doc.gauges.push((name.to_string(), value));
                }
                "hist" => doc.histograms.push(hist_from_json(&v).map_err(&fail)?),
                "node" => doc.nodes.push(NodeSnapshot {
                    id: v
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| fail("node without id"))?,
                    energy: v
                        .get("energy")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| fail("node without energy"))?,
                    tx: v.get("tx").and_then(Json::as_u64).unwrap_or(0),
                    rx: v.get("rx").and_then(Json::as_u64).unwrap_or(0),
                    cell: match (
                        v.get("col").and_then(Json::as_u64),
                        v.get("row").and_then(Json::as_u64),
                    ) {
                        (Some(col), Some(row)) => Some((
                            u32::try_from(col).map_err(|_| fail("node col overflows u32"))?,
                            u32::try_from(row).map_err(|_| fail("node row overflows u32"))?,
                        )),
                        _ => None,
                    },
                }),
                "ev" => doc.events.push(event_from_json(&v).map_err(&fail)?),
                "cev" => doc.causal.push(causal_from_json(&v).map_err(&fail)?),
                other => return Err(fail(&format!("unknown record tag {other:?}"))),
            }
        }
        Ok(doc)
    }
}

fn push_line(out: &mut String, v: Json) {
    out.push_str(&v.render());
    out.push('\n');
}

fn meta_to_json(meta: &TraceMeta) -> Json {
    Json::Obj(vec![
        ("t".to_string(), Json::Str("meta".to_string())),
        (
            "schema_version".to_string(),
            Json::from_u64(meta.schema_version),
        ),
        ("grid".to_string(), Json::from_u64(meta.grid)),
        ("seed".to_string(), Json::from_u64(meta.seed)),
        ("nodes".to_string(), Json::from_u64(meta.nodes)),
        ("total_ticks".to_string(), Json::from_u64(meta.total_ticks)),
        ("events".to_string(), Json::from_u64(meta.events)),
    ])
}

fn meta_from_json(v: &Json) -> Result<TraceMeta, String> {
    let field = |key: &str| v.get(key).and_then(Json::as_u64);
    // Pre-versioning traces carry no schema_version; they are v1 by
    // construction. A *different* version is an incompatibility: reject
    // with a clear message instead of misparsing the records downstream.
    let schema_version = field("schema_version").unwrap_or(1);
    if schema_version != TRACE_SCHEMA_VERSION {
        return Err(format!(
            "unsupported trace schema_version {schema_version} (this reader understands \
             {TRACE_SCHEMA_VERSION}); re-record the trace with a matching wsn-obs"
        ));
    }
    Ok(TraceMeta {
        schema_version,
        grid: field("grid").ok_or("meta without grid")?,
        seed: field("seed").ok_or("meta without seed")?,
        nodes: field("nodes").ok_or("meta without nodes")?,
        total_ticks: field("total_ticks").ok_or("meta without total_ticks")?,
        events: field("events").ok_or("meta without events")?,
    })
}

fn span_fields(span: &SpanNode, obj: &mut Vec<(String, Json)>) {
    obj.push(("name".to_string(), Json::Str(span.name.clone())));
    obj.push(("start".to_string(), Json::from_u64(span.start.ticks())));
    obj.push(("end".to_string(), Json::from_u64(span.end.ticks())));
    obj.push(("events".to_string(), Json::from_u64(span.events)));
    let children = span
        .children
        .iter()
        .map(|c| {
            let mut child = Vec::new();
            span_fields(c, &mut child);
            Json::Obj(child)
        })
        .collect();
    obj.push(("children".to_string(), Json::Arr(children)));
}

fn span_from_json(v: &Json) -> Result<SpanNode, &'static str> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or("span without name")?;
    let start = v
        .get("start")
        .and_then(Json::as_u64)
        .ok_or("span without start")?;
    let end = v
        .get("end")
        .and_then(Json::as_u64)
        .ok_or("span without end")?;
    let events = v.get("events").and_then(Json::as_u64).unwrap_or(0);
    let children = match v.get("children") {
        Some(c) => c
            .as_arr()
            .ok_or("span children is not an array")?
            .iter()
            .map(span_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    Ok(SpanNode {
        name: name.to_string(),
        start: SimTime::from_ticks(start),
        end: SimTime::from_ticks(end),
        events,
        children,
    })
}

fn hist_to_json(name: &str, h: &FixedHistogram) -> Json {
    Json::Obj(vec![
        ("t".to_string(), Json::Str("hist".to_string())),
        ("name".to_string(), Json::Str(name.to_string())),
        (
            "uppers".to_string(),
            Json::Arr(h.uppers().iter().map(|&u| Json::Num(u)).collect()),
        ),
        (
            "counts".to_string(),
            Json::Arr(
                h.bucket_counts()
                    .iter()
                    .map(|&c| Json::from_u64(c))
                    .collect(),
            ),
        ),
        ("count".to_string(), Json::from_u64(h.count())),
        ("sum".to_string(), Json::Num(h.sum())),
        ("min".to_string(), Json::Num(h.min())),
        ("max".to_string(), Json::Num(h.max())),
    ])
}

fn hist_from_json(v: &Json) -> Result<(String, FixedHistogram), &'static str> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or("hist without name")?;
    let uppers = v
        .get("uppers")
        .and_then(Json::as_arr)
        .ok_or("hist without uppers")?
        .iter()
        .map(|x| x.as_f64().ok_or("hist upper is not a number"))
        .collect::<Result<Vec<_>, _>>()?;
    let counts = v
        .get("counts")
        .and_then(Json::as_arr)
        .ok_or("hist without counts")?
        .iter()
        .map(|x| x.as_u64().ok_or("hist count is not a number"))
        .collect::<Result<Vec<_>, _>>()?;
    if counts.len() != uppers.len() + 1 {
        return Err("hist counts/uppers length mismatch");
    }
    let count = v
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("hist without count")?;
    let sum = v
        .get("sum")
        .and_then(Json::as_f64)
        .ok_or("hist without sum")?;
    let min = v.get("min").and_then(Json::as_f64).unwrap_or(0.0);
    let max = v.get("max").and_then(Json::as_f64).unwrap_or(0.0);
    Ok((
        name.to_string(),
        FixedHistogram::from_parts(uppers, counts, count, sum, min, max),
    ))
}

fn event_to_json(ev: &TraceEntry) -> Json {
    let kind = match ev.kind {
        TraceKind::Message => "msg",
        TraceKind::Timer => "timer",
    };
    Json::Obj(vec![
        ("t".to_string(), Json::Str("ev".to_string())),
        ("time".to_string(), Json::from_u64(ev.time.ticks())),
        ("target".to_string(), Json::from_u64(ev.target as u64)),
        ("kind".to_string(), Json::Str(kind.to_string())),
        ("a".to_string(), Json::from_u64(ev.a as u64)),
        ("b".to_string(), Json::from_u64(ev.b)),
    ])
}

fn event_from_json(v: &Json) -> Result<TraceEntry, &'static str> {
    let time = v
        .get("time")
        .and_then(Json::as_u64)
        .ok_or("ev without time")?;
    let target = v
        .get("target")
        .and_then(Json::as_u64)
        .ok_or("ev without target")?;
    let kind = match v.get("kind").and_then(Json::as_str) {
        Some("msg") => TraceKind::Message,
        Some("timer") => TraceKind::Timer,
        _ => return Err("ev with unknown kind"),
    };
    let a = v.get("a").and_then(Json::as_u64).unwrap_or(0);
    let b = v.get("b").and_then(Json::as_u64).unwrap_or(0);
    Ok(TraceEntry {
        time: SimTime::from_ticks(time),
        target: target as usize,
        kind,
        a: a as usize,
        b,
    })
}

fn causal_to_json(cev: &CausalEvent) -> Json {
    let kind = match cev.kind {
        CausalKind::Send => "s",
        CausalKind::Deliver => "d",
        CausalKind::Local => "l",
    };
    Json::Obj(vec![
        ("t".to_string(), Json::Str("cev".to_string())),
        ("seq".to_string(), Json::from_u64(cev.seq)),
        ("time".to_string(), Json::from_u64(cev.time.ticks())),
        ("node".to_string(), Json::from_u64(cev.node as u64)),
        ("kind".to_string(), Json::Str(kind.to_string())),
        ("lam".to_string(), Json::from_u64(cev.lamport)),
        ("cause".to_string(), Json::from_u64(cev.cause)),
        ("label".to_string(), Json::Str(cev.label.clone())),
        ("units".to_string(), Json::from_u64(cev.units)),
    ])
}

fn causal_from_json(v: &Json) -> Result<CausalEvent, &'static str> {
    let seq = v
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or("cev without seq")?;
    let time = v
        .get("time")
        .and_then(Json::as_u64)
        .ok_or("cev without time")?;
    let node = v
        .get("node")
        .and_then(Json::as_u64)
        .ok_or("cev without node")?;
    let kind = match v.get("kind").and_then(Json::as_str) {
        Some("s") => CausalKind::Send,
        Some("d") => CausalKind::Deliver,
        Some("l") => CausalKind::Local,
        _ => return Err("cev with unknown kind"),
    };
    let lamport = v
        .get("lam")
        .and_then(Json::as_u64)
        .ok_or("cev without lam")?;
    let cause = v.get("cause").and_then(Json::as_u64).unwrap_or(0);
    let label = v
        .get("label")
        .and_then(Json::as_str)
        .ok_or("cev without label")?;
    let units = v.get("units").and_then(Json::as_u64).unwrap_or(0);
    Ok(CausalEvent {
        seq,
        time: SimTime::from_ticks(time),
        node: node as usize,
        kind,
        lamport,
        cause,
        label: label.to_string(),
        units,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn sample_doc() -> TraceDocument {
        let mut doc = TraceDocument::new();
        doc.meta = Some(TraceMeta {
            schema_version: TRACE_SCHEMA_VERSION,
            grid: 16,
            seed: 42,
            nodes: 256,
            total_ticks: 900,
            events: 5000,
        });
        doc.spans.push(SpanNode {
            name: "mission".to_string(),
            start: t(0),
            end: t(900),
            events: 5000,
            children: vec![
                SpanNode::leaf("topology-emulation", t(0), t(300), 2000),
                SpanNode::leaf("binding", t(300), t(500), 1000),
            ],
        });
        doc.counters.push(("topo.msgs".to_string(), 2000));
        doc.gauges.push(("energy.total".to_string(), 12.5));
        let mut h = FixedHistogram::new(&[1.0, 8.0]);
        h.record(0.5);
        h.record(4.0);
        h.record(100.0);
        doc.histograms.push(("latency".to_string(), h));
        doc.nodes.push(NodeSnapshot {
            id: 3,
            energy: 1.25,
            tx: 40,
            rx: 41,
            cell: Some((5, 2)),
        });
        doc.events.push(TraceEntry {
            time: t(7),
            target: 3,
            kind: TraceKind::Message,
            a: 1,
            b: 4,
        });
        doc.events.push(TraceEntry {
            time: t(9),
            target: 1,
            kind: TraceKind::Timer,
            a: 0,
            b: 2,
        });
        doc.causal.push(CausalEvent {
            seq: 1,
            time: t(5),
            node: 2,
            kind: CausalKind::Send,
            lamport: 1,
            cause: 0,
            label: "app.hop".to_string(),
            units: 5,
        });
        doc.causal.push(CausalEvent {
            seq: 2,
            time: t(10),
            node: 7,
            kind: CausalKind::Deliver,
            lamport: 2,
            cause: 1,
            label: "app.hop".to_string(),
            units: 5,
        });
        doc.causal.push(CausalEvent {
            seq: 3,
            time: t(10),
            node: 7,
            kind: CausalKind::Local,
            lamport: 3,
            cause: 1,
            label: "merge.level1".to_string(),
            units: 0,
        });
        doc
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let doc = sample_doc();
        let text = doc.to_jsonl();
        assert_eq!(text.lines().count(), 11);
        let parsed = TraceDocument::from_jsonl(&text).unwrap();
        assert_eq!(parsed.meta, doc.meta);
        assert_eq!(parsed.spans, doc.spans);
        assert_eq!(parsed.counters, doc.counters);
        assert_eq!(parsed.gauges, doc.gauges);
        assert_eq!(parsed.histograms, doc.histograms);
        assert_eq!(parsed.nodes, doc.nodes);
        assert_eq!(parsed.events, doc.events);
        assert_eq!(parsed.causal, doc.causal);
        // Serialize → parse → serialize is a fixed point.
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn causal_round_trip_preserves_every_stamp_field() {
        // Property-style sweep: every kind × a spread of stamp values must
        // survive the JSONL round trip bit-for-bit, including the fields
        // new in schema v2 (lamport, cause, label, units).
        let kinds = [CausalKind::Send, CausalKind::Deliver, CausalKind::Local];
        let mut doc = TraceDocument::new();
        doc.meta = Some(TraceMeta::default());
        for (i, &kind) in kinds.iter().cycle().take(60).enumerate() {
            let i = i as u64;
            doc.causal.push(CausalEvent {
                seq: i + 1,
                time: t(i * 3 + 1),
                node: (i % 7) as usize,
                kind,
                lamport: i + 1,
                cause: i, // 0 on the first = a root
                label: format!("label-{i}"),
                units: i % 6,
            });
        }
        let parsed = TraceDocument::from_jsonl(&doc.to_jsonl()).unwrap();
        assert_eq!(parsed.causal, doc.causal);
        assert_eq!(parsed.to_jsonl(), doc.to_jsonl());
    }

    #[test]
    fn schema_version_round_trips_and_gates_parsing() {
        // The writer stamps the current version.
        let doc = sample_doc();
        assert!(doc
            .to_jsonl()
            .lines()
            .next()
            .unwrap()
            .contains("\"schema_version\":2"));
        // A pre-versioning meta line (no field) is v1 by construction —
        // rejected now that the reader assumes v2 causal semantics.
        let legacy = "{\"t\":\"meta\",\"grid\":4,\"seed\":1,\"nodes\":16,\
                      \"total_ticks\":9,\"events\":2}";
        let err = TraceDocument::from_jsonl(legacy).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(
            err.message.contains("unsupported trace schema_version 1"),
            "{}",
            err.message
        );
        // An explicit v1 stamp is rejected the same way.
        let v1 = "{\"t\":\"meta\",\"schema_version\":1,\"grid\":4,\"seed\":1,\
                  \"nodes\":16,\"total_ticks\":9,\"events\":2}";
        let err = TraceDocument::from_jsonl(v1).unwrap_err();
        assert!(err.message.contains("understands 2"), "{}", err.message);
        // So is a future version: a clear error, not a misparse.
        let future = "{\"t\":\"meta\",\"schema_version\":3,\"grid\":4,\"seed\":1,\
                      \"nodes\":16,\"total_ticks\":9,\"events\":2}";
        let err = TraceDocument::from_jsonl(future).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(
            err.message.contains("unsupported trace schema_version 3"),
            "{}",
            err.message
        );
        assert!(err.message.contains("understands 2"), "{}", err.message);
    }

    #[test]
    fn blank_lines_are_skipped_and_unknown_tags_rejected() {
        let doc = TraceDocument::from_jsonl("\n\n{\"t\":\"ctr\",\"name\":\"x\",\"value\":3}\n\n")
            .unwrap();
        assert_eq!(doc.counter("x"), 3);
        let err = TraceDocument::from_jsonl("{\"t\":\"mystery\"}").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("mystery"));
        let err = TraceDocument::from_jsonl("{\"t\":\"ctr\",\"name\":\"x\",\"value\":3}\nnot json")
            .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn node_cell_is_optional_and_round_trips() {
        // Legacy node lines carry no placement; the reader must not
        // reject them (bound conformance never needed cells).
        let legacy = "{\"t\":\"node\",\"id\":1,\"energy\":0.5,\"tx\":2,\"rx\":3}";
        let doc = TraceDocument::from_jsonl(legacy).unwrap();
        assert_eq!(doc.nodes[0].cell, None);
        assert!(!doc.to_jsonl().contains("col"));
        // A recorded cell survives the round trip.
        let with_cell = sample_doc();
        let parsed = TraceDocument::from_jsonl(&with_cell.to_jsonl()).unwrap();
        assert_eq!(parsed.nodes[0].cell, Some((5, 2)));
    }

    #[test]
    fn registry_absorbed_into_document() {
        let mut stats = Stats::new();
        stats.add("app.msgs", 9);
        stats.set_gauge("energy", 3.5);
        stats.observe("lat", 2.0);
        stats.observe("lat", 5000.0);
        let mut doc = TraceDocument::new();
        doc.absorb_stats(&stats);
        assert_eq!(doc.counter("app.msgs"), 9);
        assert_eq!(doc.gauges, vec![("energy".to_string(), 3.5)]);
        // The exact histogram is re-binned into the tick buckets.
        let (name, h) = &doc.histograms[0];
        assert_eq!(name, "lat");
        assert_eq!(h.uppers(), &crate::TICK_BUCKETS);
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max()),
            (2, 5002.0, 2.0, 5000.0)
        );
        assert_eq!(h.bucket_counts()[1], 1);
        assert_eq!(h.bucket_counts()[crate::TICK_BUCKETS.len()], 1);
        let text = doc.to_jsonl();
        let parsed = TraceDocument::from_jsonl(&text).unwrap();
        assert_eq!(parsed.histograms, doc.histograms);
    }

    #[test]
    fn an_idle_kernel_with_metrics_on_exports_no_histogram() {
        // Enabling metrics registers the kernel's two histograms; until
        // an event dispatches they hold no sample and stay invisible.
        let mut k: wsn_sim::Kernel<u32> = wsn_sim::Kernel::new(1);
        k.enable_metrics();
        k.run();
        assert_eq!(k.stats().histograms().count(), 0);
        assert!(k.stats().histogram(wsn_sim::METRIC_QUEUE_DEPTH).is_none());
        let mut doc = TraceDocument::new();
        doc.absorb_stats(k.stats());
        assert!(doc.histograms.is_empty());
        assert!(!doc.to_jsonl().contains("\"t\":\"hist\""));
    }
}
