//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into the library, never inside it:
//! each holds a name, start and end (host nanoseconds since the recorder
//! was made), its parent span, the op it belongs to (`None` during
//! set-up) and the counts read at the same boundaries. Spans stay in
//! memory and are written out as JSONL once the run ends. A recorder that
//! is off records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: Option<usize>,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn count(&self, key: &str) -> Option<f64> {
        self.counts.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// In-memory span log; see the module docs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
    op: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
            op: None,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags every span opened from now on with op `op` (`None` = set-up).
    pub fn set_op(&mut self, op: Option<usize>) {
        self.op = op;
    }

    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
            counts: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("close() without a matching open()");
        self.spans[i].end_ns = now;
        self.last_closed = Some(i);
    }

    /// Attaches a count to the span that closed last: counts are read
    /// once a call has returned, outside the span they describe.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if !self.on {
            return;
        }
        if let Some(i) = self.last_closed {
            self.spans[i].counts.push((key, value));
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Closes every span a panicking op left open.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Self time per span index: each span's duration minus the time its
    /// direct children cover. Children run one after another, never
    /// overlapping.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Spans grouped by name, in name order.
    pub fn by_name(&self) -> BTreeMap<&'static str, Vec<usize>> {
        let mut out: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.entry(s.name).or_default().push(i);
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"counts\":{{",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.op)
            );
            for (j, (k, v)) in s.counts.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{}", crate::report::json_number(*v));
            }
            out.push_str("}}\n");
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

fn opt(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.open("op");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.count("events", 7.0);
        t.close();
        let op = &t.spans()[0];
        let child = &t.spans()[1];
        assert_eq!(child.parent, Some(0));
        assert_eq!(child.count("events"), Some(7.0));
        assert_eq!(op.count("events"), None);
        assert_eq!(t.self_times_ns()[0], op.duration_ns() - child.duration_ns());
        assert!(t.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("op");
        t.close();
        t.count("events", 1.0);
        assert!(t.spans().is_empty());
    }
}
