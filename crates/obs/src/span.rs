//! Phase-scoped spans recorded into a tree.
//!
//! A [`SpanRecorder`] tracks a stack of open spans in simulated time:
//! the runtime driver opens a span when it starts a phase
//! (topology-emulation, binding, application, a quadtree merge level, …)
//! and closes it when the kernel reaches quiescence, attaching the number
//! of kernel events dispatched inside the phase. Closed spans nest under
//! their parent, so the finished recorder holds a forest of [`SpanNode`]s
//! mirroring the phase structure of the run.
//!
//! Spans compare with `==` (times are deterministic `SimTime`s), which is
//! what the determinism suite uses to assert two same-seed runs produce
//! identical trees.

use wsn_sim::SimTime;

/// One closed span: a named interval of simulated time with child spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Phase name, e.g. `"topology-emulation"` or `"merge-level-2"`.
    pub name: String,
    /// Simulated time when the span opened.
    pub start: SimTime,
    /// Simulated time when the span closed.
    pub end: SimTime,
    /// Kernel events dispatched while the span was open (0 if unknown).
    pub events: u64,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A childless span.
    pub fn leaf(name: impl Into<String>, start: SimTime, end: SimTime, events: u64) -> Self {
        SpanNode {
            name: name.into(),
            start,
            end,
            events,
            children: Vec::new(),
        }
    }

    /// Span length in ticks.
    pub fn duration_ticks(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans via an open/close stack; see the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRecorder {
    roots: Vec<SpanNode>,
    stack: Vec<SpanNode>,
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Opens a span at `now`; it stays open until [`close`](Self::close).
    pub fn open(&mut self, name: impl Into<String>, now: SimTime) {
        self.stack.push(SpanNode::leaf(name, now, now, 0));
    }

    /// Closes the innermost open span at `now`, attributing `events`
    /// kernel events to it. Returns false if no span was open.
    pub fn close(&mut self, now: SimTime, events: u64) -> bool {
        let Some(mut span) = self.stack.pop() else {
            return false;
        };
        span.end = now;
        span.events = events;
        self.attach(span);
        true
    }

    /// Attaches an externally built span (e.g. reconstructed merge
    /// levels) under the innermost open span, or as a root.
    pub fn attach(&mut self, span: SpanNode) {
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => self.roots.push(span),
        }
    }

    /// Number of spans still open.
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// The finished span forest (open spans are not included).
    pub fn roots(&self) -> &[SpanNode] {
        &self.roots
    }

    /// Renders the forest as an ASCII tree with durations, event counts,
    /// and each span's share of its root's duration.
    pub fn render(&self) -> String {
        render_span_forest(&self.roots)
    }
}

/// Renders a span forest as an ASCII tree.
pub fn render_span_forest(roots: &[SpanNode]) -> String {
    let mut out = String::new();
    for root in roots {
        render_node(root, "", true, true, root.duration_ticks(), &mut out);
    }
    out
}

fn render_node(
    node: &SpanNode,
    prefix: &str,
    is_last: bool,
    is_root: bool,
    root_ticks: u64,
    out: &mut String,
) {
    let connector = if is_root {
        String::new()
    } else if is_last {
        format!("{prefix}└─ ")
    } else {
        format!("{prefix}├─ ")
    };
    // A zero-duration root is a degenerate point interval: everything in
    // the tree covers all of it, so report 100% rather than 0/0 noise.
    let share = if root_ticks == 0 {
        100.0
    } else {
        100.0 * node.duration_ticks() as f64 / root_ticks as f64
    };
    let label = format!("{connector}{}", node.name);
    out.push_str(&format!(
        "{label:<42} {}..{}  {:>6} ticks  {:>8} events  {share:>5.1}%\n",
        node.start,
        node.end,
        node.duration_ticks(),
        node.events,
    ));
    let child_prefix = if is_root {
        String::new()
    } else if is_last {
        format!("{prefix}   ")
    } else {
        format!("{prefix}│  ")
    };
    for (i, child) in node.children.iter().enumerate() {
        let last = i + 1 == node.children.len();
        render_node(child, &child_prefix, last, false, root_ticks, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn nesting_follows_open_close_order() {
        let mut rec = SpanRecorder::new();
        rec.open("mission", t(0));
        rec.open("topology-emulation", t(0));
        rec.close(t(10), 100);
        rec.open("binding", t(10));
        rec.open("election", t(10));
        rec.close(t(14), 40);
        rec.close(t(20), 60);
        rec.close(t(30), 200);
        assert_eq!(rec.open_depth(), 0);

        let roots = rec.roots();
        assert_eq!(roots.len(), 1);
        let mission = &roots[0];
        assert_eq!(mission.name, "mission");
        assert_eq!(mission.duration_ticks(), 30);
        assert_eq!(mission.events, 200);
        assert_eq!(mission.children.len(), 2);
        assert_eq!(mission.children[0].name, "topology-emulation");
        assert_eq!(mission.children[1].name, "binding");
        assert_eq!(mission.children[1].children[0].name, "election");
    }

    #[test]
    fn close_without_open_is_reported() {
        let mut rec = SpanRecorder::new();
        assert!(!rec.close(t(5), 0));
        rec.open("a", t(0));
        assert!(rec.close(t(1), 1));
        assert!(!rec.close(t(2), 0));
    }

    #[test]
    fn attach_adds_subtrees_under_open_span() {
        let mut rec = SpanRecorder::new();
        rec.open("application", t(0));
        rec.attach(SpanNode::leaf("merge-level-1", t(2), t(5), 12));
        rec.close(t(9), 50);
        assert_eq!(rec.roots()[0].children[0].name, "merge-level-1");

        // With nothing open, attach creates a new root.
        rec.attach(SpanNode::leaf("loose", t(9), t(10), 0));
        assert_eq!(rec.roots().len(), 2);
    }

    #[test]
    fn zero_duration_spans_render_finite_shares() {
        let mut rec = SpanRecorder::new();
        rec.open("instant", t(7));
        rec.open("sub-instant", t(7));
        rec.close(t(7), 0);
        rec.close(t(7), 3);
        let text = rec.render();
        // A point interval is 100% of itself, never NaN or 0/0.
        assert!(!text.contains("NaN"), "{text}");
        assert_eq!(text.matches("100.0%").count(), 2, "{text}");
        assert!(text.contains("0 ticks"), "{text}");
    }

    #[test]
    fn identical_sequences_produce_equal_trees() {
        let build = || {
            let mut rec = SpanRecorder::new();
            rec.open("a", t(0));
            rec.open("b", t(1));
            rec.close(t(3), 7);
            rec.close(t(4), 9);
            rec
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn render_contains_every_span_and_shares() {
        let mut rec = SpanRecorder::new();
        rec.open("mission", t(0));
        rec.open("topology-emulation", t(0));
        rec.close(t(25), 10);
        rec.open("binding", t(25));
        rec.close(t(100), 20);
        rec.close(t(100), 30);
        let text = rec.render();
        assert!(text.contains("mission"));
        assert!(text.contains("topology-emulation"));
        assert!(text.contains("binding"));
        assert!(text.contains("25.0%"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("100.0%"));
    }
}
