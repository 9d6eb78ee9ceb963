//! The structured diagnostic model every analysis pass reports through.
//!
//! A [`Diagnostic`] is a severity, a stable machine-readable [`Code`], a
//! [`Span`] pointing into the analyzed IR (a rule, an action path, a task,
//! an edge, a node…), a human message, and an optional suggested fix.
//! [`Diagnostics`] collects them across passes and renders the batch as
//! aligned text for terminals or as JSON (via `wsn_obs::Json`) for tools.

use std::fmt;
use wsn_core::GridCoord;
use wsn_obs::Json;
use wsn_synth::TaskId;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note (analysis limits, observations).
    Info,
    /// Suspicious but not certainly broken; the program still runs.
    Warning,
    /// The artifact will panic, hang, or violate a design constraint at
    /// runtime; codegen refuses it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes, grouped by pass.
///
/// * `WF` — program well-formedness (declarations, receive-only actions,
///   index bounds);
/// * `RD` — reachability and determinism of the rule system;
/// * `GM` — task-graph and mapping structure;
/// * `DL` — cross-node deadlock;
/// * `CC` — cost certification (symbolic §4 bounds and the optimizer
///   facts that sharpen them);
/// * `SI` — shard interference (footprint and commutativity of handlers
///   under a quad-tree shard plan);
/// * `FL` — frame layout (every reachable send site's payload fits the
///   fixed wire frame and has a wire form); retired `FL` numbers are
///   never reused;
/// * `AL` — allocation discipline (runtime state on the certified hot
///   path is arena-allocatable, not per-event heap);
/// * `TC` — trace conformance (measured run vs certified interval).
///
/// The cost-budget group `CB` is retired, and its numbers are never
/// reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // variants are documented by Self::description
pub enum Code {
    WF001,
    WF002,
    WF003,
    WF004,
    WF005,
    WF006,
    WF007,
    WF008,
    WF009,
    WF010,
    RD001,
    RD002,
    RD003,
    RD004,
    GM001,
    GM002,
    GM003,
    GM004,
    GM005,
    DL001,
    DL002,
    CC001,
    CC002,
    CC003,
    CC004,
    CC005,
    SI001,
    SI002,
    SI003,
    SI004,
    FL001,
    FL002,
    FL003,
    AL001,
    AL002,
    AL003,
    TC001,
    TC002,
    TC003,
    TC004,
    TC005,
    TC006,
    TC007,
    TC008,
    TC009,
    TC010,
}

impl Code {
    /// One-line description of what the code means (the lint catalog).
    pub fn description(self) -> &'static str {
        match self {
            Code::WF001 => "duplicate state-variable declaration",
            Code::WF002 => "reference to an undeclared state variable",
            Code::WF003 => "assignment to an undeclared state variable",
            Code::WF004 => "receive-only construct in a state rule",
            Code::WF005 => "non-constant state initializer",
            Code::WF006 => "msgsReceived index escapes the program's level range",
            Code::WF007 => "summary level escapes 0..=maxrecLevel",
            Code::WF008 => "program lacks the runtime 'start' trigger flag",
            Code::WF009 => "duplicate rule label",
            Code::WF010 => "summary slot read before any write (absent summary)",
            Code::RD001 => "rule guard unsatisfiable from the initial environment",
            Code::RD002 => "overlapping guards make rule scan order observable",
            Code::RD003 => "rule scan livelocks (no stable state within fuel)",
            Code::RD004 => "analysis state space truncated; reachability results partial",
            Code::GM001 => "task graph contains a cycle",
            Code::GM002 => "orphan task (no producers and no consumers)",
            Code::GM003 => "edge does not increase the hierarchy level",
            Code::GM004 => "coverage constraint violated",
            Code::GM005 => "spatial-correlation constraint violated",
            Code::DL001 => "merge level waits for more senders than the mapping supplies",
            Code::DL002 => "merge level receives more senders than the quorum consumes",
            Code::CC001 => "program cost structure diverges from the task graph",
            Code::CC002 => "certified bound is degenerate (lower exceeds upper)",
            Code::CC003 => "dead handler eliminated; its costs are excluded from the bounds",
            Code::CC004 => "provably-redundant duplicate send (retransmit) in a rule body",
            Code::CC005 => "guard is constant-foldable under propagated state constants",
            Code::SI001 => "handler footprint escapes the region space of its role",
            Code::SI002 => "same-shard write/write conflict: overlapping send footprints",
            Code::SI003 => "cross-shard send off the certified region boundary",
            Code::SI004 => "receive handler writes scalar state across the epoch barrier",
            Code::FL001 => "reachable send site's payload bound exceeds the frame capacity",
            Code::FL002 => "send site's data level is unbounded (no static payload bound)",
            Code::FL003 => "a value with no wire form reaches a send or exfiltration site",
            Code::AL001 => "per-event heap allocation site on the certified hot path",
            Code::AL002 => "shared-ownership (Rc/RefCell) access on the certified hot path",
            Code::AL003 => "message buffer escapes past the epoch barrier",
            Code::TC001 => "measured value below the certified lower bound",
            Code::TC002 => "measured value above the certified upper bound",
            Code::TC003 => "certified quantity absent from the trace",
            Code::TC004 => "phase span duration escapes the certified latency interval",
            Code::TC005 => "merge fan-in/completion count mismatches the certified count",
            Code::TC006 => "per-class transmit energy escapes the certified interval",
            Code::TC007 => "trace metadata incompatible with the certificate's config",
            Code::TC008 => "critical path disagrees with the span or certified latency",
            Code::TC009 => "observed cross-shard delivery off the certified boundary edge set",
            Code::TC010 => "per-shard telemetry fails to reconcile with the certified totals",
        }
    }

    /// Every code, in catalog order (for documentation and CLI listing).
    pub fn all() -> &'static [Code] {
        use Code::*;
        &[
            WF001, WF002, WF003, WF004, WF005, WF006, WF007, WF008, WF009, WF010, RD001, RD002,
            RD003, RD004, GM001, GM002, GM003, GM004, GM005, DL001, DL002, CC001, CC002, CC003,
            CC004, CC005, SI001, SI002, SI003, SI004, FL001, FL002, FL003, AL001, AL002, AL003,
            TC001, TC002, TC003, TC004, TC005, TC006, TC007, TC008, TC009, TC010,
        ]
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Where in the analyzed IR a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// The artifact as a whole.
    Program,
    /// `program.state[index]`.
    State {
        /// Index into the declaration list.
        index: usize,
        /// Declared name (for rendering).
        name: String,
    },
    /// `program.rules[rule]` (its guard or the rule as a whole).
    Rule {
        /// Index into the rule list.
        rule: usize,
        /// Rule label (for rendering).
        label: String,
    },
    /// An action inside a rule, addressed by its path through nested
    /// `IfElse` bodies: `[2, 0]` is the first action of the third
    /// action's taken branch.
    Action {
        /// Index into the rule list.
        rule: usize,
        /// Path through nested action lists.
        path: Vec<usize>,
    },
    /// A pair of rules (determinism findings).
    RulePair {
        /// First rule index.
        a: usize,
        /// Second rule index.
        b: usize,
    },
    /// A task of the graph.
    Task(TaskId),
    /// An edge of the graph.
    Edge {
        /// Producer.
        from: TaskId,
        /// Consumer.
        to: TaskId,
    },
    /// A virtual node of the mapped deployment.
    Node(GridCoord),
    /// A hierarchy level.
    Level(u8),
    /// A measured quantity (counter, gauge, or histogram) in a trace.
    Metric(String),
    /// A phase span in a trace.
    Phase(String),
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Program => write!(f, "program"),
            Span::State { index, name } => write!(f, "state[{index}] ({name})"),
            Span::Rule { rule, label } => write!(f, "rule[{rule}] ({label:?})"),
            Span::Action { rule, path } => {
                write!(f, "rule[{rule}].action[")?;
                for (i, p) in path.iter().enumerate() {
                    if i > 0 {
                        write!(f, ".")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "]")
            }
            Span::RulePair { a, b } => write!(f, "rules[{a}, {b}]"),
            Span::Task(t) => write!(f, "task {t}"),
            Span::Edge { from, to } => write!(f, "edge {from} -> {to}"),
            Span::Node(c) => write!(f, "node ({}, {})", c.col, c.row),
            Span::Level(l) => write!(f, "level {l}"),
            Span::Metric(name) => write!(f, "metric {name:?}"),
            Span::Phase(name) => write!(f, "phase {name:?}"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable machine-readable code.
    pub code: Code,
    /// Where it points.
    pub span: Span,
    /// What is wrong, concretely.
    pub message: String,
    /// How to fix it, when the pass can tell.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Error-severity constructor.
    pub fn error(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Warning-severity constructor.
    pub fn warning(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Info-severity constructor.
    pub fn info(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Info,
            code,
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a suggested fix.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}\n  --> {}",
            self.severity, self.code, self.message, self.span
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n  help: {s}")?;
        }
        Ok(())
    }
}

/// An ordered batch of findings across passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty batch.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Appends one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Appends another batch.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// The findings, in report order (call [`Diagnostics::sort`] first for
    /// severity-major ordering).
    pub fn items(&self) -> &[Diagnostic] {
        &self.items
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there are no findings.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when any finding is error-severity.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == s).count()
    }

    /// The codes present, deduplicated, in catalog order.
    pub fn codes(&self) -> Vec<Code> {
        let mut out: Vec<Code> = self.items.iter().map(|d| d.code).collect();
        out.sort();
        out.dedup();
        out
    }

    /// True when any finding carries `code`.
    pub fn has_code(&self, code: Code) -> bool {
        self.items.iter().any(|d| d.code == code)
    }

    /// Sorts errors first, then warnings, then infos; ties by code,
    /// rendered span, message, and suggestion — a total order over every
    /// field, so reports (and `--json` output) are byte-stable across
    /// runs.
    pub fn sort(&mut self) {
        self.items.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.code.cmp(&b.code))
                .then_with(|| a.span.to_string().cmp(&b.span.to_string()))
                .then_with(|| a.message.cmp(&b.message))
                .then_with(|| a.suggestion.cmp(&b.suggestion))
        });
    }

    /// Renders the batch as terminal text with a trailing summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} finding(s) total\n",
            self.error_count(),
            self.warning_count(),
            self.len()
        ));
        out
    }

    /// Renders the batch as a JSON object `{summary, diagnostics: [...]}`.
    pub fn to_json(&self) -> Json {
        let diags: Vec<Json> = self
            .items
            .iter()
            .map(|d| {
                let mut fields = vec![
                    ("severity".to_owned(), Json::Str(d.severity.to_string())),
                    ("code".to_owned(), Json::Str(d.code.to_string())),
                    ("span".to_owned(), Json::Str(d.span.to_string())),
                    ("message".to_owned(), Json::Str(d.message.clone())),
                ];
                if let Some(s) = &d.suggestion {
                    fields.push(("suggestion".to_owned(), Json::Str(s.clone())));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            (
                "summary".to_owned(),
                Json::Obj(vec![
                    (
                        "errors".to_owned(),
                        Json::from_u64(self.error_count() as u64),
                    ),
                    (
                        "warnings".to_owned(),
                        Json::from_u64(self.warning_count() as u64),
                    ),
                    ("total".to_owned(), Json::from_u64(self.len() as u64)),
                ]),
            ),
            ("diagnostics".to_owned(), Json::Arr(diags)),
        ])
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostics {
        let mut d = Diagnostics::new();
        d.push(Diagnostic::warning(
            Code::RD002,
            Span::RulePair { a: 2, b: 3 },
            "overlap",
        ));
        d.push(
            Diagnostic::error(
                Code::WF002,
                Span::Rule {
                    rule: 0,
                    label: "start".into(),
                },
                "unbound x",
            )
            .with_suggestion("declare x in the state section"),
        );
        d
    }

    #[test]
    fn severity_orders_and_counts() {
        let mut d = sample();
        assert!(d.has_errors());
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.warning_count(), 1);
        d.sort();
        assert_eq!(d.items()[0].code, Code::WF002);
        assert_eq!(d.codes(), vec![Code::WF002, Code::RD002]);
        assert!(d.has_code(Code::RD002));
        assert!(!d.has_code(Code::DL001));
    }

    #[test]
    fn text_rendering_has_span_and_help() {
        let mut d = sample();
        d.sort();
        let text = d.render_text();
        assert!(text.contains("error[WF002]: unbound x"), "{text}");
        assert!(text.contains("--> rule[0] (\"start\")"), "{text}");
        assert!(text.contains("help: declare x"), "{text}");
        assert!(text.contains("1 error(s), 1 warning(s)"), "{text}");
    }

    #[test]
    fn json_rendering_round_trips() {
        let d = sample();
        let rendered = d.to_json().render();
        let parsed = Json::parse(&rendered).unwrap();
        let arr = parsed.get("diagnostics").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            parsed
                .get("summary")
                .unwrap()
                .get("errors")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert!(arr
            .iter()
            .any(|j| j.get("code").unwrap().as_str() == Some("WF002")));
    }

    #[test]
    fn every_code_has_a_description() {
        for &c in Code::all() {
            assert!(!c.description().is_empty(), "{c}");
        }
        assert_eq!(Code::all().len(), 46);
    }
}
