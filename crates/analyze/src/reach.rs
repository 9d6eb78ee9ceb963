//! Pass 2 — reachability, determinism, and index-interval analysis.
//!
//! The guarded-command programs the synthesizer emits are tiny reactive
//! machines over a handful of small integers, so instead of a widening
//! abstract interpreter we run an **exhaustive bounded-state exploration**
//! that mirrors the interpreter's semantics exactly:
//!
//! * the scan loop fires the *first* enabled state rule and rescans until
//!   no rule is enabled (same fuel bound as the interpreter, so a scan
//!   that cannot stabilize is reported as livelock instead of hanging);
//! * between stable states, a message of *any* level `0..=maxrecLevel`
//!   (self or remote) may be delivered — an over-approximation of every
//!   network schedule, justified by the message alphabet: `mrecLevel`
//!   tags are produced only by send actions, whose level range this same
//!   pass verifies;
//! * `msgsReceived` counters saturate just above the largest constant the
//!   program compares against, and scalar values clamp at a bound derived
//!   from the program's literals, keeping the state space finite.
//!
//! ## Postponed deliveries
//!
//! Enumerating every delivery at every stable state multiplies the
//! per-level counters into each other: from side 64 up, a Figure-4 role
//! has more stable states than the default 400,000-state cap. Most of
//! those interleavings cannot be told apart, so the explorer applies a
//! partial-order reduction (Godefroid 1996).
//!
//! A receive rule is *slot-local* when its actions are only
//! `MergeIncoming`, `CountIncoming` and `IfElse` on `IncomingFromSelf` or
//! `Received`. When every receive rule is slot-local, a delivery of level
//! `l` touches nothing but `msgsReceived[l]` and summary slot `l`. If the
//! stable state's last scan did not read level `l`, that delivery enables
//! no rule and commutes with everything up to the next read of `l`. So
//! the explorer does not enumerate it. It marks the level *postponed*
//! instead: the level then stands for every value in its *closure* under
//! the receive rules, meaning every counter and slot value that further
//! deliveries can give it, its current value included.
//!
//! When a later delivery, scan or action first reads or writes a
//! postponed level, the settle is re-run once for each value in the
//! level's closure, with the level resolved to that value. Every scan
//! the eager enumeration performs is then performed with the same values
//! read, so the report is the same in every field but `states`. A
//! role-7 Figure-4 cell needs 59 states instead of more than 400,000.
//! For a program that is not slot-local nothing is postponable, and the
//! same code path runs the eager exploration.
//!
//! The exploration yields, per reachable behavior: which rules ever fire
//! (unsatisfiable-guard detection), which state rules are enabled
//! *simultaneously* (scan-order observability), and the exact interval of
//! every index expression — `msgsReceived[·]` reads, `group_level`,
//! `data_level`, and exfiltration levels — together with whether a summary
//! slot could be read before anything was merged into it.

use crate::diag::{Code, Diagnostic, Diagnostics, Span};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use wsn_synth::{Action, Expr, Guard, GuardedProgram};

/// Exploration limits.
#[derive(Debug, Clone, Copy)]
pub struct ReachConfig {
    /// Maximum distinct stable states to enumerate before giving up and
    /// reporting partial results.
    pub max_states: usize,
}

impl Default for ReachConfig {
    fn default() -> Self {
        ReachConfig {
            max_states: 400_000,
        }
    }
}

/// Which index expression a recorded interval belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndexKind {
    /// `msgsReceived[e]` read (guard or action position).
    MsgsReceived,
    /// `SendSummaryToLeader.group_level`.
    GroupLevel,
    /// `SendSummaryToLeader.data_level`.
    DataLevel,
    /// `ExfiltrateSummary.level`.
    ExfiltrateLevel,
}

impl IndexKind {
    fn name(self) -> &'static str {
        match self {
            IndexKind::MsgsReceived => "msgsReceived index",
            IndexKind::GroupLevel => "group_level",
            IndexKind::DataLevel => "data_level",
            IndexKind::ExfiltrateLevel => "exfiltrate level",
        }
    }
}

/// Identity of one index-expression site in the IR.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SiteKey {
    /// Rule the expression occurs in.
    pub rule: usize,
    /// Action path within the rule; empty for the rule guard.
    pub path: Vec<usize>,
    /// Expression role.
    pub kind: IndexKind,
}

/// What the exploration observed.
#[derive(Debug, Clone)]
pub struct ReachReport {
    /// Distinct stable states enumerated; a state with postponed levels
    /// counts once, however many values those levels stand for.
    pub states: usize,
    /// The state cap was hit; `fired`/`overlaps` are lower bounds and
    /// interval facts cover only the explored prefix.
    pub truncated: bool,
    /// A scalar hit the value clamp; intervals past the clamp are
    /// approximate.
    pub clamped: bool,
    /// Per rule: fired in some reachable behavior.
    pub fired: Vec<bool>,
    /// Pairs of state rules observed enabled simultaneously.
    pub overlaps: BTreeSet<(usize, usize)>,
    /// A scan failed to stabilize; the rule that kept firing.
    pub livelock: Option<usize>,
    /// Observed `[lo, hi]` per index site.
    pub intervals: BTreeMap<SiteKey, (i64, i64)>,
    /// Sites that read a `mySubGraph` slot no action had written yet
    /// (the interpreter panics with "absent summary").
    pub absent_summary: BTreeSet<SiteKey>,
}

/// Explores `program` and returns the raw report.
pub fn explore(program: &GuardedProgram, config: ReachConfig) -> ReachReport {
    let levels: Vec<i64> = (0..=i64::from(program.max_level)).collect();
    Explorer::new(program, config, levels).run()
}

/// Explores `program` with message deliveries restricted to the given
/// level tags — the footprint pass's per-role abstraction: a cell whose
/// highest leader level is `r` only ever receives summaries tagged
/// `1..=r`, so exploring under that restriction yields the exact
/// region-space footprint of every cell of that role. An empty slice
/// allows no deliveries at all (only the boot scan runs).
pub fn explore_with_levels(
    program: &GuardedProgram,
    config: ReachConfig,
    levels: &[i64],
) -> ReachReport {
    Explorer::new(program, config, levels.to_vec()).run()
}

/// Explores `program` and renders the findings as diagnostics (the pass
/// driver). Run [`crate::wellformed::check_program`] first: this pass
/// assumes every referenced variable is declared and reads missing ones
/// as 0.
pub(crate) fn check_dynamics(program: &GuardedProgram, config: ReachConfig) -> Diagnostics {
    let report = explore(program, config);
    let max_level = i64::from(program.max_level);
    let mut diags = Diagnostics::new();

    let rule_span = |r: usize| Span::Rule {
        rule: r,
        label: program.rules[r].label.clone(),
    };

    if let Some(r) = report.livelock {
        diags.push(
            Diagnostic::error(
                Code::RD003,
                rule_span(r),
                format!(
                    "rule {:?} keeps firing without reaching a stable state; the interpreter's fuel bound would panic",
                    program.rules[r].label
                ),
            )
            .with_suggestion("make every rule falsify its own guard (e.g. clear the flag it tests)"),
        );
    }

    for (r, fired) in report.fired.iter().enumerate() {
        if !fired && !report.truncated && report.livelock.is_none() {
            diags.push(
                Diagnostic::warning(
                    Code::RD001,
                    rule_span(r),
                    format!(
                        "guard of rule {:?} is unsatisfiable in every reachable state from the initial environment",
                        program.rules[r].label
                    ),
                )
                .with_suggestion("delete the rule or fix the guard's constants"),
            );
        }
    }

    for &(a, b) in &report.overlaps {
        diags.push(
            Diagnostic::warning(
                Code::RD002,
                Span::RulePair { a, b },
                format!(
                    "rules {:?} and {:?} are enabled simultaneously in a reachable state; which fires first is decided by scan order, so reordering rules changes behavior",
                    program.rules[a].label, program.rules[b].label
                ),
            )
            .with_suggestion("make the guards mutually exclusive if scan order is not meant to be semantic"),
        );
    }

    for (site, &(lo, hi)) in &report.intervals {
        // msgsReceived reads tolerate the interpreter's one-past slot
        // (recLevel legitimately reaches maxrecLevel + 1 after the final
        // merge); summary levels must stay within the declared hierarchy.
        let (bound_lo, bound_hi) = match site.kind {
            IndexKind::MsgsReceived => (0, max_level + 1),
            _ => (0, max_level),
        };
        if lo < bound_lo || hi > bound_hi {
            let code = if site.kind == IndexKind::MsgsReceived {
                Code::WF006
            } else {
                Code::WF007
            };
            diags.push(
                Diagnostic::error(
                    code,
                    site_span(site),
                    format!(
                        "{} evaluates to [{lo}, {hi}] in reachable states, escaping the valid range [{bound_lo}, {bound_hi}] for maxrecLevel = {max_level}",
                        site.kind.name()
                    ),
                )
                .with_suggestion("adjust the level arithmetic or the guard that enables this rule"),
            );
        }
    }

    for site in &report.absent_summary {
        diags.push(
            Diagnostic::error(
                Code::WF010,
                site_span(site),
                format!(
                    "{} can read a mySubGraph slot before any merge or local computation wrote it; the interpreter panics on the absent summary",
                    site.kind.name()
                ),
            )
            .with_suggestion("guard the send/exfiltration on the quorum that fills the slot"),
        );
    }

    if report.truncated || report.clamped {
        diags.push(Diagnostic::info(
            Code::RD004,
            Span::Program,
            format!(
                "exploration bounded ({} states{}{}); reachability findings are partial",
                report.states,
                if report.truncated {
                    ", state cap hit"
                } else {
                    ""
                },
                if report.clamped {
                    ", value clamp hit"
                } else {
                    ""
                },
            ),
        ));
    }

    diags
}

fn site_span(site: &SiteKey) -> Span {
    if site.path.is_empty() {
        Span::Rule {
            rule: site.rule,
            label: String::new(),
        }
    } else {
        Span::Action {
            rule: site.rule,
            path: site.path.clone(),
        }
    }
}

/// One model state: scalar values, saturating per-level counters, the
/// written-slot bitmask of `mySubGraph`, and the postponed levels.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    vars: Vec<i64>,
    msgs: Vec<u16>,
    slots: u64,
    /// Bit `l` set: deliveries to level `l` are postponed, and the level
    /// stands for every counter and slot value in its closure under the
    /// receive rules, starting from the stored one.
    postponed: u64,
}

#[derive(Clone, Copy)]
struct Incoming {
    level: i64,
    from_self: bool,
}

/// A delivery, guard or action touched this postponed level: the settle
/// is re-run once for each value the level can hold.
#[derive(Debug)]
struct Postponed(i64);

/// The bit of `level` in a level mask; 0 for a level no mask can hold.
fn level_bit(level: i64) -> u64 {
    if (0..64).contains(&level) {
        1 << level
    } else {
        0
    }
}

struct Explorer<'p> {
    program: &'p GuardedProgram,
    config: ReachConfig,
    levels: Vec<i64>,
    var_index: HashMap<&'p str, usize>,
    state_rules: Vec<usize>,
    receive_rules: Vec<usize>,
    max_level: i64,
    clamp: i64,
    counter_cap: u16,
    /// Levels whose deliveries may be postponed: the deliverable ones
    /// when the program is slot-local, none otherwise.
    postponable: u64,
    /// Levels the current scan pass has read.
    reads: u64,
    report: ReachReport,
}

impl<'p> Explorer<'p> {
    fn new(program: &'p GuardedProgram, config: ReachConfig, levels: Vec<i64>) -> Self {
        let mut var_index = HashMap::new();
        for (i, d) in program.state.iter().enumerate() {
            var_index.entry(d.name.as_str()).or_insert(i);
        }
        let mut state_rules = Vec::new();
        let mut receive_rules = Vec::new();
        for (r, rule) in program.rules.iter().enumerate() {
            if rule.guard == Guard::Received {
                receive_rules.push(r);
            } else {
                state_rules.push(r);
            }
        }
        let max_literal = max_abs_literal(program);
        let max_level = i64::from(program.max_level);
        let postponable = if slot_local(program) {
            levels
                .iter()
                .filter(|l| (0..=max_level).contains(*l))
                .fold(0, |mask, &l| mask | level_bit(l))
        } else {
            0
        };
        Explorer {
            config,
            levels,
            var_index,
            state_rules,
            receive_rules,
            max_level,
            clamp: max_literal.max(max_level) + 2,
            counter_cap: (max_literal.clamp(1, u16::MAX as i64 - 1) + 1) as u16,
            postponable,
            reads: 0,
            report: ReachReport {
                states: 0,
                truncated: false,
                clamped: false,
                fired: vec![false; program.rules.len()],
                overlaps: BTreeSet::new(),
                livelock: None,
                intervals: BTreeMap::new(),
                absent_summary: BTreeSet::new(),
            },
            program,
        }
    }

    fn run(mut self) -> ReachReport {
        let mut st = State {
            vars: self
                .program
                .state
                .iter()
                .map(|d| match d.init {
                    Expr::Int(v) => v,
                    Expr::Bool(b) => i64::from(b),
                    _ => 0,
                })
                .collect(),
            msgs: vec![0; self.max_level as usize + 1],
            slots: 0,
            postponed: 0,
        };
        // The runtime trigger: on_init flips `start` before the first scan.
        if let Some(&i) = self.var_index.get("start") {
            st.vars[i] = 1;
        }

        let mut seen: HashSet<State> = HashSet::new();
        let mut queue: VecDeque<State> = VecDeque::new();
        for stable in self.settle(st, None) {
            if seen.insert(stable.clone()) {
                queue.push_back(stable);
            }
        }

        while let Some(st) = queue.pop_front() {
            if self.report.livelock.is_some() {
                break;
            }
            if !self.levels.is_empty() {
                // A delivery runs every receive rule, postponed or not.
                for &r in &self.receive_rules {
                    self.report.fired[r] = true;
                }
            }
            for level in self.levels.clone() {
                if st.postponed & level_bit(level) != 0 {
                    continue;
                }
                for from_self in [false, true] {
                    let incoming = Incoming { level, from_self };
                    for stable in self.settle(st.clone(), Some(incoming)) {
                        if seen.contains(&stable) {
                            continue;
                        }
                        if seen.len() >= self.config.max_states {
                            self.report.truncated = true;
                            self.report.states = seen.len();
                            return self.report;
                        }
                        seen.insert(stable.clone());
                        queue.push_back(stable);
                    }
                }
            }
        }
        self.report.states = seen.len();
        self.report
    }

    /// Delivers `incoming` (when given) and scans to a stable state, once
    /// for each value every postponed level the delivery, the scan or its
    /// actions touch can hold. Returns the stable states; a livelocked
    /// branch yields none.
    fn settle(&mut self, st: State, incoming: Option<Incoming>) -> Vec<State> {
        let mut stable = Vec::new();
        let mut branches = vec![st];
        while let Some(st) = branches.pop() {
            match self.stabilize(st.clone(), incoming) {
                Ok(Some(s)) => stable.push(s),
                Ok(None) => {}
                Err(Postponed(level)) => branches.extend(self.closure(st, level)),
            }
        }
        stable
    }

    /// The closure of `level` under the receive rules: `st` with the
    /// level resolved to each counter and slot value that further
    /// deliveries can give it, its current value included.
    fn closure(&mut self, mut st: State, level: i64) -> Vec<State> {
        st.postponed &= !level_bit(level);
        let mut values = vec![st];
        let mut i = 0;
        while i < values.len() {
            for from_self in [false, true] {
                let mut next = values[i].clone();
                self.deliver(&mut next, Incoming { level, from_self })
                    .expect("a slot-local delivery touches only its own, resolved level");
                if !values.contains(&next) {
                    values.push(next);
                }
            }
            i += 1;
        }
        values
    }

    /// Runs every receive rule on one delivery.
    fn deliver(&mut self, st: &mut State, incoming: Incoming) -> Result<(), Postponed> {
        for i in 0..self.receive_rules.len() {
            let r = self.receive_rules[i];
            let actions = &self.program.rules[r].actions;
            self.exec_actions(st, actions, r, &mut Vec::new(), Some(incoming))?;
        }
        Ok(())
    }

    /// Delivers `incoming` (when given), then runs the interpreter's scan
    /// loop to a stable state, recording fired rules and
    /// simultaneously-enabled pairs. `Ok(None)` on livelock; `Err` when
    /// the delivery, a guard or an action touches a postponed level.
    fn stabilize(
        &mut self,
        mut st: State,
        incoming: Option<Incoming>,
    ) -> Result<Option<State>, Postponed> {
        if let Some(m) = incoming {
            self.deliver(&mut st, m)?;
        }
        let mut fuel = 16 * (u32::from(self.program.max_level) + 4);
        loop {
            self.reads = 0;
            let mut enabled = Vec::new();
            for i in 0..self.state_rules.len() {
                let r = self.state_rules[i];
                if self.eval_guard(&st, &self.program.rules[r].guard, r, &[], None)? {
                    enabled.push(r);
                }
            }
            for (i, &a) in enabled.iter().enumerate() {
                for &b in &enabled[i + 1..] {
                    self.report.overlaps.insert((a, b));
                }
            }
            let Some(&r) = enabled.first() else {
                // A delivery to a level this last scan did not read
                // enables no rule: postpone it until a scan reads the
                // level.
                st.postponed = self.postponable & !self.reads;
                return Ok(Some(st));
            };
            if fuel == 0 {
                self.report.livelock.get_or_insert(r);
                return Ok(None);
            }
            fuel -= 1;
            self.report.fired[r] = true;
            let mut path = Vec::new();
            let actions = &self.program.rules[r].actions;
            self.exec_actions(&mut st, actions, r, &mut path, None)?;
        }
    }

    /// Fails on a postponed `level`, which must be resolved before it is
    /// read or written.
    fn touch(&self, st: &State, level: i64) -> Result<(), Postponed> {
        if st.postponed & level_bit(level) != 0 {
            Err(Postponed(level))
        } else {
            Ok(())
        }
    }

    fn record(&mut self, kind: IndexKind, rule: usize, path: &[usize], value: i64) {
        let key = SiteKey {
            rule,
            path: path.to_vec(),
            kind,
        };
        let entry = self.report.intervals.entry(key).or_insert((value, value));
        entry.0 = entry.0.min(value);
        entry.1 = entry.1.max(value);
    }

    fn clamp_value(&mut self, v: i64) -> i64 {
        if v.abs() > self.clamp {
            self.report.clamped = true;
            v.clamp(-self.clamp, self.clamp)
        } else {
            v
        }
    }

    fn eval(
        &mut self,
        st: &State,
        e: &Expr,
        rule: usize,
        path: &[usize],
    ) -> Result<i64, Postponed> {
        Ok(match e {
            Expr::Int(v) => *v,
            Expr::Bool(b) => i64::from(*b),
            Expr::Var(name) => self
                .var_index
                .get(name.as_str())
                .map(|&i| st.vars[i])
                .unwrap_or(0),
            Expr::Add(a, b) => {
                let v = self.eval(st, a, rule, path)? + self.eval(st, b, rule, path)?;
                self.clamp_value(v)
            }
            Expr::Sub(a, b) => {
                let v = self.eval(st, a, rule, path)? - self.eval(st, b, rule, path)?;
                self.clamp_value(v)
            }
            Expr::MsgsReceivedAt(idx) => {
                let i = self.eval(st, idx, rule, path)?;
                self.record(IndexKind::MsgsReceived, rule, path, i);
                if (0..=self.max_level).contains(&i) {
                    self.touch(st, i)?;
                    self.reads |= level_bit(i);
                    i64::from(st.msgs[i as usize])
                } else {
                    0 // mirror the interpreter's out-of-range read
                }
            }
        })
    }

    fn eval_guard(
        &mut self,
        st: &State,
        g: &Guard,
        rule: usize,
        path: &[usize],
        incoming: Option<Incoming>,
    ) -> Result<bool, Postponed> {
        Ok(match g {
            Guard::Eq(a, b) => self.eval(st, a, rule, path)? == self.eval(st, b, rule, path)?,
            Guard::Received => incoming.is_some(),
            Guard::IncomingFromSelf => incoming.map(|m| m.from_self).unwrap_or(false),
            Guard::And(a, b) => {
                self.eval_guard(st, a, rule, path, incoming)?
                    && self.eval_guard(st, b, rule, path, incoming)?
            }
        })
    }

    fn exec_actions(
        &mut self,
        st: &mut State,
        actions: &[Action],
        rule: usize,
        path: &mut Vec<usize>,
        incoming: Option<Incoming>,
    ) -> Result<(), Postponed> {
        for (i, action) in actions.iter().enumerate() {
            path.push(i);
            match action {
                Action::Set(name, e) => {
                    let v = self.eval(st, e, rule, path)?;
                    let v = self.clamp_value(v);
                    if let Some(&idx) = self.var_index.get(name.as_str()) {
                        st.vars[idx] = v;
                    }
                }
                Action::ComputeLocalSummary => {
                    self.touch(st, 0)?;
                    st.slots |= 1;
                }
                Action::MergeIncoming => {
                    if let Some(m) = incoming {
                        self.touch(st, m.level)?;
                        st.slots |= 1 << m.level;
                    }
                }
                Action::CountIncoming => {
                    // Counts unconditionally, like the interpreter: the
                    // self-message filter is part of the program text
                    // (an IfElse on IncomingFromSelf), not the semantics.
                    if let Some(m) = incoming {
                        self.touch(st, m.level)?;
                        let slot = &mut st.msgs[m.level as usize];
                        *slot = (*slot + 1).min(self.counter_cap);
                    }
                }
                Action::IfElse {
                    cond,
                    then,
                    otherwise,
                } => {
                    if self.eval_guard(st, cond, rule, path, incoming)? {
                        path.push(0);
                        self.exec_actions(st, then, rule, path, incoming)?;
                        path.pop();
                    } else {
                        path.push(1);
                        self.exec_actions(st, otherwise, rule, path, incoming)?;
                        path.pop();
                    }
                }
                Action::SendSummaryToLeader {
                    group_level,
                    data_level,
                } => {
                    let g = self.eval(st, group_level, rule, path)?;
                    self.record(IndexKind::GroupLevel, rule, path, g);
                    let dl = self.eval(st, data_level, rule, path)?;
                    self.record(IndexKind::DataLevel, rule, path, dl);
                    self.check_slot(st, dl, IndexKind::DataLevel, rule, path)?;
                }
                Action::ExfiltrateSummary { level } => {
                    let l = self.eval(st, level, rule, path)?;
                    self.record(IndexKind::ExfiltrateLevel, rule, path, l);
                    self.check_slot(st, l, IndexKind::ExfiltrateLevel, rule, path)?;
                }
            }
            path.pop();
        }
        Ok(())
    }

    fn check_slot(
        &mut self,
        st: &State,
        level: i64,
        kind: IndexKind,
        rule: usize,
        path: &[usize],
    ) -> Result<(), Postponed> {
        if (0..=self.max_level).contains(&level) {
            self.touch(st, level)?;
            if st.slots & (1 << level) == 0 {
                self.report.absent_summary.insert(SiteKey {
                    rule,
                    path: path.to_vec(),
                    kind,
                });
            }
        }
        Ok(())
    }
}

/// Whether every receive rule is slot-local: its actions are only
/// `MergeIncoming`, `CountIncoming` and `IfElse` on `IncomingFromSelf`
/// or `Received`, so a delivery touches nothing but its own level's
/// counter and summary slot.
fn slot_local(program: &GuardedProgram) -> bool {
    fn local(actions: &[Action]) -> bool {
        actions.iter().all(|a| match a {
            Action::MergeIncoming | Action::CountIncoming => true,
            Action::IfElse {
                cond,
                then,
                otherwise,
            } => {
                matches!(cond, Guard::IncomingFromSelf | Guard::Received)
                    && local(then)
                    && local(otherwise)
            }
            _ => false,
        })
    }
    program.receive_rules().all(|r| local(&r.actions))
}

fn max_abs_literal(program: &GuardedProgram) -> i64 {
    fn expr(e: &Expr, m: &mut i64) {
        match e {
            Expr::Int(v) => *m = (*m).max(v.abs()),
            Expr::Bool(_) | Expr::Var(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                expr(a, m);
                expr(b, m);
            }
            Expr::MsgsReceivedAt(i) => expr(i, m),
        }
    }
    fn guard(g: &Guard, m: &mut i64) {
        match g {
            Guard::Eq(a, b) => {
                expr(a, m);
                expr(b, m);
            }
            Guard::Received | Guard::IncomingFromSelf => {}
            Guard::And(a, b) => {
                guard(a, m);
                guard(b, m);
            }
        }
    }
    fn actions(list: &[Action], m: &mut i64) {
        for a in list {
            match a {
                Action::Set(_, e) => expr(e, m),
                Action::ComputeLocalSummary | Action::MergeIncoming | Action::CountIncoming => {}
                Action::IfElse {
                    cond,
                    then,
                    otherwise,
                } => {
                    guard(cond, m);
                    actions(then, m);
                    actions(otherwise, m);
                }
                Action::SendSummaryToLeader {
                    group_level,
                    data_level,
                } => {
                    expr(group_level, m);
                    expr(data_level, m);
                }
                Action::ExfiltrateSummary { level } => expr(level, m),
            }
        }
    }
    let mut m = 1;
    for d in &program.state {
        expr(&d.init, &mut m);
    }
    for r in &program.rules {
        guard(&r.guard, &mut m);
        actions(&r.actions, &mut m);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_synth::{synthesize_gather_program, synthesize_quadtree_program, Rule};

    #[test]
    fn figure4_dynamics_are_clean_of_errors() {
        for depth in 1..=3 {
            let p = synthesize_quadtree_program(depth);
            let d = check_dynamics(&p, ReachConfig::default());
            assert_eq!(d.error_count(), 0, "depth {depth}: {}", d.render_text());
            assert!(
                !d.has_code(Code::RD001),
                "depth {depth}: {}",
                d.render_text()
            );
        }
    }

    #[test]
    fn figure4_every_rule_reachable_and_indices_bounded() {
        let p = synthesize_quadtree_program(2);
        let r = explore(&p, ReachConfig::default());
        assert!(r.fired.iter().all(|&f| f), "{:?}", r.fired);
        assert!(!r.truncated);
        assert!(!r.clamped);
        assert!(r.livelock.is_none());
        assert!(r.absent_summary.is_empty(), "{:?}", r.absent_summary);
        for (site, &(lo, hi)) in &r.intervals {
            match site.kind {
                IndexKind::MsgsReceived => assert!(lo >= 0 && hi <= 3, "{site:?} [{lo},{hi}]"),
                _ => assert!(lo >= 0 && hi <= 2, "{site:?} [{lo},{hi}]"),
            }
        }
    }

    #[test]
    fn figure4_transmit_quorum_overlap_is_observed() {
        // The paper's program relies on scan order: the quorum rule can be
        // enabled while transmit is still pending (level-l+1 messages
        // arriving before the level-l send happened).
        let p = synthesize_quadtree_program(2);
        let d = check_dynamics(&p, ReachConfig::default());
        assert!(d.has_code(Code::RD002), "{}", d.render_text());
        assert_eq!(d.error_count(), 0);
    }

    #[test]
    fn gather_program_is_clean_of_errors() {
        let p = synthesize_gather_program(2, 4);
        let d = check_dynamics(&p, ReachConfig::default());
        assert_eq!(d.error_count(), 0, "{}", d.render_text());
    }

    #[test]
    fn unsatisfiable_guard_reported() {
        let mut p = synthesize_quadtree_program(1);
        p.rules.push(Rule {
            label: "never".into(),
            guard: wsn_synth::Guard::Eq(wsn_synth::Expr::var("recLevel"), wsn_synth::Expr::Int(-7)),
            actions: vec![],
        });
        let d = check_dynamics(&p, ReachConfig::default());
        assert!(d.has_code(Code::RD001), "{}", d.render_text());
    }

    #[test]
    fn livelock_reported() {
        let mut p = synthesize_quadtree_program(1);
        // Fires forever: never falsifies its own guard.
        p.rules.push(Rule {
            label: "spin".into(),
            guard: wsn_synth::Guard::Eq(
                wsn_synth::Expr::var("maxrecLevel"),
                wsn_synth::Expr::Int(1),
            ),
            actions: vec![],
        });
        let d = check_dynamics(&p, ReachConfig::default());
        assert!(d.has_code(Code::RD003), "{}", d.render_text());
        assert!(d.has_errors());
    }

    #[test]
    fn out_of_range_send_level_reported() {
        let mut p = synthesize_quadtree_program(1);
        // A boot-time send addressed beyond the hierarchy: group_level =
        // maxrecLevel + 3.
        p.rules[0]
            .actions
            .push(wsn_synth::Action::SendSummaryToLeader {
                group_level: wsn_synth::Expr::var("maxrecLevel").plus(3),
                data_level: wsn_synth::Expr::Int(0),
            });
        let d = check_dynamics(&p, ReachConfig::default());
        assert!(d.has_code(Code::WF007), "{}", d.render_text());
        assert!(d.has_errors());
    }

    #[test]
    fn negative_msgs_received_index_reported() {
        let mut p = synthesize_quadtree_program(1);
        p.rules.push(Rule {
            label: "probe".into(),
            guard: wsn_synth::Guard::Eq(
                wsn_synth::Expr::MsgsReceivedAt(Box::new(wsn_synth::Expr::Int(-2))),
                wsn_synth::Expr::Int(1),
            ),
            actions: vec![],
        });
        let d = check_dynamics(&p, ReachConfig::default());
        assert!(d.has_code(Code::WF006), "{}", d.render_text());
    }

    #[test]
    fn absent_summary_read_reported() {
        let mut p = synthesize_quadtree_program(2);
        // Exfiltrate the top-level summary at boot, before anything merged.
        p.rules[0].actions.insert(
            0,
            wsn_synth::Action::ExfiltrateSummary {
                level: wsn_synth::Expr::var("maxrecLevel"),
            },
        );
        let d = check_dynamics(&p, ReachConfig::default());
        assert!(d.has_code(Code::WF010), "{}", d.render_text());
    }

    #[test]
    fn truncation_is_reported_not_silent() {
        // Depth 3 needs 15 stable states with postponed deliveries, over
        // this cap of 10.
        let p = synthesize_quadtree_program(3);
        let d = check_dynamics(&p, ReachConfig { max_states: 10 });
        assert!(d.has_code(Code::RD004), "{}", d.render_text());
        assert_eq!(d.error_count(), 0);
    }
}
