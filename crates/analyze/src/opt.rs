//! Dataflow optimizer passes over the program IR.
//!
//! Three classic passes, run for their *facts* as much as for the
//! rewritten program: the symbolic cost certifier
//! ([`mod@crate::certify`]) consumes them to sharpen its bounds — a dead
//! handler's sends cost nothing, a redundant retransmit doubles a
//! message budget, a constant-true guard collapses a conditional branch.
//!
//! 1. **Constant propagation** — a scalar variable whose initializer is a
//!    literal and whose every assignment (re-)establishes the same
//!    literal is a constant; guards are partially evaluated under the
//!    resulting environment. The runtime-flipped `start` trigger is
//!    exempt (the harness writes it behind the program's back, §5.2).
//! 2. **Dead-handler elimination** — rules whose guard folds to `false`
//!    (directly, or because a literal `msgsReceived` index can never be
//!    incremented) can never fire and are removed.
//! 3. **Redundant-retransmit detection** — two syntactically identical
//!    `send`/`exfiltrate` actions in the same straight-line action run
//!    (no intervening state change) provably ship the same summary
//!    twice; the duplicate is dropped from the optimized program.

use crate::diag::{Code, Diagnostic, Diagnostics, Span};
use std::collections::BTreeMap;
use wsn_synth::{Action, Expr, Guard, GuardedProgram, Rule};

/// Constant-propagation verdict for one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbsVal {
    /// Provably this literal in every reachable state.
    Const(i64),
    /// Not provably constant.
    Top,
}

/// What the optimizer learned; the certifier's input.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct OptFacts {
    /// Per-variable constant verdicts (booleans as 0/1).
    pub consts: BTreeMap<String, AbsVal>,
    /// Indices (into the *original* rule list) of provably-dead rules.
    pub dead_rules: Vec<usize>,
    /// `(rule, action path)` of each provably-redundant duplicate send.
    pub redundant_sends: Vec<(usize, Vec<usize>)>,
    /// Indices of rules whose guard folds to constant `true`.
    pub always_true_guards: Vec<usize>,
}

impl OptFacts {
    /// Live `SendSummaryToLeader` sites after dead-rule elimination and
    /// redundant-send removal — the certifier's per-merge send
    /// multiplicity evidence.
    pub fn live_send_sites(&self, p: &GuardedProgram) -> usize {
        p.rules
            .iter()
            .enumerate()
            .filter(|(r, _)| !self.dead_rules.contains(r))
            .map(|(r, rule)| count_sends(&rule.actions, r, &mut Vec::new(), &self.redundant_sends))
            .sum()
    }
}

fn count_sends(
    actions: &[Action],
    rule: usize,
    path: &mut Vec<usize>,
    redundant: &[(usize, Vec<usize>)],
) -> usize {
    let mut n = 0;
    for (i, a) in actions.iter().enumerate() {
        path.push(i);
        match a {
            Action::SendSummaryToLeader { .. }
                if !redundant.iter().any(|(r, p)| *r == rule && p == path) =>
            {
                n += 1;
            }
            Action::IfElse {
                then, otherwise, ..
            } => {
                // A conditional executes one branch; count the worst case.
                path.push(0);
                let t = count_sends(then, rule, path, redundant);
                path.pop();
                path.push(1);
                let e = count_sends(otherwise, rule, path, redundant);
                path.pop();
                n += t.max(e);
            }
            _ => {}
        }
        path.pop();
    }
    n
}

/// Runs all three passes. Returns the optimized program, the facts, and
/// the `CC003`/`CC004`/`CC005` diagnostics describing what was found.
pub(crate) fn optimize_program(p: &GuardedProgram) -> (GuardedProgram, OptFacts, Diagnostics) {
    let mut diags = Diagnostics::new();
    let consts = propagate_constants(p);

    // Pass 2: dead handlers.
    let mut dead_rules = Vec::new();
    let mut always_true_guards = Vec::new();
    for (r, rule) in p.rules.iter().enumerate() {
        match fold_guard(&rule.guard, &consts, p.max_level) {
            Some(false) => {
                dead_rules.push(r);
                diags.push(
                    Diagnostic::info(
                        Code::CC003,
                        Span::Rule {
                            rule: r,
                            label: rule.label.clone(),
                        },
                        format!(
                            "guard of rule {:?} is provably false; the handler is dead and its \
                             sends are excluded from the certified bounds",
                            rule.label
                        ),
                    )
                    .with_suggestion("delete the rule or fix the guard's constant operands"),
                );
            }
            Some(true) => {
                always_true_guards.push(r);
                diags.push(Diagnostic::info(
                    Code::CC005,
                    Span::Rule {
                        rule: r,
                        label: rule.label.clone(),
                    },
                    format!(
                        "guard of rule {:?} folds to constant true under propagated constants; \
                         the rule fires on every scan",
                        rule.label
                    ),
                ));
            }
            None => {}
        }
    }

    // Pass 3: redundant retransmits (only in live rules).
    let mut redundant_sends = Vec::new();
    for (r, rule) in p.rules.iter().enumerate() {
        if dead_rules.contains(&r) {
            continue;
        }
        find_redundant(&rule.actions, r, &mut Vec::new(), &mut redundant_sends);
    }
    for (r, path) in &redundant_sends {
        diags.push(
            Diagnostic::warning(
                Code::CC004,
                Span::Action {
                    rule: *r,
                    path: path.clone(),
                },
                "duplicate send of the same summary with no intervening state change: a \
                 provably-redundant retransmit"
                    .to_owned(),
            )
            .with_suggestion("remove the duplicate; the first transmission already ships it"),
        );
    }

    let facts = OptFacts {
        consts,
        dead_rules,
        redundant_sends,
        always_true_guards,
    };
    let optimized = rewrite(p, &facts);
    (optimized, facts, diags)
}

/// Constant propagation to a fixpoint over every assignment site.
fn propagate_constants(p: &GuardedProgram) -> BTreeMap<String, AbsVal> {
    let mut env: BTreeMap<String, AbsVal> = BTreeMap::new();
    for d in &p.state {
        // The runtime flips `start` externally; it is never constant.
        let v = if d.name == "start" {
            AbsVal::Top
        } else {
            match eval_expr(&d.init, &env) {
                Some(v) => AbsVal::Const(v),
                None => AbsVal::Top,
            }
        };
        env.insert(d.name.clone(), v);
    }
    loop {
        let mut changed = false;
        for rule in &p.rules {
            demote_assignments(&rule.actions, &mut env, &mut changed);
        }
        if !changed {
            return env;
        }
    }
}

fn demote_assignments(actions: &[Action], env: &mut BTreeMap<String, AbsVal>, changed: &mut bool) {
    for a in actions {
        match a {
            Action::Set(name, e) => {
                let cur = env.get(name).copied().unwrap_or(AbsVal::Top);
                if let AbsVal::Const(c) = cur {
                    let keeps = matches!(eval_expr(e, env), Some(v) if v == c);
                    if !keeps {
                        env.insert(name.clone(), AbsVal::Top);
                        *changed = true;
                    }
                }
            }
            Action::IfElse {
                then, otherwise, ..
            } => {
                demote_assignments(then, env, changed);
                demote_assignments(otherwise, env, changed);
            }
            _ => {}
        }
    }
}

/// Partial evaluation of an expression under constant facts.
fn eval_expr(e: &Expr, env: &BTreeMap<String, AbsVal>) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Bool(b) => Some(i64::from(*b)),
        Expr::Var(name) => match env.get(name) {
            Some(AbsVal::Const(v)) => Some(*v),
            _ => None,
        },
        Expr::Add(a, b) => Some(eval_expr(a, env)?.checked_add(eval_expr(b, env)?)?),
        Expr::Sub(a, b) => Some(eval_expr(a, env)?.checked_sub(eval_expr(b, env)?)?),
        Expr::MsgsReceivedAt(_) => None,
    }
}

/// Three-valued guard folding. `Some(false)` proves the guard can never
/// hold; `Some(true)` proves it always holds on scan.
fn fold_guard(g: &Guard, env: &BTreeMap<String, AbsVal>, max_level: u8) -> Option<bool> {
    match g {
        Guard::Eq(a, b) => {
            // A literal msgsReceived index outside the level range is
            // never incremented: its count is identically zero.
            for (idx_side, k_side) in [(a, b), (b, a)] {
                if let Expr::MsgsReceivedAt(idx) = idx_side {
                    if let Some(i) = eval_expr(idx, env) {
                        if (i < 0 || i > i64::from(max_level))
                            && matches!(eval_expr(k_side, env), Some(k) if k != 0)
                        {
                            return Some(false);
                        }
                    }
                }
            }
            match (eval_expr(a, env), eval_expr(b, env)) {
                (Some(x), Some(y)) => Some(x == y),
                _ => None,
            }
        }
        Guard::Received | Guard::IncomingFromSelf => None,
        Guard::And(a, b) => match (fold_guard(a, env, max_level), fold_guard(b, env, max_level)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
    }
}

/// Flags the second of two syntactically identical sends in the same
/// straight-line run. Any other action resets the window (it may change
/// the shipped summary or the routing state).
fn find_redundant(
    actions: &[Action],
    rule: usize,
    path: &mut Vec<usize>,
    out: &mut Vec<(usize, Vec<usize>)>,
) {
    let mut window: Vec<&Action> = Vec::new();
    for (i, a) in actions.iter().enumerate() {
        path.push(i);
        match a {
            Action::SendSummaryToLeader { .. } | Action::ExfiltrateSummary { .. } => {
                if window.contains(&a) {
                    out.push((rule, path.clone()));
                } else {
                    window.push(a);
                }
            }
            Action::IfElse {
                then, otherwise, ..
            } => {
                window.clear();
                path.push(0);
                find_redundant(then, rule, path, out);
                path.pop();
                path.push(1);
                find_redundant(otherwise, rule, path, out);
                path.pop();
            }
            _ => window.clear(),
        }
        path.pop();
    }
}

/// Applies the facts: drops dead rules and redundant duplicate sends.
fn rewrite(p: &GuardedProgram, facts: &OptFacts) -> GuardedProgram {
    let mut out = p.clone();
    out.rules = p
        .rules
        .iter()
        .enumerate()
        .filter(|(r, _)| !facts.dead_rules.contains(r))
        .map(|(r, rule)| Rule {
            label: rule.label.clone(),
            guard: rule.guard.clone(),
            actions: strip_redundant(&rule.actions, r, &mut Vec::new(), &facts.redundant_sends),
        })
        .collect();
    out
}

fn strip_redundant(
    actions: &[Action],
    rule: usize,
    path: &mut Vec<usize>,
    redundant: &[(usize, Vec<usize>)],
) -> Vec<Action> {
    let mut out = Vec::new();
    for (i, a) in actions.iter().enumerate() {
        path.push(i);
        let drop = redundant.iter().any(|(r, p)| *r == rule && p == path);
        if !drop {
            out.push(match a {
                Action::IfElse {
                    cond,
                    then,
                    otherwise,
                } => {
                    path.push(0);
                    let t = strip_redundant(then, rule, path, redundant);
                    path.pop();
                    path.push(1);
                    let e = strip_redundant(otherwise, rule, path, redundant);
                    path.pop();
                    Action::IfElse {
                        cond: cond.clone(),
                        then: t,
                        otherwise: e,
                    }
                }
                other => other.clone(),
            });
        }
        path.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_synth::synthesize_quadtree_program;

    #[test]
    fn figure4_is_already_optimal() {
        let p = synthesize_quadtree_program(2);
        let (opt, facts, diags) = optimize_program(&p);
        assert_eq!(opt, p, "no rewrites on the paper's program");
        assert!(facts.dead_rules.is_empty());
        assert!(facts.redundant_sends.is_empty());
        assert!(diags.is_empty(), "{}", diags.render_text());
        // maxrecLevel is the one genuine constant; start is exempt.
        assert_eq!(facts.consts.get("maxrecLevel"), Some(&AbsVal::Const(2)));
        assert_eq!(facts.consts.get("start"), Some(&AbsVal::Top));
        assert_eq!(facts.consts.get("transmit"), Some(&AbsVal::Top));
        assert_eq!(facts.live_send_sites(&p), 1);
    }

    #[test]
    fn dead_handler_is_eliminated_with_cc003() {
        let mut p = synthesize_quadtree_program(2);
        p.rules.push(Rule {
            label: "never".into(),
            guard: Guard::Eq(Expr::var("maxrecLevel"), Expr::Int(99)),
            actions: vec![Action::SendSummaryToLeader {
                group_level: Expr::Int(1),
                data_level: Expr::Int(0),
            }],
        });
        let (opt, facts, diags) = optimize_program(&p);
        assert_eq!(facts.dead_rules, vec![4]);
        assert!(diags.has_code(Code::CC003), "{}", diags.render_text());
        assert_eq!(opt.rules.len(), 4);
        // The dead send does not count as a live site.
        assert_eq!(facts.live_send_sites(&p), 1);
    }

    #[test]
    fn out_of_range_quorum_index_is_dead() {
        let mut p = synthesize_quadtree_program(2);
        p.rules.push(Rule {
            label: "phantom".into(),
            guard: Guard::Eq(Expr::MsgsReceivedAt(Box::new(Expr::Int(7))), Expr::Int(3)),
            actions: vec![],
        });
        let (_, facts, _) = optimize_program(&p);
        assert_eq!(facts.dead_rules, vec![4]);
    }

    #[test]
    fn duplicate_send_is_flagged_and_stripped() {
        let mut p = synthesize_quadtree_program(1);
        let send = Action::SendSummaryToLeader {
            group_level: Expr::var("recLevel"),
            data_level: Expr::var("recLevel").minus(1),
        };
        p.rules.push(Rule {
            label: "chatty".into(),
            guard: Guard::Eq(Expr::var("transmit"), Expr::Bool(true)),
            actions: vec![send.clone(), send.clone()],
        });
        let (opt, facts, diags) = optimize_program(&p);
        assert_eq!(facts.redundant_sends, vec![(4, vec![1])]);
        assert!(diags.has_code(Code::CC004), "{}", diags.render_text());
        assert_eq!(opt.rules[4].actions.len(), 1);
        // One canonical site + one (deduplicated) chatty site.
        assert_eq!(facts.live_send_sites(&p), 2);
    }

    #[test]
    fn intervening_state_change_defeats_redundancy() {
        let mut p = synthesize_quadtree_program(1);
        let send = Action::SendSummaryToLeader {
            group_level: Expr::Int(1),
            data_level: Expr::Int(0),
        };
        p.rules.push(Rule {
            label: "resend-after-merge".into(),
            guard: Guard::Eq(Expr::var("transmit"), Expr::Bool(true)),
            actions: vec![send.clone(), Action::MergeIncoming, send.clone()],
        });
        let (_, facts, _) = optimize_program(&p);
        assert!(facts.redundant_sends.is_empty());
    }

    #[test]
    fn constant_true_guard_reports_cc005() {
        let mut p = synthesize_quadtree_program(1);
        p.rules.push(Rule {
            label: "busy".into(),
            guard: Guard::Eq(Expr::var("maxrecLevel"), Expr::Int(1)),
            actions: vec![],
        });
        let (_, facts, diags) = optimize_program(&p);
        assert_eq!(facts.always_true_guards, vec![4]);
        assert!(diags.has_code(Code::CC005), "{}", diags.render_text());
    }

    #[test]
    fn reassigned_constant_demotes_to_top() {
        let mut p = synthesize_quadtree_program(1);
        p.rules[0]
            .actions
            .push(Action::Set("maxrecLevel".into(), Expr::Int(9)));
        let (_, facts, _) = optimize_program(&p);
        assert_eq!(facts.consts.get("maxrecLevel"), Some(&AbsVal::Top));
    }
}
