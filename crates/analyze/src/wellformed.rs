//! Pass 1 — program well-formedness.
//!
//! Purely syntactic checks on a [`GuardedProgram`]: every variable read or
//! written must be declared (the interpreter panics on either), state
//! declarations must be unique and constant-initialized, the runtime's
//! `start` trigger must exist, and receive-only constructs
//! (`MergeIncoming`, `CountIncoming`, `IncomingFromSelf`, nested
//! `Received`) must not appear in state rules, where no incoming message
//! is bound and they would panic or never hold.

use crate::diag::{Code, Diagnostic, Diagnostics, Span};
use std::collections::{HashMap, HashSet};
use wsn_synth::{Action, Expr, Guard, GuardedProgram};

/// Runs the well-formedness pass.
pub(crate) fn check_program(program: &GuardedProgram) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let mut declared: HashSet<&str> = HashSet::new();

    for (index, decl) in program.state.iter().enumerate() {
        let span = Span::State {
            index,
            name: decl.name.clone(),
        };
        if !declared.insert(&decl.name) {
            diags.push(
                Diagnostic::error(
                    Code::WF001,
                    span.clone(),
                    format!("state variable {:?} is declared more than once", decl.name),
                )
                .with_suggestion("remove or rename the later declaration"),
            );
        }
        if !matches!(decl.init, Expr::Int(_) | Expr::Bool(_)) {
            diags.push(
                Diagnostic::error(
                    Code::WF005,
                    span,
                    format!(
                        "initializer of {:?} is not a constant; the interpreter only accepts literal initial values",
                        decl.name
                    ),
                )
                .with_suggestion("fold the initializer to an Int or Bool literal"),
            );
        }
    }

    if !declared.contains("start") {
        diags.push(
            Diagnostic::error(
                Code::WF008,
                Span::Program,
                "no 'start' state variable: the runtime triggers execution by flipping start to true, and the interpreter rejects programs without it",
            )
            .with_suggestion("declare start(= false) and guard the boot rule on start = true"),
        );
    }

    let mut labels: HashMap<&str, usize> = HashMap::new();
    for (r, rule) in program.rules.iter().enumerate() {
        if let Some(&first) = labels.get(rule.label.as_str()) {
            diags.push(Diagnostic::warning(
                Code::WF009,
                Span::Rule {
                    rule: r,
                    label: rule.label.clone(),
                },
                format!(
                    "rule label {:?} already used by rule[{first}]; diagnostics and traces become ambiguous",
                    rule.label
                ),
            ));
        } else {
            labels.insert(&rule.label, r);
        }

        let is_receive_rule = rule.guard == Guard::Received;
        let rule_span = Span::Rule {
            rule: r,
            label: rule.label.clone(),
        };
        check_guard(
            &rule.guard,
            &declared,
            &rule_span,
            is_receive_rule,
            &mut diags,
        );
        let mut path = Vec::new();
        check_actions(
            &rule.actions,
            &declared,
            r,
            &mut path,
            is_receive_rule,
            &mut diags,
        );
    }

    diags
}

fn check_expr(e: &Expr, declared: &HashSet<&str>, span: &Span, diags: &mut Diagnostics) {
    match e {
        Expr::Int(_) | Expr::Bool(_) => {}
        Expr::Var(name) => {
            if !declared.contains(name.as_str()) {
                diags.push(
                    Diagnostic::error(
                        Code::WF002,
                        span.clone(),
                        format!("variable {name:?} is read but never declared"),
                    )
                    .with_suggestion(format!("declare {name:?} in the state section")),
                );
            }
        }
        Expr::Add(a, b) | Expr::Sub(a, b) => {
            check_expr(a, declared, span, diags);
            check_expr(b, declared, span, diags);
        }
        Expr::MsgsReceivedAt(idx) => check_expr(idx, declared, span, diags),
    }
}

fn check_guard(
    g: &Guard,
    declared: &HashSet<&str>,
    span: &Span,
    in_receive_context: bool,
    diags: &mut Diagnostics,
) {
    match g {
        Guard::Eq(a, b) => {
            check_expr(a, declared, span, diags);
            check_expr(b, declared, span, diags);
        }
        Guard::Received | Guard::IncomingFromSelf => {
            if !in_receive_context {
                diags.push(
                    Diagnostic::error(
                        Code::WF004,
                        span.clone(),
                        format!(
                            "{} can never hold in a state rule: no incoming message is bound during the scan",
                            if *g == Guard::Received { "'received'" } else { "'incoming from self'" }
                        ),
                    )
                    .with_suggestion("move the clause to a rule whose guard is exactly 'received'"),
                );
            }
        }
        Guard::And(a, b) => {
            check_guard(a, declared, span, in_receive_context, diags);
            check_guard(b, declared, span, in_receive_context, diags);
        }
    }
}

fn check_actions(
    actions: &[Action],
    declared: &HashSet<&str>,
    rule: usize,
    path: &mut Vec<usize>,
    in_receive_rule: bool,
    diags: &mut Diagnostics,
) {
    for (i, action) in actions.iter().enumerate() {
        path.push(i);
        let span = Span::Action {
            rule,
            path: path.clone(),
        };
        match action {
            Action::Set(name, e) => {
                if !declared.contains(name.as_str()) {
                    diags.push(
                        Diagnostic::error(
                            Code::WF003,
                            span.clone(),
                            format!("assignment to undeclared variable {name:?}"),
                        )
                        .with_suggestion(format!("declare {name:?} in the state section")),
                    );
                }
                check_expr(e, declared, &span, diags);
            }
            Action::ComputeLocalSummary => {}
            Action::MergeIncoming | Action::CountIncoming => {
                if !in_receive_rule {
                    let what = if matches!(action, Action::MergeIncoming) {
                        "merge of the incoming message"
                    } else {
                        "count of the incoming message"
                    };
                    diags.push(
                        Diagnostic::error(
                            Code::WF004,
                            span,
                            format!(
                                "{what} appears in a state rule; outside a receive rule there is no incoming message and the interpreter panics"
                            ),
                        )
                        .with_suggestion("move the action into the 'received' rule"),
                    );
                }
            }
            Action::IfElse {
                cond,
                then,
                otherwise,
            } => {
                check_guard(cond, declared, &span, in_receive_rule, diags);
                path.push(0);
                check_actions(then, declared, rule, path, in_receive_rule, diags);
                path.pop();
                path.push(1);
                check_actions(otherwise, declared, rule, path, in_receive_rule, diags);
                path.pop();
            }
            Action::SendSummaryToLeader {
                group_level,
                data_level,
            } => {
                check_expr(group_level, declared, &span, diags);
                check_expr(data_level, declared, &span, diags);
            }
            Action::ExfiltrateSummary { level } => check_expr(level, declared, &span, diags),
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_synth::{synthesize_quadtree_program, Rule, StateDecl};

    #[test]
    fn figure4_is_well_formed() {
        for depth in 1..=4 {
            let d = check_program(&synthesize_quadtree_program(depth));
            assert!(d.is_empty(), "depth {depth}: {}", d.render_text());
        }
    }

    #[test]
    fn unbound_read_and_write_flagged() {
        let mut p = synthesize_quadtree_program(2);
        p.rules[0]
            .actions
            .push(Action::Set("ghost".into(), Expr::var("phantom")));
        let d = check_program(&p);
        assert!(d.has_code(Code::WF003), "{}", d.render_text());
        assert!(d.has_code(Code::WF002), "{}", d.render_text());
        assert_eq!(d.error_count(), 2);
    }

    #[test]
    fn receive_only_constructs_in_state_rule_flagged() {
        let mut p = synthesize_quadtree_program(2);
        p.rules.push(Rule {
            label: "rogue".into(),
            guard: Guard::Eq(Expr::var("start"), Expr::Bool(true)).and(Guard::IncomingFromSelf),
            actions: vec![Action::MergeIncoming, Action::CountIncoming],
        });
        let d = check_program(&p);
        let wf004 = d.items().iter().filter(|x| x.code == Code::WF004).count();
        assert_eq!(wf004, 3, "{}", d.render_text());
    }

    #[test]
    fn duplicate_and_nonconstant_state_flagged() {
        let mut p = synthesize_quadtree_program(1);
        p.state.push(StateDecl {
            name: "start".into(),
            init: Expr::Bool(true),
        });
        p.state.push(StateDecl {
            name: "derived".into(),
            init: Expr::var("recLevel").plus(1),
        });
        let d = check_program(&p);
        assert!(d.has_code(Code::WF001));
        assert!(d.has_code(Code::WF005));
    }

    #[test]
    fn missing_start_flag_flagged() {
        let mut p = synthesize_quadtree_program(1);
        p.state.retain(|s| s.name != "start");
        p.rules.retain(|r| r.label != "start");
        let d = check_program(&p);
        assert!(d.has_code(Code::WF008), "{}", d.render_text());
    }

    #[test]
    fn duplicate_labels_warn() {
        let mut p = synthesize_quadtree_program(1);
        let mut copy = p.rules[3].clone();
        copy.guard = Guard::Eq(Expr::var("recLevel"), Expr::Int(-5));
        p.rules.push(copy);
        let d = check_program(&p);
        assert!(d.has_code(Code::WF009));
        assert_eq!(d.error_count(), 0);
    }
}
