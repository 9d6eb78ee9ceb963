//! The guarded-command intermediate representation of synthesized node
//! programs.
//!
//! Figure 4 of the paper specifies the synthesized program as state
//! declarations, a message alphabet, and four `Condition → Action`
//! clauses. This module is that notation as an AST: the synthesizer
//! (`crate::synthesize`) builds it, the interpreter (`crate::interpret`)
//! executes it inside the simulator, and the code generator
//! (`crate::codegen`) prints it back in the paper's concrete syntax.
//!
//! Integer and boolean state live in a generic environment; the two
//! application-level arrays (`mySubGraph`, holding boundary summaries, and
//! `msgsReceived`) are built in, because their element type is opaque
//! application data with an externally supplied merge operator.

/// An integer/boolean expression over the program state. Booleans are
/// represented as 0/1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// A declared state variable.
    Var(String),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// `msgsReceived[index]`.
    MsgsReceivedAt(Box<Expr>),
}

impl Expr {
    /// `Var` helper.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_owned())
    }

    /// `self + k` helper.
    pub fn plus(self, k: i64) -> Expr {
        Expr::Add(Box::new(self), Box::new(Expr::Int(k)))
    }

    /// `self − k` helper.
    pub fn minus(self, k: i64) -> Expr {
        Expr::Sub(Box::new(self), Box::new(Expr::Int(k)))
    }
}

/// A rule guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Guard {
    /// `lhs = rhs` over program state.
    Eq(Expr, Expr),
    /// Fires when a message is delivered ("received mGraph").
    Received,
    /// True when the triggering message's sender is this node itself
    /// (Figure 4's "one of the four incoming messages … is from the node
    /// to itself").
    IncomingFromSelf,
    /// Conjunction of two guards.
    And(Box<Guard>, Box<Guard>),
}

impl Guard {
    /// `self ∧ other` helper.
    pub fn and(self, other: Guard) -> Guard {
        Guard::And(Box::new(self), Box::new(other))
    }
}

/// An executable action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// `name := expr`.
    Set(String, Expr),
    /// `mySubGraph[0] := summary(intra-cell readings)`.
    ComputeLocalSummary,
    /// `merge(mGraph.msubGraph, mySubGraph[mGraph.mrecLevel])`.
    MergeIncoming,
    /// `msgsReceived[mGraph.mrecLevel]++`.
    CountIncoming,
    /// Conditional execution.
    IfElse {
        /// Branch condition.
        cond: Guard,
        /// Taken when true.
        then: Vec<Action>,
        /// Taken when false.
        otherwise: Vec<Action>,
    },
    /// `send {myCoords, mySubGraph[data_level], group_level}` to
    /// `Leader(group_level)` — the group-communication primitive.
    SendSummaryToLeader {
        /// Hierarchy level whose leader is addressed (and the message's
        /// `mrecLevel` tag).
        group_level: Expr,
        /// Which summary to ship.
        data_level: Expr,
    },
    /// `exfiltrate mySubGraph[level]`.
    ExfiltrateSummary {
        /// Which summary leaves the network.
        level: Expr,
    },
}

/// A declared scalar state variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDecl {
    /// Variable name.
    pub name: String,
    /// Initial value.
    pub init: Expr,
}

/// One `Condition → Action` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Short label for code generation and diagnostics.
    pub label: String,
    /// Firing condition.
    pub guard: Guard,
    /// Body.
    pub actions: Vec<Action>,
}

/// A complete synthesized program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardedProgram {
    /// Program name.
    pub name: String,
    /// `maxrecLevel`: the hierarchy depth (log₂ of the grid side).
    pub max_level: u8,
    /// Scalar state declarations.
    pub state: Vec<StateDecl>,
    /// The clauses, in scan order.
    pub rules: Vec<Rule>,
}

impl GuardedProgram {
    /// Rules that fire on internal state (everything but `Received`).
    pub fn state_rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| r.guard != Guard::Received)
    }

    /// Rules that fire on message delivery.
    pub fn receive_rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| r.guard == Guard::Received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders() {
        let e = Expr::var("recLevel").plus(1);
        assert_eq!(
            e,
            Expr::Add(Box::new(Expr::var("recLevel")), Box::new(Expr::Int(1)))
        );
        let e = Expr::var("recLevel").minus(1);
        assert_eq!(
            e,
            Expr::Sub(Box::new(Expr::var("recLevel")), Box::new(Expr::Int(1)))
        );
    }

    #[test]
    fn rule_classification() {
        let p = GuardedProgram {
            name: "t".into(),
            max_level: 1,
            state: vec![],
            rules: vec![
                Rule {
                    label: "a".into(),
                    guard: Guard::Eq(Expr::var("x"), Expr::Bool(true)),
                    actions: vec![],
                },
                Rule {
                    label: "b".into(),
                    guard: Guard::Received,
                    actions: vec![],
                },
            ],
        };
        assert_eq!(p.state_rules().count(), 1);
        assert_eq!(p.receive_rules().count(), 1);
        assert_eq!(p.receive_rules().next().unwrap().label, "b");
    }
}
