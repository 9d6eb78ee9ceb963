//! Pass 4 — cross-node deadlock detection.
//!
//! The synthesized program is SPMD: every node runs the same rules, but
//! *which* messages a node actually receives is decided by the mapping.
//! A quorum guard `msgsReceived[l] = k` therefore encodes a cross-node
//! wait: the node hosting a level-`l` merge task blocks until `k`
//! counted (non-self) messages of level `l` arrive. The senders of those
//! messages are exactly the task's children in the graph, and a child
//! mapped to the *same* node contributes a self-message the program does
//! not count (§4.3: the figure keeps the quorum at 3 because "one of the
//! four incoming messages … is from the node to itself").
//!
//! This pass extracts every quorum from the program's guards, derives the
//! per-task wait-for structure from graph + mapping, and flags levels
//! where demand and supply disagree: fewer counted senders than the
//! quorum is a deadlock (the rule never fires and the aggregation stalls
//! forever, [`Code::DL001`]); more senders than the quorum consumes means
//! the guard can fire before the extent is fully merged
//! ([`Code::DL002`]).

use crate::diag::{Code, Diagnostic, Diagnostics, Span};
use std::collections::BTreeMap;
use wsn_core::GridCoord;
use wsn_synth::{Expr, Guard, GuardedProgram, Mapping, QuadTree, TaskId, TaskKind};

/// How many counted messages a program waits for, per hierarchy level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QuorumSpec {
    /// Expected `msgsReceived[level]` count.
    pub expected: i64,
    /// Rule the quorum guard belongs to.
    pub rule: usize,
}

/// One merge task's cross-node wait, resolved against a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Wait {
    /// The waiting (interior) task.
    pub task: TaskId,
    /// Its hierarchy level.
    pub level: u8,
    /// The node hosting it.
    pub node: GridCoord,
    /// Messages the quorum demands.
    pub expected: i64,
    /// Children mapped to *other* nodes (their messages are counted).
    pub counted_senders: Vec<(TaskId, GridCoord)>,
    /// Children co-located with the task (self-messages, not counted).
    pub self_senders: Vec<TaskId>,
}

/// Extracts the per-level quorums from a program's state-rule guards.
///
/// A guard clause `msgsReceived[idx] = k` contributes:
/// * `idx` a literal — a quorum at that level;
/// * `idx` the `maxrecLevel` constant — a quorum at the top level;
/// * `idx` any other expression (e.g. the roving `recLevel`) — a quorum
///   at every interior level `1..=maxrecLevel`, since the index sweeps
///   the hierarchy as the node climbs it.
pub(crate) fn quorum_specs(program: &GuardedProgram) -> BTreeMap<u8, QuorumSpec> {
    let mut out = BTreeMap::new();
    for (r, rule) in program.rules.iter().enumerate() {
        if rule.guard == Guard::Received {
            continue;
        }
        collect_quorums(&rule.guard, r, program.max_level, &mut out);
    }
    out
}

fn collect_quorums(g: &Guard, rule: usize, max_level: u8, out: &mut BTreeMap<u8, QuorumSpec>) {
    match g {
        Guard::Eq(a, b) => {
            let pair = match (a, b) {
                (Expr::MsgsReceivedAt(idx), Expr::Int(k)) => Some((idx, *k)),
                (Expr::Int(k), Expr::MsgsReceivedAt(idx)) => Some((idx, *k)),
                _ => None,
            };
            if let Some((idx, expected)) = pair {
                let levels: Vec<u8> = match idx.as_ref() {
                    Expr::Int(l) if (0..=i64::from(max_level)).contains(l) => vec![*l as u8],
                    Expr::Var(name) if name == "maxrecLevel" => vec![max_level],
                    _ => (1..=max_level).collect(),
                };
                for level in levels {
                    out.entry(level).or_insert(QuorumSpec { expected, rule });
                }
            }
        }
        Guard::And(a, b) => {
            collect_quorums(a, rule, max_level, out);
            collect_quorums(b, rule, max_level, out);
        }
        Guard::Received | Guard::IncomingFromSelf => {}
    }
}

/// Builds the wait-for structure: one [`Wait`] per interior task whose
/// level carries a quorum, with its counted and self senders under
/// `mapping`.
pub(crate) fn wait_for_graph(
    qt: &QuadTree,
    mapping: &Mapping,
    program: &GuardedProgram,
) -> Vec<Wait> {
    let quorums = quorum_specs(program);
    let mut waits = Vec::new();
    for task in qt.graph.tasks() {
        if task.kind != TaskKind::Processing {
            continue;
        }
        let Some(spec) = quorums.get(&task.level) else {
            continue;
        };
        let node = mapping.node_of(task.id);
        let mut counted = Vec::new();
        let mut selves = Vec::new();
        for &child in qt.graph.producers(task.id) {
            let child_node = mapping.node_of(child);
            if child_node == node {
                selves.push(child);
            } else {
                counted.push((child, child_node));
            }
        }
        waits.push(Wait {
            task: task.id,
            level: task.level,
            node,
            expected: spec.expected,
            counted_senders: counted,
            self_senders: selves,
        });
    }
    waits
}

/// Runs the deadlock pass: quorum supply vs demand for every merge task.
pub fn check_deadlock(qt: &QuadTree, mapping: &Mapping, program: &GuardedProgram) -> Diagnostics {
    let mut diags = Diagnostics::new();
    for w in wait_for_graph(qt, mapping, program) {
        let supply = w.counted_senders.len() as i64;
        if supply < w.expected {
            diags.push(
                Diagnostic::error(
                    Code::DL001,
                    Span::Task(w.task),
                    format!(
                        "node ({}, {}) waits for msgsReceived[{}] = {} but the mapping supplies only {} counted sender(s) ({} self-message(s) are not counted); the level-{} merge never fires and the aggregation deadlocks",
                        w.node.col, w.node.row, w.level, w.expected, supply,
                        w.self_senders.len(), w.level
                    ),
                )
                .with_suggestion(
                    "lower the quorum constant or remap children off the merge node",
                ),
            );
        } else if supply > w.expected {
            diags.push(
                Diagnostic::warning(
                    Code::DL002,
                    Span::Task(w.task),
                    format!(
                        "node ({}, {}) needs msgsReceived[{}] = {} but {} senders are counted; the merge can fire before the whole extent arrived",
                        w.node.col, w.node.row, w.level, w.expected, supply
                    ),
                )
                .with_suggestion("raise the quorum to the number of remote children"),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_synth::{
        quadtree_task_graph, synthesize_quadtree_program, Mapper, QuadrantMapper, Rule,
    };

    fn qt(side: u32) -> QuadTree {
        quadtree_task_graph(side, &|l| u64::from(l) + 1, &|l| u64::from(l))
    }

    fn set_quorum(program: &mut GuardedProgram, k: i64) {
        // Rewrite every `msgsReceived[e] = 3` clause to `= k`.
        fn rewrite(g: &mut Guard, k: i64) {
            match g {
                Guard::Eq(a, b) => {
                    if matches!(a, Expr::MsgsReceivedAt(_)) {
                        *b = Expr::Int(k);
                    } else if matches!(b, Expr::MsgsReceivedAt(_)) {
                        *a = Expr::Int(k);
                    }
                }
                Guard::And(a, b) => {
                    rewrite(a, k);
                    rewrite(b, k);
                }
                Guard::Received | Guard::IncomingFromSelf => {}
            }
        }
        for rule in &mut program.rules {
            rewrite(&mut rule.guard, k);
        }
    }

    #[test]
    fn figure4_quorums_cover_every_interior_level() {
        let p = synthesize_quadtree_program(2);
        let q = quorum_specs(&p);
        assert_eq!(q.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert!(q.values().all(|s| s.expected == 3));
    }

    #[test]
    fn paper_mapping_is_deadlock_free() {
        let qt = qt(4);
        let m = QuadrantMapper.map(&qt);
        let p = synthesize_quadtree_program(2);
        let d = check_deadlock(&qt, &m, &p);
        assert!(d.is_empty(), "{}", d.render_text());
        // Every interior task has exactly 3 counted + 1 self sender.
        for w in wait_for_graph(&qt, &m, &p) {
            assert_eq!(w.counted_senders.len(), 3, "{w:?}");
            assert_eq!(w.self_senders.len(), 1, "{w:?}");
        }
    }

    #[test]
    fn under_supplied_quorum_is_a_deadlock() {
        let qt = qt(4);
        let m = QuadrantMapper.map(&qt);
        let mut p = synthesize_quadtree_program(2);
        set_quorum(&mut p, 4); // demands the uncounted self-message too
        let d = check_deadlock(&qt, &m, &p);
        assert!(d.has_code(Code::DL001), "{}", d.render_text());
        assert!(d.has_errors());
        // One diagnostic per interior task (4 level-1 + 1 level-2).
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn over_supplied_quorum_warns() {
        let qt = qt(4);
        let m = QuadrantMapper.map(&qt);
        let mut p = synthesize_quadtree_program(2);
        set_quorum(&mut p, 2);
        let d = check_deadlock(&qt, &m, &p);
        assert!(d.has_code(Code::DL002), "{}", d.render_text());
        assert_eq!(d.error_count(), 0);
    }

    #[test]
    fn remapped_child_changes_supply() {
        let qt = qt(4);
        let mut m = QuadrantMapper.map(&qt);
        let p = synthesize_quadtree_program(2);
        // Co-locate one more child of the level-1 task over leaf block 0
        // with its parent: supply drops 3 -> 2 under quorum 3.
        let parent = qt.ids_by_level[1][0];
        let child = qt.graph.producers(parent)[1];
        m.assign(child, m.node_of(parent));
        let d = check_deadlock(&qt, &m, &p);
        assert!(d.has_code(Code::DL001), "{}", d.render_text());
    }

    #[test]
    fn static_level_quorum_applies_to_that_level_only() {
        let mut p = synthesize_quadtree_program(2);
        p.rules.push(Rule {
            label: "extra".into(),
            guard: Guard::Eq(Expr::MsgsReceivedAt(Box::new(Expr::Int(1))), Expr::Int(7)),
            actions: vec![],
        });
        let q = quorum_specs(&p);
        // The roving recLevel quorum registered level 1 first.
        assert_eq!(q[&1].expected, 3);
        assert_eq!(q[&2].expected, 3);
    }
}
