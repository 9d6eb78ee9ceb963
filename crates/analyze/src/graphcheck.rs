//! Pass 3 — task-graph and mapping structure.
//!
//! Structural lints on the architecture-independent application model and
//! on a candidate task-to-node mapping: cycles (with an explicit witness
//! path, not just a boolean), orphan tasks, hierarchy-level monotonicity
//! along data-flow edges, and the paper's §4.1 design-time constraints
//! (coverage and spatial correlation) swept exhaustively via
//! [`wsn_synth::coverage_violations`] /
//! [`wsn_synth::spatial_correlation_violations`].

use crate::diag::{Code, Diagnostic, Diagnostics, Span};
use wsn_synth::{
    coverage_violations, spatial_correlation_violations, ConstraintViolation, Mapping, QuadTree,
    TaskGraph, TaskId,
};

/// Runs the structural lints on a task graph.
pub(crate) fn check_graph(graph: &TaskGraph) -> Diagnostics {
    let mut diags = Diagnostics::new();

    if let Some(cycle) = find_cycle(graph) {
        let witness = cycle
            .iter()
            .chain(cycle.first())
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(" -> ");
        let (&from, &to) = (cycle.last().unwrap(), cycle.first().unwrap());
        diags.push(
            Diagnostic::error(
                Code::GM001,
                Span::Edge { from, to },
                format!("task graph has a cycle: {witness}; no schedule can order one round"),
            )
            .with_suggestion(format!(
                "break the cycle by removing the edge {from} -> {to}"
            )),
        );
    }

    if graph.task_count() > 1 {
        for task in graph.tasks() {
            if graph.producers(task.id).is_empty() && graph.consumers(task.id).is_empty() {
                diags.push(
                    Diagnostic::warning(
                        Code::GM002,
                        Span::Task(task.id),
                        format!(
                            "task {} exchanges no data with the rest of the graph; it will be mapped and charged but contributes nothing",
                            task.id
                        ),
                    )
                    .with_suggestion("connect the task or drop it from the graph"),
                );
            }
        }
    }

    // Leveled graphs must aggregate upward. A graph with every level at 0
    // is free-form (the annotation is unused) and exempt.
    if graph.tasks().iter().any(|t| t.level > 0) {
        for e in graph.edges() {
            let (lf, lt) = (graph.task(e.from).level, graph.task(e.to).level);
            if lt <= lf {
                diags.push(
                    Diagnostic::warning(
                        Code::GM003,
                        Span::Edge {
                            from: e.from,
                            to: e.to,
                        },
                        format!(
                            "edge {} -> {} goes from level {lf} to level {lt}; aggregation edges must strictly increase the hierarchy level",
                            e.from, e.to
                        ),
                    )
                    .with_suggestion("fix the task levels or reverse the edge"),
                );
            }
        }
    }

    diags
}

/// Runs the §4.1 constraint sweep on a mapping over `qt`'s grid.
pub(crate) fn check_mapping(qt: &QuadTree, mapping: &Mapping) -> Diagnostics {
    let mut diags = Diagnostics::new();
    for v in coverage_violations(qt, mapping) {
        diags.push(constraint_diag(Code::GM004, &v));
    }
    for v in spatial_correlation_violations(qt, mapping) {
        diags.push(constraint_diag(Code::GM005, &v));
    }
    diags
}

fn constraint_diag(code: Code, v: &ConstraintViolation) -> Diagnostic {
    let (span, message) = match v {
        ConstraintViolation::DuplicateLeafAssignment { node } => (
            Span::Node(*node),
            format!(
                "two sampling tasks share node ({}, {}); coverage requires a distinct node per leaf",
                node.col, node.row
            ),
        ),
        ConstraintViolation::CoverageCount { leaves, nodes } => (
            Span::Program,
            format!("{leaves} sampling task(s) for {nodes} virtual node(s); coverage requires a bijection"),
        ),
        ConstraintViolation::OutOfGrid { task } => (
            Span::Task(*task),
            format!("task {task} is mapped outside the virtual topology"),
        ),
        ConstraintViolation::NonContiguousExtent { task } => (
            Span::Task(*task),
            format!(
                "the leaves under task {task} do not tile one contiguous square extent; merged boundaries would mix disjoint regions"
            ),
        ),
    };
    Diagnostic::error(code, span, message)
        .with_suggestion("re-run the mapper or repair the assignment before synthesis")
}

/// Finds one cycle as a witness path `[t0, t1, …, tk]` with an edge
/// `tk -> t0` closing it; `None` when the graph is a DAG.
pub(crate) fn find_cycle(graph: &TaskGraph) -> Option<Vec<TaskId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = graph.task_count();
    let mut color = vec![Color::White; n];
    let mut stack: Vec<TaskId> = Vec::new();

    // Iterative DFS carrying (task, next-consumer-index).
    for root in 0..n {
        if color[root] != Color::White {
            continue;
        }
        let mut frames: Vec<(TaskId, usize)> = vec![(root, 0)];
        color[root] = Color::Gray;
        stack.push(root);
        while let Some(&mut (t, ref mut next)) = frames.last_mut() {
            if let Some(&c) = graph.consumers(t).get(*next) {
                *next += 1;
                match color[c] {
                    Color::White => {
                        color[c] = Color::Gray;
                        stack.push(c);
                        frames.push((c, 0));
                    }
                    Color::Gray => {
                        // Back edge t -> c: the cycle is the stack from c.
                        let start = stack.iter().position(|&x| x == c).unwrap();
                        return Some(stack[start..].to_vec());
                    }
                    Color::Black => {}
                }
            } else {
                color[t] = Color::Black;
                stack.pop();
                frames.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_core::GridCoord;
    use wsn_synth::{quadtree_task_graph, Mapper, QuadrantMapper, TaskKind};

    fn qt(side: u32) -> QuadTree {
        quadtree_task_graph(side, &|l| u64::from(l) + 1, &|l| u64::from(l))
    }

    #[test]
    fn quadtree_graph_and_paper_mapping_are_clean() {
        let qt = qt(4);
        assert!(check_graph(&qt.graph).is_empty());
        let m = QuadrantMapper.map(&qt);
        assert!(check_mapping(&qt, &m).is_empty());
    }

    #[test]
    fn cycle_witness_names_the_back_edge() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskKind::Sensing, 0, 1);
        let b = g.add_task(TaskKind::Processing, 1, 1);
        let c = g.add_task(TaskKind::Processing, 2, 1);
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 1);
        let cycle = find_cycle(&g).unwrap();
        assert_eq!(cycle.len(), 3);
        let d = check_graph(&g);
        assert!(d.has_code(Code::GM001), "{}", d.render_text());
        assert!(d.has_errors());
        // The level annotation on the closing edge also trips GM003.
        assert!(d.has_code(Code::GM003));
    }

    #[test]
    fn orphan_task_warned() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskKind::Sensing, 0, 1);
        let b = g.add_task(TaskKind::Processing, 1, 1);
        g.add_edge(a, b, 1);
        g.add_task(TaskKind::Sensing, 0, 1); // orphan
        let d = check_graph(&g);
        assert!(d.has_code(Code::GM002), "{}", d.render_text());
        assert_eq!(d.error_count(), 0);
    }

    #[test]
    fn level_monotonicity_enforced_only_for_leveled_graphs() {
        let mut flat = TaskGraph::new();
        let a = flat.add_task(TaskKind::Sensing, 0, 1);
        let b = flat.add_task(TaskKind::Sensing, 0, 1);
        flat.add_edge(a, b, 1);
        assert!(!check_graph(&flat).has_code(Code::GM003));

        let mut leveled = TaskGraph::new();
        let a = leveled.add_task(TaskKind::Sensing, 2, 1);
        let b = leveled.add_task(TaskKind::Processing, 1, 1);
        leveled.add_edge(a, b, 1);
        assert!(check_graph(&leveled).has_code(Code::GM003));
    }

    #[test]
    fn broken_mapping_reports_both_constraint_codes() {
        let qt = qt(4);
        let mut m = QuadrantMapper.map(&qt);
        // Duplicate a leaf assignment (coverage) and swap a leaf across
        // quadrants (spatial correlation).
        m.assign(0, m.node_of(1));
        let far = GridCoord { col: 3, row: 3 };
        m.assign(2, far);
        let d = check_mapping(&qt, &m);
        assert!(d.has_code(Code::GM004), "{}", d.render_text());
        assert!(d.has_code(Code::GM005), "{}", d.render_text());
        assert!(d.has_errors());
    }
}
