//! Regenerators for the paper's figures 2–4.

use wsn_core::Hierarchy;
use wsn_synth::{
    quadtree_task_graph, synthesize_quadtree_program, Mapper, QuadTree, QuadrantMapper,
};

fn labels_of_level(qt: &QuadTree, level: usize) -> Vec<usize> {
    qt.ids_by_level[level]
        .iter()
        .map(|&t| qt.figure_label(t))
        .collect()
}

/// Figure 2: the quad-tree representation of the algorithm (4×4 grid),
/// with the paper's node labels.
pub fn fig2_quadtree() -> String {
    let qt = quadtree_task_graph(4, &|_| 1, &|_| 1);
    let mut out = String::new();
    out.push_str("Figure 2: quad-tree representation of the algorithm (4x4 grid)\n\n");
    for level in (0..qt.ids_by_level.len()).rev() {
        let labels: Vec<String> = labels_of_level(&qt, level)
            .iter()
            .map(|l| format!("{l:>2}"))
            .collect();
        out.push_str(&format!("Level {level}: {}\n", labels.join("  ")));
    }
    out.push_str("\nEdges (child -> parent):\n");
    for level in (1..qt.ids_by_level.len()).rev() {
        for &parent in &qt.ids_by_level[level] {
            let children: Vec<String> = qt
                .graph
                .producers(parent)
                .iter()
                .map(|&c| qt.figure_label(c).to_string())
                .collect();
            out.push_str(&format!(
                "  {{{}}} -> {}   (level {level})\n",
                children.join(", "),
                qt.figure_label(parent),
            ));
        }
    }
    out
}

/// Figure 3: the example mapping — the 4×4 grid with the paper's location
/// labels (Morton order, 2×2 blocks outlined) and the quad-tree mapping.
pub fn fig3_mapping() -> String {
    let h = Hierarchy::new(4);
    let qt = quadtree_task_graph(4, &|_| 1, &|_| 1);
    let mapping = QuadrantMapper.map(&qt);
    let mut out = String::new();
    out.push_str("Figure 3: example mapping (grid locations in quad-tree order)\n\n");
    for row in 0..4u32 {
        if row == 2 {
            out.push_str("-------+-------\n");
        }
        let mut cells = Vec::new();
        for col in 0..4u32 {
            if col == 2 {
                cells.push("|".to_owned());
            }
            cells.push(format!(
                "{:>2}",
                h.morton_index(wsn_core::GridCoord::new(col, row))
            ));
        }
        out.push_str(&cells.join(" "));
        out.push('\n');
    }
    out.push_str("\nRole assignment (task -> grid location):\n");
    out.push_str(&format!(
        "  root (level 2)   -> location {}\n",
        h.morton_index(mapping.node_of(qt.root()))
    ));
    let level1: Vec<String> = qt.ids_by_level[1]
        .iter()
        .map(|&t| h.morton_index(mapping.node_of(t)).to_string())
        .collect();
    out.push_str(&format!(
        "  level-1 nodes    -> locations {}\n",
        level1.join(", ")
    ));
    out.push_str("  leaves (level 0) -> their own locations 0..15\n");
    out
}

/// Figure 4: the synthesized program specification for the 4×4 case
/// (maxrecLevel = 2). The program goes through the analysis-gated code
/// generator: an error-bearing program would abort figure regeneration
/// instead of printing broken pseudocode.
pub fn fig4_program() -> String {
    let program = synthesize_quadtree_program(2);
    let (rendered, _diags) = wsn_analyze::render_figure4_checked(&program)
        .expect("the synthesized Figure-4 program analyzes clean");
    format!("Figure 4: synthesized program specification\n\n{rendered}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_has_paper_labels() {
        let s = fig2_quadtree();
        assert!(s.contains("Level 2:  0"), "{s}");
        assert!(s.contains("Level 1:  0   4   8  12"), "{s}");
        assert!(s.contains("{0, 4, 8, 12} -> 0"), "{s}");
        assert!(s.contains("{12, 13, 14, 15} -> 12"), "{s}");
    }

    #[test]
    fn fig3_matches_paper_grid() {
        let s = fig3_mapping();
        assert!(s.contains(" 0  1 |  4  5"), "{s}");
        assert!(s.contains("10 11 | 14 15"), "{s}");
        assert!(s.contains("root (level 2)   -> location 0"));
        assert!(s.contains("locations 0, 4, 8, 12"));
    }

    #[test]
    fn fig4_contains_all_clauses() {
        let s = fig4_program();
        assert_eq!(s.matches("Condition :").count(), 4);
        assert!(s.contains("exfiltrate"));
    }
}
