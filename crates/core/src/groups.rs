//! The group-formation middleware service.
//!
//! §3.2: "The concept of hierarchical groups is supported for the grid
//! topology. At the lowest level of hierarchy (level 0), every node is
//! both a group member and a group leader. At level 1, the grid is
//! partitioned into blocks of 2×2 nodes. The node in the north-west corner
//! is designated a level 1 leader … Since every node knows its own grid
//! coordinates, it can also determine its role as leader and/or follower
//! at each level of the hierarchy."
//!
//! Everything here is a pure function of grid coordinates — exactly the
//! property the paper relies on to make group membership computable
//! locally, with no protocol traffic.
//!
//! The module also provides the quad-tree (Morton/Z-order) numbering of
//! grid locations used by the paper's Figures 2 and 3, where the 4×4 grid
//! is labeled 0–15 quadrant by quadrant (NW, NE, SW, SE) rather than
//! row-major.

use crate::grid::GridCoord;

/// The hierarchical-group service over a `2^p × 2^p` grid.
///
/// ```
/// use wsn_core::{GridCoord, Hierarchy};
///
/// let h = Hierarchy::new(4);
/// // Node (3,1) belongs to the 2×2 block led by its NW corner (2,0):
/// assert_eq!(h.leader(GridCoord::new(3, 1), 1), GridCoord::new(2, 0));
/// // The paper's Figure-3 location labels are Morton indices:
/// assert_eq!(h.morton_index(GridCoord::new(2, 0)), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hierarchy {
    side: u32,
    max_level: u8,
}

impl Hierarchy {
    /// A hierarchy over an `side × side` grid. The paper's recursive
    /// quadrant scheme needs `side` to be a power of two (so that
    /// `log₄ n` is an integer); panics otherwise.
    pub fn new(side: u32) -> Self {
        assert!(
            side > 0 && side.is_power_of_two(),
            "grid side must be a power of two, got {side}"
        );
        Hierarchy {
            side,
            max_level: side.trailing_zeros() as u8,
        }
    }

    /// Grid side.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// The top level `p = log₂(side)`; the single level-`p` block is the
    /// whole grid, whose leader performs the final aggregation.
    pub fn max_level(&self) -> u8 {
        self.max_level
    }

    /// Side length of a level-`level` block, `2^level`.
    pub fn block_size(&self, level: u8) -> u32 {
        assert!(
            level <= self.max_level,
            "level {level} exceeds max {}",
            self.max_level
        );
        1 << level
    }

    /// North-west corner of the level-`level` block containing `c` — the
    /// block's leader.
    pub fn leader(&self, c: GridCoord, level: u8) -> GridCoord {
        debug_assert!(c.col < self.side && c.row < self.side);
        let b = self.block_size(level);
        GridCoord::new(c.col / b * b, c.row / b * b)
    }

    /// Whether `c` is a leader at `level`.
    pub fn is_leader(&self, c: GridCoord, level: u8) -> bool {
        self.leader(c, level) == c
    }

    /// The highest level at which `c` is a leader. Level 0 for most nodes;
    /// `max_level` only for the origin. (The paper: "all level i leaders
    /// are also level i−1 leaders".)
    pub fn highest_leader_level(&self, c: GridCoord) -> u8 {
        (0..=self.max_level)
            .rev()
            .find(|&l| self.is_leader(c, l))
            .expect("every node is a level-0 leader")
    }

    /// All leaders at `level`, row-major.
    pub fn leaders_at(&self, level: u8) -> Vec<GridCoord> {
        let b = self.block_size(level);
        let mut out = Vec::new();
        let mut row = 0;
        while row < self.side {
            let mut col = 0;
            while col < self.side {
                out.push(GridCoord::new(col, row));
                col += b;
            }
            row += b;
        }
        out
    }

    /// Members of the level-`level` block led by `leader` (which must be a
    /// leader at that level), row-major, including the leader itself.
    pub fn members(&self, leader: GridCoord, level: u8) -> Vec<GridCoord> {
        assert!(
            self.is_leader(leader, level),
            "{leader:?} is not a level-{level} leader"
        );
        let b = self.block_size(level);
        let mut out = Vec::with_capacity((b * b) as usize);
        for row in leader.row..leader.row + b {
            for col in leader.col..leader.col + b {
                out.push(GridCoord::new(col, row));
            }
        }
        out
    }

    /// The four level-`level − 1` leaders inside the level-`level` block
    /// led by `leader`, in the paper's quadrant order NW, NE, SW, SE —
    /// the children of a quad-tree node.
    pub fn children(&self, leader: GridCoord, level: u8) -> [GridCoord; 4] {
        assert!(level >= 1, "level-0 groups have no children");
        assert!(
            self.is_leader(leader, level),
            "{leader:?} is not a level-{level} leader"
        );
        let b = self.block_size(level - 1);
        [
            leader,
            GridCoord::new(leader.col + b, leader.row),
            GridCoord::new(leader.col, leader.row + b),
            GridCoord::new(leader.col + b, leader.row + b),
        ]
    }

    /// Hop distance from a follower to its level-`level` leader (§4.2:
    /// "proportional to the minimum number of hops separating them …
    /// assuming shortest path routing"): the Manhattan distance.
    pub fn hops_to_leader(&self, c: GridCoord, level: u8) -> u32 {
        c.manhattan(self.leader(c, level))
    }

    /// The quad-tree (Morton/Z-order) label of a grid location — the
    /// numbering the paper uses in Figures 2 and 3, where quadrants are
    /// labeled in NW, NE, SW, SE order recursively.
    pub fn morton_index(&self, c: GridCoord) -> usize {
        debug_assert!(c.col < self.side && c.row < self.side);
        let mut idx = 0usize;
        for bit in (0..self.max_level).rev() {
            let row_bit = (c.row >> bit) & 1;
            let col_bit = (c.col >> bit) & 1;
            idx = (idx << 2) | ((row_bit << 1) | col_bit) as usize;
        }
        idx
    }

    /// Inverse of [`Hierarchy::morton_index`].
    pub fn from_morton(&self, index: usize) -> GridCoord {
        assert!(
            index < (self.side as usize).pow(2),
            "morton index out of range"
        );
        let mut col = 0u32;
        let mut row = 0u32;
        for bit in 0..self.max_level {
            col |= (((index >> (2 * bit)) & 1) as u32) << bit;
            row |= (((index >> (2 * bit + 1)) & 1) as u32) << bit;
        }
        GridCoord::new(col, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h4() -> Hierarchy {
        Hierarchy::new(4)
    }

    #[test]
    fn max_level_is_log2_side() {
        assert_eq!(h4().max_level(), 2);
        assert_eq!(Hierarchy::new(1).max_level(), 0);
        assert_eq!(Hierarchy::new(32).max_level(), 5);
    }

    #[test]
    fn level0_everyone_leads_themselves() {
        let h = h4();
        for row in 0..4 {
            for col in 0..4 {
                let c = GridCoord::new(col, row);
                assert!(h.is_leader(c, 0));
                assert_eq!(h.leader(c, 0), c);
                assert_eq!(h.hops_to_leader(c, 0), 0);
            }
        }
    }

    #[test]
    fn level1_leaders_are_2x2_nw_corners() {
        let h = h4();
        let leaders = h.leaders_at(1);
        assert_eq!(
            leaders,
            vec![
                GridCoord::new(0, 0),
                GridCoord::new(2, 0),
                GridCoord::new(0, 2),
                GridCoord::new(2, 2),
            ]
        );
        assert_eq!(h.leader(GridCoord::new(3, 1), 1), GridCoord::new(2, 0));
        assert_eq!(h.leader(GridCoord::new(1, 3), 1), GridCoord::new(0, 2));
    }

    #[test]
    fn top_level_leader_is_origin() {
        let h = h4();
        assert_eq!(h.leaders_at(2), vec![GridCoord::new(0, 0)]);
        for c in [
            GridCoord::new(3, 3),
            GridCoord::new(0, 0),
            GridCoord::new(2, 1),
        ] {
            assert_eq!(h.leader(c, 2), GridCoord::new(0, 0));
        }
    }

    #[test]
    fn leaders_nest_across_levels() {
        // "all level i leaders are also level i−1 leaders"
        let h = Hierarchy::new(8);
        for level in 1..=h.max_level() {
            for leader in h.leaders_at(level) {
                assert!(h.is_leader(leader, level - 1));
            }
        }
    }

    #[test]
    fn highest_leader_level_examples() {
        let h = h4();
        assert_eq!(h.highest_leader_level(GridCoord::new(0, 0)), 2);
        assert_eq!(h.highest_leader_level(GridCoord::new(2, 0)), 1);
        assert_eq!(h.highest_leader_level(GridCoord::new(1, 0)), 0);
        assert_eq!(h.highest_leader_level(GridCoord::new(3, 3)), 0);
    }

    #[test]
    fn members_cover_block() {
        let h = h4();
        let m = h.members(GridCoord::new(2, 2), 1);
        assert_eq!(
            m,
            vec![
                GridCoord::new(2, 2),
                GridCoord::new(3, 2),
                GridCoord::new(2, 3),
                GridCoord::new(3, 3),
            ]
        );
        assert_eq!(h.members(GridCoord::new(0, 0), 2).len(), 16);
    }

    #[test]
    fn children_in_quadrant_order() {
        let h = h4();
        assert_eq!(
            h.children(GridCoord::new(0, 0), 2),
            [
                GridCoord::new(0, 0),
                GridCoord::new(2, 0),
                GridCoord::new(0, 2),
                GridCoord::new(2, 2),
            ]
        );
        assert_eq!(
            h.children(GridCoord::new(2, 2), 1),
            [
                GridCoord::new(2, 2),
                GridCoord::new(3, 2),
                GridCoord::new(2, 3),
                GridCoord::new(3, 3),
            ]
        );
    }

    #[test]
    fn morton_matches_paper_figure3() {
        // Figure 3 labels of the 4×4 grid:
        //   0  1 | 4  5
        //   2  3 | 6  7
        //   -----+-----
        //   8  9 | 12 13
        //  10 11 | 14 15
        let h = h4();
        let expected: [[usize; 4]; 4] =
            [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]];
        for (row, row_labels) in expected.iter().enumerate() {
            for (col, &label) in row_labels.iter().enumerate() {
                let c = GridCoord::new(col as u32, row as u32);
                assert_eq!(h.morton_index(c), label, "coord {c:?}");
                assert_eq!(h.from_morton(label), c);
            }
        }
    }

    #[test]
    fn paper_level1_mapping_locations_0_4_8_12() {
        // §4.2: "the four level 1 nodes are mapped to locations 0, 4, 8,
        // and 12 respectively, which are the leaders of their
        // corresponding groups."
        let h = h4();
        let labels: Vec<usize> = h.leaders_at(1).iter().map(|&c| h.morton_index(c)).collect();
        assert_eq!(labels, vec![0, 4, 8, 12]);
        // And the root maps to location 0.
        assert_eq!(h.morton_index(h.leaders_at(2)[0]), 0);
    }

    #[test]
    fn hops_to_leader_is_manhattan() {
        let h = h4();
        assert_eq!(h.hops_to_leader(GridCoord::new(3, 3), 2), 6);
        assert_eq!(h.hops_to_leader(GridCoord::new(3, 2), 1), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_side_panics() {
        Hierarchy::new(6);
    }

    #[test]
    #[should_panic(expected = "no children")]
    fn level0_children_panics() {
        h4().children(GridCoord::new(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "not a level-1 leader")]
    fn members_of_non_leader_panics() {
        h4().members(GridCoord::new(1, 0), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_hierarchy() -> impl Strategy<Value = Hierarchy> {
        (0u32..6).prop_map(|p| Hierarchy::new(1 << p))
    }

    proptest! {
        /// Morton numbering is a bijection on the grid.
        #[test]
        fn morton_bijective(h in arb_hierarchy()) {
            let n = (h.side() as usize).pow(2);
            let mut seen = vec![false; n];
            for row in 0..h.side() {
                for col in 0..h.side() {
                    let c = GridCoord::new(col, row);
                    let idx = h.morton_index(c);
                    prop_assert!(idx < n);
                    prop_assert!(!seen[idx], "collision at {}", idx);
                    seen[idx] = true;
                    prop_assert_eq!(h.from_morton(idx), c);
                }
            }
        }

        /// Every node's level-k leader leads a block that contains it, and
        /// blocks at each level partition the grid.
        #[test]
        fn blocks_partition(h in arb_hierarchy(), level in 0u8..7) {
            let level = level % (h.max_level() + 1);
            let mut assigned = 0usize;
            for leader in h.leaders_at(level) {
                let members = h.members(leader, level);
                assigned += members.len();
                for m in members {
                    prop_assert_eq!(h.leader(m, level), leader);
                }
            }
            prop_assert_eq!(assigned, (h.side() as usize).pow(2));
        }

        /// Children of a level-k leader are exactly the level-(k−1)
        /// leaders inside its block.
        #[test]
        fn children_are_sub_leaders(h in arb_hierarchy(), level in 1u8..7) {
            prop_assume!(h.max_level() >= 1);
            let level = 1 + (level - 1) % h.max_level();
            for leader in h.leaders_at(level) {
                for child in h.children(leader, level) {
                    prop_assert!(h.is_leader(child, level - 1));
                    prop_assert_eq!(h.leader(child, level), leader);
                }
            }
        }
    }
}
