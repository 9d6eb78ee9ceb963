//! The virtual network model: an oriented two-dimensional grid.
//!
//! §3.2: "our virtual architecture in this case study abstracts the
//! underlying network topology as an oriented, two-dimensional grid." Each
//! vertex is one *point of coverage*; the orientation gives every node the
//! four compass directions used both by the routing tables of the topology
//! emulation protocol and by dimension-order routing between virtual
//! nodes.

/// Coordinates of a virtual grid node. Re-exported from `wsn-net`'s cell
/// coordinates: virtual node `(col, row)` *is* the cell `(col, row)` of the
/// terrain partition — the identification the runtime's topology emulation
/// realizes.
pub type GridCoord = wsn_net::CellCoord;

/// The four directions of the oriented grid (the paper's `DIR` set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Row − 1.
    North,
    /// Column + 1.
    East,
    /// Row + 1.
    South,
    /// Column − 1.
    West,
}

impl Direction {
    /// All four directions, in N-E-S-W order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }
}

/// An `m × m` oriented grid of virtual nodes.
///
/// ```
/// use wsn_core::{GridCoord, VirtualGrid};
///
/// let g = VirtualGrid::new(4);
/// let a = GridCoord::new(0, 0);
/// let b = GridCoord::new(2, 3);
/// assert_eq!(g.hops(a, b), 5);
/// assert_eq!(g.route(a, b).len(), 5); // dimension-order shortest path
/// assert_eq!(g.index(b), 14);         // row-major
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualGrid {
    side: u32,
}

impl VirtualGrid {
    /// An `side × side` grid.
    pub fn new(side: u32) -> Self {
        assert!(side > 0, "grid side must be positive");
        VirtualGrid { side }
    }

    /// Nodes per side, `m` (the paper's √N).
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Total virtual nodes, `N = m²`.
    pub fn node_count(&self) -> usize {
        (self.side as usize).pow(2)
    }

    /// Whether `c` is a node of this grid.
    pub fn contains(&self, c: GridCoord) -> bool {
        c.col < self.side && c.row < self.side
    }

    /// Row-major index of `c` (matches the paper's Figure 3 numbering for
    /// the 4×4 example: location = row·m + col).
    pub fn index(&self, c: GridCoord) -> usize {
        assert!(self.contains(c), "{c:?} outside {0}×{0} grid", self.side);
        c.row as usize * self.side as usize + c.col as usize
    }

    /// Inverse of [`VirtualGrid::index`].
    pub fn coord(&self, index: usize) -> GridCoord {
        assert!(index < self.node_count(), "index {index} out of range");
        GridCoord::new(
            (index % self.side as usize) as u32,
            (index / self.side as usize) as u32,
        )
    }

    /// The neighbor of `c` in direction `dir`, if it exists.
    pub fn neighbor(&self, c: GridCoord, dir: Direction) -> Option<GridCoord> {
        let (col, row) = (i64::from(c.col), i64::from(c.row));
        let (ncol, nrow) = match dir {
            Direction::North => (col, row - 1),
            Direction::East => (col + 1, row),
            Direction::South => (col, row + 1),
            Direction::West => (col - 1, row),
        };
        (ncol >= 0 && nrow >= 0 && ncol < i64::from(self.side) && nrow < i64::from(self.side))
            .then(|| GridCoord::new(ncol as u32, nrow as u32))
    }

    /// All existing neighbors of `c`, in N-E-S-W order.
    pub fn neighbors(&self, c: GridCoord) -> Vec<GridCoord> {
        Direction::ALL
            .iter()
            .filter_map(|&d| self.neighbor(c, d))
            .collect()
    }

    /// Shortest-path hop distance (Manhattan metric — the cost the group
    /// middleware quotes for follower→leader traffic, §4.2).
    pub fn hops(&self, a: GridCoord, b: GridCoord) -> u32 {
        debug_assert!(self.contains(a) && self.contains(b));
        a.manhattan(b)
    }

    /// Next hop of dimension-order (column-first) routing from `from`
    /// toward `to`; `None` when already there. Deterministic, loop-free,
    /// and shortest-path on the grid.
    pub fn next_hop(&self, from: GridCoord, to: GridCoord) -> Option<GridCoord> {
        assert!(self.contains(from) && self.contains(to));
        let dir = if from.col < to.col {
            Direction::East
        } else if from.col > to.col {
            Direction::West
        } else if from.row < to.row {
            Direction::South
        } else if from.row > to.row {
            Direction::North
        } else {
            return None;
        };
        Some(self.neighbor(from, dir).expect("in-bounds next hop"))
    }

    /// The full dimension-order route from `from` to `to`, excluding
    /// `from`, including `to`. Empty when they coincide.
    pub fn route(&self, from: GridCoord, to: GridCoord) -> Vec<GridCoord> {
        let mut path = Vec::with_capacity(self.hops(from, to) as usize);
        let mut cur = from;
        while let Some(next) = self.next_hop(cur, to) {
            path.push(next);
            cur = next;
        }
        path
    }

    /// Iterates all nodes in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = GridCoord> + '_ {
        let side = self.side;
        (0..side).flat_map(move |row| (0..side).map(move |col| GridCoord::new(col, row)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip_row_major() {
        let g = VirtualGrid::new(4);
        assert_eq!(g.index(GridCoord::new(0, 0)), 0);
        assert_eq!(g.index(GridCoord::new(3, 0)), 3);
        assert_eq!(g.index(GridCoord::new(0, 1)), 4);
        assert_eq!(g.index(GridCoord::new(3, 3)), 15);
        for i in 0..16 {
            assert_eq!(g.index(g.coord(i)), i);
        }
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let g = VirtualGrid::new(3);
        let nw = GridCoord::new(0, 0);
        assert_eq!(g.neighbor(nw, Direction::North), None);
        assert_eq!(g.neighbor(nw, Direction::West), None);
        assert_eq!(g.neighbor(nw, Direction::East), Some(GridCoord::new(1, 0)));
        assert_eq!(g.neighbor(nw, Direction::South), Some(GridCoord::new(0, 1)));
        assert_eq!(g.neighbors(nw).len(), 2);
        assert_eq!(g.neighbors(GridCoord::new(1, 1)).len(), 4);
        let se = GridCoord::new(2, 2);
        assert_eq!(
            g.neighbors(se),
            vec![GridCoord::new(2, 1), GridCoord::new(1, 2)]
        );
    }

    #[test]
    fn direction_opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn route_is_column_first() {
        let g = VirtualGrid::new(5);
        let path = g.route(GridCoord::new(0, 0), GridCoord::new(2, 2));
        assert_eq!(
            path,
            vec![
                GridCoord::new(1, 0),
                GridCoord::new(2, 0),
                GridCoord::new(2, 1),
                GridCoord::new(2, 2),
            ]
        );
    }

    #[test]
    fn route_length_equals_hops() {
        let g = VirtualGrid::new(8);
        for a in g.nodes() {
            let b = GridCoord::new(5, 2);
            assert_eq!(g.route(a, b).len() as u32, g.hops(a, b));
        }
    }

    #[test]
    fn route_to_self_is_empty() {
        let g = VirtualGrid::new(4);
        let c = GridCoord::new(2, 3);
        assert!(g.route(c, c).is_empty());
        assert_eq!(g.next_hop(c, c), None);
    }

    #[test]
    fn nodes_enumerates_all() {
        let g = VirtualGrid::new(3);
        let all: Vec<GridCoord> = g.nodes().collect();
        assert_eq!(all.len(), 9);
        assert_eq!(all[0], GridCoord::new(0, 0));
        assert_eq!(all[8], GridCoord::new(2, 2));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn index_out_of_bounds_panics() {
        VirtualGrid::new(2).index(GridCoord::new(2, 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_side_panics() {
        VirtualGrid::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Dimension-order routes never leave the grid, never revisit a
        /// node, and reach the destination in exactly `hops` steps.
        #[test]
        fn routes_are_simple_shortest_paths(
            side in 1u32..12,
            ac in 0u32..12, ar in 0u32..12,
            bc in 0u32..12, br in 0u32..12,
        ) {
            let g = VirtualGrid::new(side);
            let a = GridCoord::new(ac % side, ar % side);
            let b = GridCoord::new(bc % side, br % side);
            let path = g.route(a, b);
            prop_assert_eq!(path.len() as u32, g.hops(a, b));
            let mut prev = a;
            let mut seen = std::collections::HashSet::new();
            seen.insert(a);
            for &step in &path {
                prop_assert!(g.contains(step));
                prop_assert_eq!(prev.manhattan(step), 1);
                prop_assert!(seen.insert(step), "revisited {:?}", step);
                prev = step;
            }
            if !path.is_empty() {
                prop_assert_eq!(*path.last().unwrap(), b);
            }
        }
    }
}
