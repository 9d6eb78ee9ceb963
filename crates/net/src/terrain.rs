//! The deployment terrain and its partition into cells.
//!
//! §5.1 of the paper: a square terrain of side `L` is partitioned into
//! non-overlapping equal cells of side `d` with `m = L/d` cells per side,
//! one cell per vertex of the `m × m` virtual grid `G_V`. Every node knows
//! its own coordinates and the terrain boundary, so it can compute which
//! cell it lies in and the cell's geographic center — both used by the
//! runtime protocols.

use crate::geometry::{Point, Rect};

/// A cell's (column, row) coordinates in the oriented grid.
/// Column 0 is the west edge; row 0 is the north edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellCoord {
    /// Column (west → east).
    pub col: u32,
    /// Row (north → south).
    pub row: u32,
}

impl CellCoord {
    /// Constructs a cell coordinate.
    pub const fn new(col: u32, row: u32) -> Self {
        CellCoord { col, row }
    }

    /// Manhattan (grid-hop) distance to `other` — the cost-model distance
    /// between virtual nodes under shortest-path grid routing.
    pub fn manhattan(self, other: CellCoord) -> u32 {
        self.col.abs_diff(other.col) + self.row.abs_diff(other.row)
    }
}

/// The square deployment terrain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Terrain {
    side: f64,
}

impl Terrain {
    /// A square terrain of the given side length.
    pub fn square(side: f64) -> Self {
        assert!(
            side > 0.0 && side.is_finite(),
            "terrain side must be positive"
        );
        Terrain { side }
    }

    /// Side length `L`.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Bounding rectangle `[0, L) × [0, L)`.
    pub fn bounds(&self) -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(self.side, self.side))
    }
}

/// The partition of a terrain into an `m × m` grid of square cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGrid {
    terrain: Terrain,
    cells_per_side: u32,
}

impl CellGrid {
    /// Partitions `terrain` into `m × m` cells.
    pub fn new(terrain: Terrain, cells_per_side: u32) -> Self {
        assert!(cells_per_side > 0, "need at least one cell per side");
        CellGrid {
            terrain,
            cells_per_side,
        }
    }

    /// The terrain being partitioned.
    pub fn terrain(&self) -> Terrain {
        self.terrain
    }

    /// Cells per side, `m`.
    pub fn cells_per_side(&self) -> u32 {
        self.cells_per_side
    }

    /// Total number of cells, `m²`.
    pub fn cell_count(&self) -> usize {
        (self.cells_per_side as usize).pow(2)
    }

    /// Cell side length `d = L / m`.
    pub fn cell_size(&self) -> f64 {
        self.terrain.side() / f64::from(self.cells_per_side)
    }

    /// The minimum transmission range that makes any two nodes in the same
    /// or edge-adjacent cells radio neighbors: `r ≥ d·√5` covers the worst
    /// case (opposite corners of a 1×2 cell domino). The paper states the
    /// relation as `d = r / c` for a constant `c`; this is that constant's
    /// tight value.
    pub fn range_for_adjacent_cell_reachability(&self) -> f64 {
        self.cell_size() * 5.0_f64.sqrt()
    }

    /// The cell containing `p`. Points on the south/east terrain boundary
    /// are clamped into the last cell so that deployments sampling the
    /// closed square never fall outside the partition.
    pub fn cell_of(&self, p: Point) -> CellCoord {
        let m = self.cells_per_side;
        let d = self.cell_size();
        let col = ((p.x / d).floor() as i64).clamp(0, i64::from(m) - 1) as u32;
        let row = ((p.y / d).floor() as i64).clamp(0, i64::from(m) - 1) as u32;
        CellCoord::new(col, row)
    }

    /// The rectangle of cell `c`.
    pub fn cell_rect(&self, c: CellCoord) -> Rect {
        assert!(self.in_bounds(c), "cell {c:?} out of bounds");
        let d = self.cell_size();
        let min = Point::new(f64::from(c.col) * d, f64::from(c.row) * d);
        Rect::new(min, Point::new(min.x + d, min.y + d))
    }

    /// The geographic center `X_{ij}` of cell `c` (used by the binding
    /// protocol, §5.2).
    pub fn cell_center(&self, c: CellCoord) -> Point {
        self.cell_rect(c).center()
    }

    /// Whether `c` is a valid cell of this grid.
    pub fn in_bounds(&self, c: CellCoord) -> bool {
        c.col < self.cells_per_side && c.row < self.cells_per_side
    }

    /// Iterates over all cells in row-major (north-to-south, west-to-east)
    /// order.
    pub fn cells(&self) -> impl Iterator<Item = CellCoord> + '_ {
        let m = self.cells_per_side;
        (0..m).flat_map(move |row| (0..m).map(move |col| CellCoord::new(col, row)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4() -> CellGrid {
        CellGrid::new(Terrain::square(40.0), 4)
    }

    #[test]
    fn cell_size_divides_terrain() {
        assert_eq!(grid4().cell_size(), 10.0);
        assert_eq!(grid4().cell_count(), 16);
    }

    #[test]
    fn cell_of_maps_interior_points() {
        let g = grid4();
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), CellCoord::new(0, 0));
        assert_eq!(g.cell_of(Point::new(9.99, 0.0)), CellCoord::new(0, 0));
        assert_eq!(g.cell_of(Point::new(10.0, 0.0)), CellCoord::new(1, 0));
        assert_eq!(g.cell_of(Point::new(35.0, 25.0)), CellCoord::new(3, 2));
    }

    #[test]
    fn boundary_points_clamp_into_grid() {
        let g = grid4();
        assert_eq!(g.cell_of(Point::new(40.0, 40.0)), CellCoord::new(3, 3));
        assert_eq!(g.cell_of(Point::new(-0.5, 50.0)), CellCoord::new(0, 3));
    }

    #[test]
    fn cell_rect_contains_its_center() {
        let g = grid4();
        for c in g.cells() {
            let rect = g.cell_rect(c);
            assert!(rect.contains(g.cell_center(c)));
            assert_eq!(g.cell_of(g.cell_center(c)), c);
        }
    }

    #[test]
    fn cells_iterates_row_major_exactly_once() {
        let g = grid4();
        let all: Vec<CellCoord> = g.cells().collect();
        assert_eq!(all.len(), 16);
        assert_eq!(all[0], CellCoord::new(0, 0));
        assert_eq!(all[1], CellCoord::new(1, 0));
        assert_eq!(all[4], CellCoord::new(0, 1));
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 16);
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(CellCoord::new(0, 0).manhattan(CellCoord::new(3, 2)), 5);
        assert_eq!(CellCoord::new(3, 2).manhattan(CellCoord::new(0, 0)), 5);
        assert_eq!(CellCoord::new(1, 1).manhattan(CellCoord::new(1, 1)), 0);
    }

    #[test]
    fn adjacency_range_covers_worst_case_pair() {
        let g = grid4();
        let r = g.range_for_adjacent_cell_reachability();
        // Worst case: NW corner of a cell to SE corner of its east neighbor.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(20.0, 10.0); // two cells east, one south: NOT adjacent
        let adj = Point::new(19.999, 9.999); // far corner of the east neighbor
        assert!(a.distance(adj) <= r);
        assert!(a.distance(b) > r - 1e-9 || a.distance(b) <= r); // sanity only
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cell_rect_out_of_bounds_panics() {
        grid4().cell_rect(CellCoord::new(4, 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_terrain_panics() {
        Terrain::square(0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every terrain point belongs to exactly the cell whose rect contains it.
        #[test]
        fn cell_of_agrees_with_rects(
            x in 0.0f64..100.0,
            y in 0.0f64..100.0,
            m in 1u32..12,
        ) {
            let g = CellGrid::new(Terrain::square(100.0), m);
            let p = Point::new(x, y);
            let c = g.cell_of(p);
            prop_assert!(g.in_bounds(c));
            prop_assert!(g.cell_rect(c).contains(p));
        }

        /// Manhattan distance is a metric on cell coordinates.
        #[test]
        fn manhattan_metric(
            a in 0u32..100, b in 0u32..100,
            c in 0u32..100, d in 0u32..100,
            e in 0u32..100, f in 0u32..100,
        ) {
            let p = CellCoord::new(a, b);
            let q = CellCoord::new(c, d);
            let r = CellCoord::new(e, f);
            prop_assert_eq!(p.manhattan(q), q.manhattan(p));
            prop_assert_eq!(p.manhattan(p), 0);
            prop_assert!(p.manhattan(r) <= p.manhattan(q) + q.manhattan(r));
        }
    }
}
