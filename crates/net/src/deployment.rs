//! Deployment generators.
//!
//! The paper targets "large-scale, homogeneous, dense, arbitrarily deployed"
//! networks and assumes at least one sensor node in each geographic cell
//! (§3.2). We provide three placement families plus a *coverage repair*
//! pass that enforces the one-node-per-cell assumption by adding a node at
//! a random position inside any empty cell — modeling the paper's "as long
//! as there is at least one sensor node in each cell" precondition rather
//! than silently violating it.

use crate::geometry::Point;
use crate::terrain::{CellCoord, CellGrid, Terrain};
use wsn_sim::DetRng;

/// How nodes are scattered over the terrain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// `n` nodes i.i.d. uniform over the terrain.
    UniformRandom {
        /// Total node count.
        n: usize,
    },
    /// `per_cell` nodes per cell, each uniform within its cell. Dense and
    /// coverage-complete by construction; the closest synthetic equivalent
    /// of a planned high-density deployment.
    PerCell {
        /// Nodes per cell.
        per_cell: usize,
    },
    /// Gaussian clusters: `clusters` cluster centers uniform over the
    /// terrain, `per_cluster` nodes normally scattered around each with
    /// standard deviation `spread` (clipped to the terrain). Models
    /// airdropped deployments.
    Clustered {
        /// Number of clusters.
        clusters: usize,
        /// Nodes per cluster.
        per_cluster: usize,
        /// Standard deviation of the scatter.
        spread: f64,
    },
}

/// A complete description of a deployment to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentSpec {
    /// Terrain side length `L`.
    pub terrain_side: f64,
    /// Cells per side `m` (the virtual grid is `m × m`).
    pub cells_per_side: u32,
    /// Node placement family.
    pub placement: Placement,
    /// When true, add one node at a random position inside every cell left
    /// empty by the placement (the paper's coverage assumption).
    pub ensure_coverage: bool,
}

impl DeploymentSpec {
    /// A dense, coverage-complete default: `per_cell` nodes in every cell
    /// of an `m × m` grid over a terrain where each cell has side 10.
    pub fn per_cell(m: u32, per_cell: usize) -> Self {
        DeploymentSpec {
            terrain_side: f64::from(m) * 10.0,
            cells_per_side: m,
            placement: Placement::PerCell { per_cell },
            ensure_coverage: true,
        }
    }

    /// Uniform-random placement of `n` nodes with coverage repair.
    pub fn uniform(m: u32, n: usize) -> Self {
        DeploymentSpec {
            terrain_side: f64::from(m) * 10.0,
            cells_per_side: m,
            placement: Placement::UniformRandom { n },
            ensure_coverage: true,
        }
    }

    /// Generates the deployment deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Deployment {
        let terrain = Terrain::square(self.terrain_side);
        let grid = CellGrid::new(terrain, self.cells_per_side);
        let mut rng = DetRng::stream(seed, 0xDE91);
        let mut positions = Vec::new();

        let uniform_point = |rng: &mut DetRng| {
            Point::new(
                rng.range_f64(0.0, terrain.side()),
                rng.range_f64(0.0, terrain.side()),
            )
        };

        match self.placement {
            Placement::UniformRandom { n } => {
                positions.extend((0..n).map(|_| uniform_point(&mut rng)));
            }
            Placement::PerCell { per_cell } => {
                for cell in grid.cells() {
                    let rect = grid.cell_rect(cell);
                    for _ in 0..per_cell {
                        positions.push(Point::new(
                            rng.range_f64(rect.min.x, rect.max.x),
                            rng.range_f64(rect.min.y, rect.max.y),
                        ));
                    }
                }
            }
            Placement::Clustered {
                clusters,
                per_cluster,
                spread,
            } => {
                for _ in 0..clusters {
                    let center = uniform_point(&mut rng);
                    for _ in 0..per_cluster {
                        let x = rng
                            .normal(center.x, spread)
                            .clamp(0.0, terrain.side() - f64::EPSILON * terrain.side());
                        let y = rng
                            .normal(center.y, spread)
                            .clamp(0.0, terrain.side() - f64::EPSILON * terrain.side());
                        positions.push(Point::new(x, y));
                    }
                }
            }
        }

        if self.ensure_coverage {
            let mut occupied = vec![false; grid.cell_count()];
            for &p in &positions {
                occupied[cell_index(&grid, grid.cell_of(p))] = true;
            }
            for cell in grid.cells() {
                if !occupied[cell_index(&grid, cell)] {
                    let rect = grid.cell_rect(cell);
                    positions.push(Point::new(
                        rng.range_f64(rect.min.x, rect.max.x),
                        rng.range_f64(rect.min.y, rect.max.y),
                    ));
                }
            }
        }

        Deployment::new(grid, positions)
    }
}

fn cell_index(grid: &CellGrid, c: CellCoord) -> usize {
    c.row as usize * grid.cells_per_side() as usize + c.col as usize
}

/// A concrete set of node positions over a cell-partitioned terrain.
#[derive(Debug, Clone)]
pub struct Deployment {
    grid: CellGrid,
    positions: Vec<Point>,
    nodes_by_cell: Vec<Vec<usize>>,
}

impl Deployment {
    /// Wraps explicit positions (used by tests and by generators).
    pub fn new(grid: CellGrid, positions: Vec<Point>) -> Self {
        let mut nodes_by_cell = vec![Vec::new(); grid.cell_count()];
        for (i, &p) in positions.iter().enumerate() {
            nodes_by_cell[cell_index(&grid, grid.cell_of(p))].push(i);
        }
        Deployment {
            grid,
            positions,
            nodes_by_cell,
        }
    }

    /// The cell partition.
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// Number of physical nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Position of node `i`.
    pub fn position(&self, i: usize) -> Point {
        self.positions[i]
    }

    /// All positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The cell node `i` lies in (the paper's map `f : V_R → V_V`).
    pub fn cell_of_node(&self, i: usize) -> CellCoord {
        self.grid.cell_of(self.positions[i])
    }

    /// Nodes lying in cell `c` (the paper's `E(v_{ij})`, the *emulation
    /// set* of virtual node `(i,j)`).
    pub fn nodes_in_cell(&self, c: CellCoord) -> &[usize] {
        &self.nodes_by_cell[cell_index(&self.grid, c)]
    }

    /// Whether every cell holds at least one node.
    pub fn covers_all_cells(&self) -> bool {
        self.nodes_by_cell.iter().all(|ns| !ns.is_empty())
    }

    /// Minimum and maximum nodes per cell.
    pub fn cell_occupancy_range(&self) -> (usize, usize) {
        let min = self.nodes_by_cell.iter().map(Vec::len).min().unwrap_or(0);
        let max = self.nodes_by_cell.iter().map(Vec::len).max().unwrap_or(0);
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_cell_places_exact_counts() {
        let d = DeploymentSpec::per_cell(4, 3).generate(1);
        assert_eq!(d.node_count(), 48);
        for cell in d.grid().cells() {
            assert_eq!(d.nodes_in_cell(cell).len(), 3);
        }
        assert!(d.covers_all_cells());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DeploymentSpec::uniform(6, 100);
        let a = spec.generate(42);
        let b = spec.generate(42);
        assert_eq!(a.positions(), b.positions());
        let c = spec.generate(43);
        assert_ne!(a.positions(), c.positions());
    }

    #[test]
    fn coverage_repair_fills_empty_cells() {
        // 3 nodes over 64 cells leaves most cells empty without repair.
        let spec = DeploymentSpec {
            terrain_side: 80.0,
            cells_per_side: 8,
            placement: Placement::UniformRandom { n: 3 },
            ensure_coverage: true,
        };
        let d = spec.generate(7);
        assert!(d.covers_all_cells());
        assert!(d.node_count() >= 64);
    }

    #[test]
    fn without_repair_sparse_deployment_misses_cells() {
        let spec = DeploymentSpec {
            terrain_side: 80.0,
            cells_per_side: 8,
            placement: Placement::UniformRandom { n: 3 },
            ensure_coverage: false,
        };
        let d = spec.generate(7);
        assert!(!d.covers_all_cells());
        assert_eq!(d.node_count(), 3);
    }

    #[test]
    fn positions_stay_inside_terrain() {
        for placement in [
            Placement::UniformRandom { n: 200 },
            Placement::PerCell { per_cell: 2 },
            Placement::Clustered {
                clusters: 5,
                per_cluster: 40,
                spread: 15.0,
            },
        ] {
            let spec = DeploymentSpec {
                terrain_side: 50.0,
                cells_per_side: 5,
                placement,
                ensure_coverage: false,
            };
            let d = spec.generate(3);
            for &p in d.positions() {
                assert!(
                    d.grid().terrain().bounds().contains(p),
                    "{p} outside terrain"
                );
            }
        }
    }

    #[test]
    fn cell_of_node_matches_membership_lists() {
        let d = DeploymentSpec::uniform(5, 80).generate(9);
        for i in 0..d.node_count() {
            let c = d.cell_of_node(i);
            assert!(d.nodes_in_cell(c).contains(&i));
        }
        let total: usize = d.grid().cells().map(|c| d.nodes_in_cell(c).len()).sum();
        assert_eq!(total, d.node_count());
    }

    #[test]
    fn occupancy_range_brackets_all_cells() {
        let d = DeploymentSpec::per_cell(3, 4).generate(2);
        assert_eq!(d.cell_occupancy_range(), (4, 4));
    }

    #[test]
    fn clustered_deployment_is_clumpy() {
        let spec = DeploymentSpec {
            terrain_side: 100.0,
            cells_per_side: 10,
            placement: Placement::Clustered {
                clusters: 2,
                per_cluster: 50,
                spread: 3.0,
            },
            ensure_coverage: false,
        };
        let d = spec.generate(11);
        let (min, max) = d.cell_occupancy_range();
        assert_eq!(min, 0, "tight clusters should leave empty cells");
        assert!(max > 5, "cluster cells should be dense, max={max}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Coverage repair always yields full coverage, for any placement.
        #[test]
        fn repair_guarantees_coverage(n in 0usize..60, m in 1u32..9, seed in 0u64..1000) {
            let spec = DeploymentSpec {
                terrain_side: f64::from(m) * 10.0,
                cells_per_side: m,
                placement: Placement::UniformRandom { n },
                ensure_coverage: true,
            };
            let d = spec.generate(seed);
            prop_assert!(d.covers_all_cells());
            prop_assert!(d.node_count() >= (m as usize).pow(2).max(n));
        }
    }
}
