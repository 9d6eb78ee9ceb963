//! Task-to-node mapping (§4.2, "Role assignment").
//!
//! "The virtual topology, cost model, and application graph can be
//! provided as input to any of the numerous task mapping algorithms that
//! exist in literature … the optimization criteria will have to reflect
//! new performance metrics such as total energy and/or energy balance."
//!
//! Four mappers are provided:
//!
//! * [`QuadrantMapper`] — the paper's static mapping (Figures 2/3): leaf
//!   `i` (Morton order) sits on grid location `i`; every interior task
//!   sits on the north-west corner of its extent, i.e. on its group
//!   leader.
//! * [`RandomFeasibleMapper`] — keeps the leaf tiling but places interior
//!   tasks uniformly at random *within their extent* (still feasible).
//! * [`CentroidMapper`] — places each interior task at the in-extent cell
//!   closest to the centroid of its children, trading the paper's leader
//!   alignment for shorter child links.
//! * [`AnnealingMapper`] — simulated annealing over interior placements,
//!   minimizing a weighted sum of total energy and hotspot energy.
//!
//! All mappers keep the constraint-bearing leaf assignment fixed, because
//! the paper's constraints pin it up to intra-quadrant permutations; the
//! interesting design freedom ("the non-leaf nodes can be mapped anywhere
//! in the grid subject to performance optimization") is interior
//! placement.

use crate::quadtree::QuadTree;
use crate::taskgraph::{TaskId, TaskKind};
use wsn_core::{CostModel, GridCoord, VirtualGrid};
use wsn_sim::DetRng;

/// An assignment of every task to a virtual node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    assignment: Vec<GridCoord>,
}

impl Mapping {
    /// Wraps a raw assignment (index = task id).
    pub fn new(assignment: Vec<GridCoord>) -> Self {
        Mapping { assignment }
    }

    /// The node hosting task `t`.
    pub fn node_of(&self, t: TaskId) -> GridCoord {
        self.assignment[t]
    }

    /// Reassigns task `t`.
    pub fn assign(&mut self, t: TaskId, node: GridCoord) {
        self.assignment[t] = node;
    }

    /// Number of mapped tasks.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when no tasks are mapped.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }
}

/// Cost of a mapping under the virtual architecture's cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingCost {
    /// Network-wide energy for one round of the task graph.
    pub total_energy: f64,
    /// Hotspot: the most-loaded node's energy.
    pub max_node_energy: f64,
    /// Jain fairness of per-node energy.
    pub energy_balance: f64,
    /// Critical-path latency of one round in ticks.
    pub critical_path_ticks: u64,
}

impl MappingCost {
    /// Per-virtual-node energy load of one round of `qt` under `mapping`,
    /// charging tx to sources, rx+tx to route relays, rx to destinations,
    /// and compute to each task's node — the same accounting the VM uses.
    /// Indexed by [`VirtualGrid::index`].
    pub fn node_loads(qt: &QuadTree, mapping: &Mapping, cost: &CostModel) -> Vec<f64> {
        let grid = VirtualGrid::new(qt.side);
        let mut load = vec![0.0f64; grid.node_count()];

        for task in qt.graph.tasks() {
            load[grid.index(mapping.node_of(task.id))] += cost.compute(task.compute_units);
        }
        for e in qt.graph.edges() {
            let from = mapping.node_of(e.from);
            let to = mapping.node_of(e.to);
            if from == to {
                continue;
            }
            let u = e.data_units as f64;
            load[grid.index(from)] += u * cost.tx_energy;
            let route = grid.route(from, to);
            for &relay in &route[..route.len() - 1] {
                load[grid.index(relay)] += u * (cost.rx_energy + cost.tx_energy);
            }
            load[grid.index(to)] += u * cost.rx_energy;
        }
        load
    }

    /// Evaluates `mapping` for one round of `qt` under `cost`.
    pub fn evaluate(qt: &QuadTree, mapping: &Mapping, cost: &CostModel) -> Self {
        let load = Self::node_loads(qt, mapping, cost);

        // Critical path: finish[t] = max over producers of finish + link.
        let order = qt.graph.topological_order().expect("task graph is a DAG");
        let mut finish = vec![0u64; qt.graph.task_count()];
        for &t in &order {
            let mut best = 0u64;
            for &p in qt.graph.producers(t) {
                let units = qt
                    .graph
                    .edges()
                    .iter()
                    .find(|e| e.from == p && e.to == t)
                    .expect("edge exists")
                    .data_units;
                let hops = mapping.node_of(p).manhattan(mapping.node_of(t));
                best = best.max(finish[p] + cost.path_ticks(hops, units));
            }
            finish[t] = best;
        }

        let total: f64 = load.iter().sum();
        let max = load.iter().copied().fold(0.0, f64::max);
        let sum_sq: f64 = load.iter().map(|x| x * x).sum();
        let n = load.len() as f64;
        let balance = if sum_sq == 0.0 {
            1.0
        } else {
            total * total / (n * sum_sq)
        };
        MappingCost {
            total_energy: total,
            max_node_energy: max,
            energy_balance: balance,
            critical_path_ticks: finish.iter().copied().max().unwrap_or(0),
        }
    }
}

/// A task-mapping algorithm.
pub trait Mapper {
    /// Human-readable name for experiment tables.
    fn name(&self) -> &'static str;

    /// Produces a (feasible) mapping for `qt`.
    fn map(&mut self, qt: &QuadTree) -> Mapping;
}

fn leaf_identity_assignment(qt: &QuadTree) -> Vec<GridCoord> {
    // Leaf i (Morton order) → grid location with Morton index i; interior
    // tasks temporarily on their extent origin.
    qt.graph.tasks().iter().map(|t| qt.extent[t.id].0).collect()
}

/// The paper's mapping: interior tasks on their extent's north-west
/// corner — i.e. on the group leader the middleware would pick (§4.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct QuadrantMapper;

impl Mapper for QuadrantMapper {
    fn name(&self) -> &'static str {
        "quadrant (paper)"
    }

    fn map(&mut self, qt: &QuadTree) -> Mapping {
        Mapping::new(leaf_identity_assignment(qt))
    }
}

/// Feasible baseline: interior tasks uniformly random within their extent.
#[derive(Debug, Clone)]
pub struct RandomFeasibleMapper {
    rng: DetRng,
}

impl RandomFeasibleMapper {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        RandomFeasibleMapper {
            rng: DetRng::stream(seed, 0x3A9),
        }
    }
}

impl Mapper for RandomFeasibleMapper {
    fn name(&self) -> &'static str {
        "random-feasible"
    }

    fn map(&mut self, qt: &QuadTree) -> Mapping {
        let mut assignment = leaf_identity_assignment(qt);
        for task in qt.graph.tasks() {
            if task.kind == TaskKind::Processing {
                let (origin, side) = qt.extent[task.id];
                assignment[task.id] = GridCoord::new(
                    origin.col + self.rng.bounded_u64(u64::from(side)) as u32,
                    origin.row + self.rng.bounded_u64(u64::from(side)) as u32,
                );
            }
        }
        Mapping::new(assignment)
    }
}

/// Places each interior task at the in-extent cell nearest the centroid of
/// its children's placements (processed bottom-up).
#[derive(Debug, Clone, Copy, Default)]
pub struct CentroidMapper;

impl Mapper for CentroidMapper {
    fn name(&self) -> &'static str {
        "centroid"
    }

    fn map(&mut self, qt: &QuadTree) -> Mapping {
        let mut assignment = leaf_identity_assignment(qt);
        for level in 1..qt.ids_by_level.len() {
            for &t in &qt.ids_by_level[level] {
                let children = qt.graph.producers(t);
                let (sum_c, sum_r) = children.iter().fold((0f64, 0f64), |(c, r), &ch| {
                    (
                        c + f64::from(assignment[ch].col),
                        r + f64::from(assignment[ch].row),
                    )
                });
                let k = children.len() as f64;
                let (origin, side) = qt.extent[t];
                let col = ((sum_c / k).round() as u32).clamp(origin.col, origin.col + side - 1);
                let row = ((sum_r / k).round() as u32).clamp(origin.row, origin.row + side - 1);
                assignment[t] = GridCoord::new(col, row);
            }
        }
        Mapping::new(assignment)
    }
}

/// Simulated annealing over interior placements.
#[derive(Debug, Clone)]
pub struct AnnealingMapper {
    rng: DetRng,
    cost: CostModel,
    iterations: u32,
    /// Weight of the hotspot term relative to total energy; 0 optimizes
    /// total energy only.
    pub hotspot_weight: f64,
}

impl AnnealingMapper {
    /// Seeded constructor with the objective's cost model.
    pub fn new(seed: u64, cost: CostModel, iterations: u32, hotspot_weight: f64) -> Self {
        AnnealingMapper {
            rng: DetRng::stream(seed, 0x51A),
            cost,
            iterations,
            hotspot_weight,
        }
    }

    fn objective(&self, qt: &QuadTree, m: &Mapping) -> f64 {
        let c = MappingCost::evaluate(qt, m, &self.cost);
        c.total_energy + self.hotspot_weight * c.max_node_energy * qt.side as f64
    }
}

impl Mapper for AnnealingMapper {
    fn name(&self) -> &'static str {
        "annealed"
    }

    fn map(&mut self, qt: &QuadTree) -> Mapping {
        let interior: Vec<TaskId> = qt
            .graph
            .tasks()
            .iter()
            .filter(|t| t.kind == TaskKind::Processing)
            .map(|t| t.id)
            .collect();
        let mut current = QuadrantMapper.map(qt);
        if interior.is_empty() {
            return current;
        }
        let mut current_obj = self.objective(qt, &current);
        let mut best = current.clone();
        let mut best_obj = current_obj;
        let t0 = (current_obj / 10.0).max(1.0);

        for i in 0..self.iterations {
            let temp = t0 * (1.0 - f64::from(i) / f64::from(self.iterations)).max(1e-3);
            let t = interior[self.rng.bounded_usize(interior.len())];
            let (origin, side) = qt.extent[t];
            let old = current.node_of(t);
            let candidate = GridCoord::new(
                origin.col + self.rng.bounded_u64(u64::from(side)) as u32,
                origin.row + self.rng.bounded_u64(u64::from(side)) as u32,
            );
            if candidate == old {
                continue;
            }
            current.assign(t, candidate);
            let obj = self.objective(qt, &current);
            let accept =
                obj <= current_obj || self.rng.unit_f64() < (-(obj - current_obj) / temp).exp();
            if accept {
                current_obj = obj;
                if obj < best_obj {
                    best_obj = obj;
                    best = current.clone();
                }
            } else {
                current.assign(t, old);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::check_all;
    use crate::quadtree::quadtree_task_graph;

    fn qt(side: u32) -> QuadTree {
        quadtree_task_graph(side, &|_| 1, &|_| 1)
    }

    #[test]
    fn quadrant_mapping_matches_paper_figure3() {
        // §4.2: root at location 0; level-1 tasks at locations 0, 4, 8, 12.
        let qt = qt(4);
        let m = QuadrantMapper.map(&qt);
        assert_eq!(m.node_of(qt.root()), GridCoord::new(0, 0));
        let locations: Vec<usize> = qt.ids_by_level[1]
            .iter()
            .map(|&t| wsn_core::Hierarchy::new(4).morton_index(m.node_of(t)))
            .collect();
        assert_eq!(locations, vec![0, 4, 8, 12]);
        assert_eq!(check_all(&qt, &m), Vec::new());
    }

    #[test]
    fn all_mappers_produce_feasible_mappings() {
        let qt = qt(8);
        let mut mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(QuadrantMapper),
            Box::new(RandomFeasibleMapper::new(1)),
            Box::new(CentroidMapper),
            Box::new(AnnealingMapper::new(1, CostModel::uniform(), 200, 0.0)),
        ];
        for mapper in &mut mappers {
            let m = mapper.map(&qt);
            assert_eq!(
                check_all(&qt, &m),
                Vec::new(),
                "{} infeasible",
                mapper.name()
            );
            assert_eq!(m.len(), qt.graph.task_count());
        }
    }

    #[test]
    fn quadrant_cost_matches_estimator() {
        // MappingCost on the paper mapping must agree with the closed-form
        // estimator (same model, two independent derivations).
        for side in [2u32, 4, 8] {
            let qt = qt(side);
            let m = QuadrantMapper.map(&qt);
            let c = MappingCost::evaluate(&qt, &m, &CostModel::uniform());
            let e =
                wsn_core::quadtree_merge_estimate(side, &CostModel::uniform(), &|_| 1, &|_| 1, 1);
            assert!(
                (c.total_energy - e.total_energy).abs() < 1e-9,
                "side {side}: {} vs {}",
                c.total_energy,
                e.total_energy
            );
            assert_eq!(c.critical_path_ticks, e.latency_ticks, "side {side}");
        }
    }

    #[test]
    fn centroid_shortens_links_but_misaligns_leaders() {
        let qt = qt(8);
        let quadrant = MappingCost::evaluate(&qt, &QuadrantMapper.map(&qt), &CostModel::uniform());
        let centroid = MappingCost::evaluate(&qt, &CentroidMapper.map(&qt), &CostModel::uniform());
        // Centroid placement cannot be worse on total energy: each parent
        // sits centrally among its children.
        assert!(centroid.total_energy <= quadrant.total_energy);
    }

    #[test]
    fn annealing_no_worse_than_its_start() {
        let qt = qt(8);
        let cost = CostModel::uniform();
        let start = MappingCost::evaluate(&qt, &QuadrantMapper.map(&qt), &cost);
        let mut annealer = AnnealingMapper::new(7, cost, 500, 0.0);
        let annealed = MappingCost::evaluate(&qt, &annealer.map(&qt), &cost);
        assert!(annealed.total_energy <= start.total_energy + 1e-9);
    }

    #[test]
    fn random_mapper_is_deterministic_per_seed() {
        let qt = qt(4);
        let a = RandomFeasibleMapper::new(9).map(&qt);
        let b = RandomFeasibleMapper::new(9).map(&qt);
        assert_eq!(a, b);
        let c = RandomFeasibleMapper::new(10).map(&qt);
        assert_ne!(a, c);
    }

    #[test]
    fn self_colocated_edges_cost_nothing() {
        let qt = qt(2);
        let m = QuadrantMapper.map(&qt);
        // Root sits on leaf 0's node: that edge contributes zero energy.
        let c = MappingCost::evaluate(&qt, &m, &CostModel::uniform());
        // 5 tasks × compute 1 + three remote children (hops 1,1,2) × 2.
        assert!((c.total_energy - (5.0 + 8.0)).abs() < 1e-9);
    }

    #[test]
    fn critical_path_of_trivial_tree_is_zero() {
        let qt = qt(1);
        let m = QuadrantMapper.map(&qt);
        let c = MappingCost::evaluate(&qt, &m, &CostModel::uniform());
        assert_eq!(c.critical_path_ticks, 0);
        assert_eq!(c.total_energy, 1.0);
    }
}
