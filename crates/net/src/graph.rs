//! The unit-disk connectivity graph `G_R = (V_R, E_R)`.
//!
//! §5.1: vertices are sensor nodes; `(i, j) ∈ E_R` iff the Euclidean
//! distance `δ(v_i, v_j) ≤ r`. Neighbor sets `N_{v_i}` are what the runtime
//! protocols may use — a node only ever talks to its radio neighbors.
//!
//! Construction buckets nodes into coarse bins of side `r` so adjacency
//! building is `O(n · k)` in the average local density `k` rather than
//! `O(n²)`.

use crate::geometry::Point;
use std::collections::VecDeque;

/// An immutable unit-disk graph over node positions.
#[derive(Debug, Clone)]
pub struct UnitDiskGraph {
    range: f64,
    /// `targets[offsets[i]..offsets[i + 1]]` are the neighbors of `i`.
    offsets: Vec<usize>,
    targets: Vec<usize>,
    edge_count: usize,
}

impl UnitDiskGraph {
    /// Builds the graph for `positions` and transmission range `range`.
    pub fn build(positions: &[Point], range: f64) -> Self {
        assert!(range > 0.0 && range.is_finite(), "range must be positive");
        let n = positions.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        let mut edge_count = 0;

        if n > 0 {
            // Coarse spatial hash with bin side = range.
            let min_x = positions.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
            let min_y = positions.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
            let bin = |p: Point| -> (i64, i64) {
                (
                    ((p.x - min_x) / range).floor() as i64,
                    ((p.y - min_y) / range).floor() as i64,
                )
            };
            let mut buckets: std::collections::HashMap<(i64, i64), Vec<usize>> =
                std::collections::HashMap::new();
            for (i, &p) in positions.iter().enumerate() {
                buckets.entry(bin(p)).or_default().push(i);
            }
            let range_sq = range * range;
            for (i, &p) in positions.iter().enumerate() {
                let (bx, by) = bin(p);
                let start = targets.len();
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let Some(cands) = buckets.get(&(bx + dx, by + dy)) else {
                            continue;
                        };
                        for &j in cands {
                            if j != i && p.distance_sq(positions[j]) <= range_sq {
                                targets.push(j);
                                edge_count += usize::from(j > i);
                            }
                        }
                    }
                }
                targets[start..].sort_unstable();
                offsets.push(targets.len());
            }
            targets.shrink_to_fit();
        }

        UnitDiskGraph {
            range,
            offsets,
            targets,
            edge_count,
        }
    }

    /// Transmission range `r`.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Radio neighbors of `i`, sorted ascending.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Degree of `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Whether `i` and `j` are radio neighbors.
    pub fn are_neighbors(&self, i: usize, j: usize) -> bool {
        self.neighbors(i).binary_search(&j).is_ok()
    }

    /// BFS hop distance from `src` to every vertex (`None` = unreachable).
    pub fn hop_distances(&self, src: usize) -> Vec<Option<u32>> {
        self.hop_distances_within(src, |_| true)
    }

    /// BFS hop distances restricted to vertices satisfying `allowed`
    /// (used for intra-cell paths: routes may not leave the cell).
    pub fn hop_distances_within<F: Fn(usize) -> bool>(
        &self,
        src: usize,
        allowed: F,
    ) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.node_count()];
        if !allowed(src) {
            return dist;
        }
        dist[src] = Some(0);
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued vertex must have a distance");
            for &v in self.neighbors(u) {
                if dist[v].is_none() && allowed(v) {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether the whole graph is connected (vacuously true when empty).
    pub fn is_connected(&self) -> bool {
        match self.node_count() {
            0 => true,
            _ => self.hop_distances(0).iter().all(Option::is_some),
        }
    }

    /// Whether the subgraph induced by `subset` is connected. The paper
    /// assumes this per cell ("the subgraph of G_R induced by nodes in
    /// E(v_{ij}) is connected").
    pub fn subset_connected(&self, subset: &[usize]) -> bool {
        match subset.first() {
            None => true,
            Some(&start) => {
                let member = vec_to_mask(subset, self.node_count());
                let dist = self.hop_distances_within(start, |v| member[v]);
                subset.iter().all(|&v| dist[v].is_some())
            }
        }
    }

    /// The longest shortest path (in hops) between any two vertices of
    /// `subset`, staying inside `subset`. `None` if the subset is
    /// disconnected or empty. §5.1 bounds the topology-emulation latency by
    /// the maximum of this quantity over all cells.
    pub fn subset_diameter(&self, subset: &[usize]) -> Option<u32> {
        if subset.is_empty() {
            return None;
        }
        let member = vec_to_mask(subset, self.node_count());
        let mut diameter = 0;
        for &s in subset {
            let dist = self.hop_distances_within(s, |v| member[v]);
            for &v in subset {
                diameter = diameter.max(dist[v]?);
            }
        }
        Some(diameter)
    }

    /// Connected components as sorted vertex lists, largest first.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::from([start]);
            seen[start] = true;
            while let Some(u) = queue.pop_front() {
                comp.push(u);
                for &v in self.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        queue.push_back(v);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps.sort_by_key(|c| std::cmp::Reverse(c.len()));
        comps
    }
}

fn vec_to_mask(subset: &[usize], n: usize) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &v in subset {
        mask[v] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, spacing: f64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect()
    }

    #[test]
    fn line_graph_adjacency() {
        let g = UnitDiskGraph::build(&line(5, 1.0), 1.0);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert!(g.are_neighbors(3, 4));
        assert!(!g.are_neighbors(0, 2));
    }

    #[test]
    fn range_is_inclusive() {
        let pts = [Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let g = UnitDiskGraph::build(&pts, 2.0);
        assert!(g.are_neighbors(0, 1));
        let g2 = UnitDiskGraph::build(&pts, 1.999);
        assert!(!g2.are_neighbors(0, 1));
    }

    #[test]
    fn hop_distances_on_line() {
        let g = UnitDiskGraph::build(&line(6, 1.0), 1.0);
        let d = g.hop_distances(0);
        assert_eq!(
            d,
            vec![Some(0), Some(1), Some(2), Some(3), Some(4), Some(5)]
        );
    }

    #[test]
    fn disconnected_components() {
        let mut pts = line(3, 1.0);
        pts.extend([Point::new(100.0, 0.0), Point::new(101.0, 0.0)]);
        let g = UnitDiskGraph::build(&pts, 1.0);
        assert!(!g.is_connected());
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4]);
        assert_eq!(g.hop_distances(0)[3], None);
    }

    #[test]
    fn subset_connectivity_and_diameter() {
        let g = UnitDiskGraph::build(&line(6, 1.0), 1.0);
        assert!(g.subset_connected(&[1, 2, 3]));
        assert!(
            !g.subset_connected(&[0, 2]),
            "0 and 2 only connect through 1"
        );
        assert_eq!(g.subset_diameter(&[1, 2, 3]), Some(2));
        assert_eq!(g.subset_diameter(&[0, 2]), None);
        assert_eq!(g.subset_diameter(&[4]), Some(0));
        assert_eq!(g.subset_diameter(&[]), None);
        assert!(g.subset_connected(&[]));
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = UnitDiskGraph::build(&[], 1.0);
        assert!(g.is_connected());
        assert_eq!(g.components().len(), 0);
    }

    #[test]
    fn dense_clique() {
        let pts: Vec<Point> = (0..8).map(|i| Point::new(i as f64 * 0.1, 0.0)).collect();
        let g = UnitDiskGraph::build(&pts, 10.0);
        assert_eq!(g.edge_count(), 8 * 7 / 2);
        for i in 0..8 {
            assert_eq!(g.degree(i), 7);
        }
        assert_eq!(g.subset_diameter(&(0..8).collect::<Vec<_>>()), Some(1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_range_panics() {
        UnitDiskGraph::build(&[], 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
        prop::collection::vec((0.0f64..50.0, 0.0f64..50.0), 0..max)
            .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
    }

    proptest! {
        /// Bucketed construction agrees with the naive O(n²) definition.
        #[test]
        fn matches_naive_adjacency(pts in arb_points(60), range in 0.5f64..30.0) {
            let g = UnitDiskGraph::build(&pts, range);
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    if i == j { continue; }
                    let expect = pts[i].distance(pts[j]) <= range;
                    prop_assert_eq!(g.are_neighbors(i, j), expect, "pair ({}, {})", i, j);
                }
            }
        }

        /// Adjacency is symmetric and irreflexive; edge count matches.
        #[test]
        fn adjacency_invariants(pts in arb_points(80), range in 0.5f64..20.0) {
            let g = UnitDiskGraph::build(&pts, range);
            let mut half_edges = 0;
            for i in 0..g.node_count() {
                prop_assert!(!g.neighbors(i).contains(&i));
                for &j in g.neighbors(i) {
                    prop_assert!(g.neighbors(j).contains(&i));
                }
                half_edges += g.degree(i);
            }
            prop_assert_eq!(half_edges, 2 * g.edge_count());
        }

        /// Components partition the vertex set.
        #[test]
        fn components_partition(pts in arb_points(60), range in 0.5f64..10.0) {
            let g = UnitDiskGraph::build(&pts, range);
            let mut all: Vec<usize> = g.components().into_iter().flatten().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..pts.len()).collect::<Vec<_>>());
        }
    }
}
