//! Boundary summaries of feature regions within a square extent, and the
//! 4-way quadrant merge at the heart of the divide-and-conquer algorithm.
//!
//! §4.1: "At each level of hierarchy, a node receives data from its four
//! children, containing a description of the boundaries of feature regions
//! contained within the sender's geographic oversight. The boundary
//! information also indicates whether the feature region(s) lie entirely
//! within that extent, or information from neighboring extents is required
//! to identify the true boundary."
//!
//! Following Alnuweiri & Prasanna's parallel component labeling (the
//! paper's reference \[3\]), a summary of an `s × s` extent stores:
//!
//! * the feature status and region class of each of the `4s − 4` border
//!   cells (classes are the connected components of the extent restricted
//!   to classes that touch the border — the "open" regions whose true
//!   boundary may continue outside);
//! * the area of each open class;
//! * the count and areas of regions already *closed* (entirely interior —
//!   no further information can change them).
//!
//! Merging four child summaries unions classes across the two internal
//! seams, recomputes the border of the doubled extent, and closes every
//! class that no longer touches it. A summary's size is `O(s)` — that
//! compression is exactly why in-network merging beats shipping raw maps.

use crate::field::FeatureMap;
use std::collections::HashMap;
use wsn_core::GridCoord;

/// A boundary summary of the feature regions in one square extent.
///
/// Equality is structural and summaries are kept in canonical form
/// (classes numbered by first appearance along the border walk, closed
/// areas sorted ascending), so two summaries of the same underlying map
/// compare equal regardless of how they were computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundarySummary {
    /// North-west corner of the extent (absolute grid coordinates).
    pub origin: GridCoord,
    /// Extent side length.
    pub side: u32,
    /// Class of each border cell, clockwise from the NW corner
    /// (`None` = not a feature cell).
    border: Vec<Option<u32>>,
    /// Area of each open class, indexed by class.
    open_areas: Vec<u64>,
    /// Areas of closed (entirely interior) regions, ascending.
    closed_areas: Vec<u64>,
}

/// Relative coordinates of the perimeter cells of an `s × s` extent,
/// clockwise from the NW corner.
pub(crate) fn perimeter_cells(side: u32) -> Vec<(u32, u32)> {
    assert!(side > 0);
    if side == 1 {
        return vec![(0, 0)];
    }
    let s = side;
    let mut cells = Vec::with_capacity((4 * s - 4) as usize);
    for col in 0..s {
        cells.push((col, 0));
    }
    for row in 1..s {
        cells.push((s - 1, row));
    }
    for col in (0..s - 1).rev() {
        cells.push((col, s - 1));
    }
    for row in (1..s - 1).rev() {
        cells.push((0, row));
    }
    cells
}

impl BoundarySummary {
    /// The level-0 summary of a single cell.
    pub fn leaf(origin: GridCoord, is_feature: bool) -> Self {
        if is_feature {
            BoundarySummary {
                origin,
                side: 1,
                border: vec![Some(0)],
                open_areas: vec![1],
                closed_areas: vec![],
            }
        } else {
            BoundarySummary {
                origin,
                side: 1,
                border: vec![None],
                open_areas: vec![],
                closed_areas: vec![],
            }
        }
    }

    /// Reference (specification) construction: summarizes the extent
    /// directly from the full feature map. The distributed merge must
    /// produce exactly this (see the property tests).
    pub fn from_feature_map(map: &FeatureMap, origin: GridCoord, side: u32) -> Self {
        assert!(origin.col + side <= map.side() && origin.row + side <= map.side());
        // Label components within the extent (4-connectivity, extent-local).
        let idx = |col: u32, row: u32| (row * side + col) as usize;
        let mut comp: Vec<Option<u32>> = vec![None; (side * side) as usize];
        let mut comp_area: Vec<u64> = Vec::new();
        for row in 0..side {
            for col in 0..side {
                let abs = GridCoord::new(origin.col + col, origin.row + row);
                if !map.is_feature(abs) || comp[idx(col, row)].is_some() {
                    continue;
                }
                let id = comp_area.len() as u32;
                comp_area.push(0);
                let mut queue = std::collections::VecDeque::from([(col, row)]);
                comp[idx(col, row)] = Some(id);
                while let Some((c, r)) = queue.pop_front() {
                    comp_area[id as usize] += 1;
                    let neighbors = [
                        (c.wrapping_sub(1), r),
                        (c + 1, r),
                        (c, r.wrapping_sub(1)),
                        (c, r + 1),
                    ];
                    for (nc, nr) in neighbors {
                        if nc >= side || nr >= side {
                            continue;
                        }
                        let abs = GridCoord::new(origin.col + nc, origin.row + nr);
                        if map.is_feature(abs) && comp[idx(nc, nr)].is_none() {
                            comp[idx(nc, nr)] = Some(id);
                            queue.push_back((nc, nr));
                        }
                    }
                }
            }
        }
        // Classes: components touching the perimeter, numbered by first
        // appearance along the walk.
        let perim = perimeter_cells(side);
        let mut class_of_comp: HashMap<u32, u32> = HashMap::new();
        let mut open_areas = Vec::new();
        let mut border = Vec::with_capacity(perim.len());
        for &(c, r) in &perim {
            let entry = comp[idx(c, r)].map(|comp_id| {
                *class_of_comp.entry(comp_id).or_insert_with(|| {
                    open_areas.push(comp_area[comp_id as usize]);
                    (open_areas.len() - 1) as u32
                })
            });
            border.push(entry);
        }
        // Closed: components not touching the perimeter.
        let mut closed_areas: Vec<u64> = (0..comp_area.len() as u32)
            .filter(|id| !class_of_comp.contains_key(id))
            .map(|id| comp_area[id as usize])
            .collect();
        closed_areas.sort_unstable();
        BoundarySummary {
            origin,
            side,
            border,
            open_areas,
            closed_areas,
        }
    }

    /// Number of open classes (regions whose boundary may continue outside
    /// this extent).
    pub fn open_class_count(&self) -> usize {
        self.open_areas.len()
    }

    /// Number of closed (entirely interior) regions.
    pub fn closed_region_count(&self) -> usize {
        self.closed_areas.len()
    }

    /// Areas of the closed regions, ascending.
    pub fn closed_areas(&self) -> &[u64] {
        &self.closed_areas
    }

    /// Areas of the open classes, by class id.
    pub fn open_areas(&self) -> &[u64] {
        &self.open_areas
    }

    /// Class of each border cell, clockwise from the NW corner (`None` =
    /// not a feature cell) — the border walk the wire codec serializes.
    pub fn border(&self) -> &[Option<u32>] {
        &self.border
    }

    /// Reassembles a summary from its wire-decoded parts. The parts must
    /// come from [`Self::border`]/[`Self::open_areas`]/[`Self::closed_areas`]
    /// of a canonical summary — the constructor checks the structural
    /// invariants (border length matches the perimeter, class ids index
    /// `open_areas`) and panics otherwise, so a corrupted frame fails loud
    /// rather than yielding a silently wrong summary.
    pub fn from_wire_parts(
        origin: GridCoord,
        side: u32,
        border: Vec<Option<u32>>,
        open_areas: Vec<u64>,
        closed_areas: Vec<u64>,
    ) -> Self {
        assert_eq!(
            border.len(),
            perimeter_cells(side).len(),
            "border walk length does not match the extent perimeter"
        );
        assert!(
            border
                .iter()
                .flatten()
                .all(|&class| (class as usize) < open_areas.len()),
            "border class id out of range"
        );
        BoundarySummary {
            origin,
            side,
            border,
            open_areas,
            closed_areas,
        }
    }

    /// Total regions this summary accounts for, treating each open class
    /// as one region — exact at the root (where nothing lies outside) and
    /// a lower-bound elsewhere.
    pub fn region_count(&self) -> usize {
        self.open_areas.len() + self.closed_areas.len()
    }

    /// Total feature area covered.
    pub fn feature_area(&self) -> u64 {
        self.open_areas.iter().sum::<u64>() + self.closed_areas.iter().sum::<u64>()
    }

    /// For each open class, the absolute coordinates of its cells on this
    /// extent's perimeter, in border-walk order — the "graphical
    /// delineation of features" (§3.1) the root can hand to a
    /// visualization client.
    pub fn open_region_border_cells(&self) -> Vec<Vec<GridCoord>> {
        let mut out = vec![Vec::new(); self.open_areas.len()];
        for (&(c, r), entry) in perimeter_cells(self.side).iter().zip(&self.border) {
            if let Some(class) = entry {
                out[*class as usize].push(GridCoord::new(self.origin.col + c, self.origin.row + r));
            }
        }
        out
    }

    /// The class at an absolute grid coordinate, which must lie on this
    /// extent's perimeter.
    pub fn class_at(&self, abs: GridCoord) -> Option<u32> {
        let col = abs
            .col
            .checked_sub(self.origin.col)
            .expect("west of extent");
        let row = abs
            .row
            .checked_sub(self.origin.row)
            .expect("north of extent");
        assert!(col < self.side && row < self.side, "{abs:?} outside extent");
        let perim = perimeter_cells(self.side);
        let idx = perim
            .iter()
            .position(|&(c, r)| c == col && r == row)
            .unwrap_or_else(|| panic!("{abs:?} is interior to the extent"));
        self.border[idx]
    }

    /// Message size in cost-model data units: one unit of framing, one per
    /// feature border cell (boundary description), one per closed region
    /// (count-and-area record). This is the `O(s)` compression that makes
    /// the divide-and-conquer energy-efficient.
    pub fn units(&self) -> u64 {
        1 + self.border.iter().flatten().count() as u64 + self.closed_areas.len() as u64
    }
}

struct Dsu {
    parent: Vec<u32>,
    area: Vec<u64>,
}

impl Dsu {
    fn new(areas: Vec<u64>) -> Self {
        Dsu {
            parent: (0..areas.len() as u32).collect(),
            area: areas,
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let p = self.parent[x as usize];
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent[x as usize] = root;
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
            self.area[ra as usize] += self.area[rb as usize];
        }
    }
}

/// Merges the four summaries of an extent's quadrants (NW, NE, SW, SE
/// order, as produced by [`wsn_core::Hierarchy::children`]) into the
/// summary of the doubled extent.
///
/// ```
/// use wsn_core::GridCoord;
/// use wsn_topoquery::{merge_four, BoundarySummary};
///
/// // Two adjacent feature cells fuse into one region across the seam.
/// let merged = merge_four(&[
///     BoundarySummary::leaf(GridCoord::new(0, 0), true),
///     BoundarySummary::leaf(GridCoord::new(1, 0), true),
///     BoundarySummary::leaf(GridCoord::new(0, 1), false),
///     BoundarySummary::leaf(GridCoord::new(1, 1), false),
/// ]);
/// assert_eq!(merged.region_count(), 1);
/// assert_eq!(merged.feature_area(), 2);
/// ```
pub fn merge_four(children: &[BoundarySummary; 4]) -> BoundarySummary {
    let s = children[0].side;
    let o = children[0].origin;
    let expected = [
        o,
        GridCoord::new(o.col + s, o.row),
        GridCoord::new(o.col, o.row + s),
        GridCoord::new(o.col + s, o.row + s),
    ];
    for (child, &want) in children.iter().zip(&expected) {
        assert_eq!(child.side, s, "quadrant sides differ");
        assert_eq!(
            child.origin, want,
            "quadrant origins do not tile the parent"
        );
    }

    // Global class namespace across the four children.
    let mut base = [0u32; 4];
    let mut acc = 0u32;
    for (i, child) in children.iter().enumerate() {
        base[i] = acc;
        acc += child.open_areas.len() as u32;
    }
    let all_areas: Vec<u64> = children
        .iter()
        .flat_map(|c| c.open_areas.iter().copied())
        .collect();
    let mut dsu = Dsu::new(all_areas);

    let class_at = |abs: GridCoord| -> Option<u32> {
        let quadrant = match (abs.col >= o.col + s, abs.row >= o.row + s) {
            (false, false) => 0,
            (true, false) => 1,
            (false, true) => 2,
            (true, true) => 3,
        };
        children[quadrant].class_at(abs).map(|c| c + base[quadrant])
    };

    // Union across the two internal seams (both orientations).
    for k in 0..s {
        let pairs = [
            // Vertical seam, northern half (NW | NE).
            (
                GridCoord::new(o.col + s - 1, o.row + k),
                GridCoord::new(o.col + s, o.row + k),
            ),
            // Vertical seam, southern half (SW | SE).
            (
                GridCoord::new(o.col + s - 1, o.row + s + k),
                GridCoord::new(o.col + s, o.row + s + k),
            ),
            // Horizontal seam, western half (NW / SW).
            (
                GridCoord::new(o.col + k, o.row + s - 1),
                GridCoord::new(o.col + k, o.row + s),
            ),
            // Horizontal seam, eastern half (NE / SE).
            (
                GridCoord::new(o.col + s + k, o.row + s - 1),
                GridCoord::new(o.col + s + k, o.row + s),
            ),
        ];
        for (a, b) in pairs {
            if let (Some(ca), Some(cb)) = (class_at(a), class_at(b)) {
                dsu.union(ca, cb);
            }
        }
    }

    // New border: canonical renumbering by first appearance.
    let side2 = 2 * s;
    let mut border = Vec::with_capacity(if side2 == 1 {
        1
    } else {
        (4 * side2 - 4) as usize
    });
    let mut new_id_of_root: HashMap<u32, u32> = HashMap::new();
    let mut open_areas = Vec::new();
    for (c, r) in perimeter_cells(side2) {
        let abs = GridCoord::new(o.col + c, o.row + r);
        let entry = class_at(abs).map(|cls| {
            let root = dsu.find(cls);
            *new_id_of_root.entry(root).or_insert_with(|| {
                open_areas.push(dsu.area[root as usize]);
                (open_areas.len() - 1) as u32
            })
        });
        border.push(entry);
    }

    // Closed regions: inherited ones plus every class root that fell off
    // the border.
    let mut closed_areas: Vec<u64> = children
        .iter()
        .flat_map(|c| c.closed_areas.iter().copied())
        .collect();
    let mut seen_roots = std::collections::HashSet::new();
    for cls in 0..dsu.parent.len() as u32 {
        let root = dsu.find(cls);
        if seen_roots.insert(root) && !new_id_of_root.contains_key(&root) {
            closed_areas.push(dsu.area[root as usize]);
        }
    }
    closed_areas.sort_unstable();

    BoundarySummary {
        origin: o,
        side: side2,
        border,
        open_areas,
        closed_areas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FeatureMap;
    use crate::regions::label_regions;

    fn map_of(rows: &[&str]) -> FeatureMap {
        let side = rows.len() as u32;
        let rows: Vec<Vec<bool>> = rows
            .iter()
            .map(|r| r.chars().map(|c| c == '#').collect())
            .collect();
        FeatureMap::from_fn(side, move |c| rows[c.row as usize][c.col as usize])
    }

    fn merge_tree(map: &FeatureMap) -> BoundarySummary {
        // Build the summary bottom-up exactly as the network would.
        fn recurse(map: &FeatureMap, origin: GridCoord, side: u32) -> BoundarySummary {
            if side == 1 {
                return BoundarySummary::leaf(origin, map.is_feature(origin));
            }
            let h = side / 2;
            let children = [
                recurse(map, origin, h),
                recurse(map, GridCoord::new(origin.col + h, origin.row), h),
                recurse(map, GridCoord::new(origin.col, origin.row + h), h),
                recurse(map, GridCoord::new(origin.col + h, origin.row + h), h),
            ];
            merge_four(&children)
        }
        recurse(map, GridCoord::new(0, 0), map.side())
    }

    #[test]
    fn perimeter_enumeration() {
        assert_eq!(perimeter_cells(1), vec![(0, 0)]);
        assert_eq!(perimeter_cells(2), vec![(0, 0), (1, 0), (1, 1), (0, 1)]);
        let p3 = perimeter_cells(3);
        assert_eq!(p3.len(), 8);
        assert_eq!(p3[0], (0, 0));
        assert_eq!(p3[2], (2, 0));
        assert_eq!(p3[4], (2, 2));
        assert_eq!(p3[6], (0, 2));
        assert_eq!(
            p3.len(),
            p3.iter().collect::<std::collections::HashSet<_>>().len()
        );
        assert_eq!(perimeter_cells(8).len(), 28);
    }

    #[test]
    fn leaf_summaries() {
        let f = BoundarySummary::leaf(GridCoord::new(2, 3), true);
        assert_eq!(f.region_count(), 1);
        assert_eq!(f.feature_area(), 1);
        assert_eq!(f.class_at(GridCoord::new(2, 3)), Some(0));
        assert_eq!(f.units(), 2);
        let e = BoundarySummary::leaf(GridCoord::new(0, 0), false);
        assert_eq!(e.region_count(), 0);
        assert_eq!(e.units(), 1);
    }

    #[test]
    fn merge_connects_across_seams() {
        // Two feature cells adjacent across the vertical seam: one region.
        let map = map_of(&["##", ".."]);
        let root = merge_tree(&map);
        assert_eq!(root.region_count(), 1);
        assert_eq!(root.feature_area(), 2);
        assert_eq!(root.closed_region_count(), 0);
    }

    #[test]
    fn merge_keeps_separate_regions_separate() {
        let map = map_of(&["#.", ".#"]);
        let root = merge_tree(&map);
        assert_eq!(root.region_count(), 2, "diagonal cells stay distinct");
    }

    #[test]
    fn interior_region_closes() {
        // A single feature cell in the middle of an 4×4: closed at the root.
        let map = map_of(&["....", ".#..", "....", "...."]);
        let root = merge_tree(&map);
        assert_eq!(root.region_count(), 1);
        assert_eq!(root.closed_region_count(), 1);
        assert_eq!(root.closed_areas(), &[1]);
        assert_eq!(root.open_class_count(), 0);
    }

    #[test]
    fn ring_region_stays_open_until_it_must() {
        // A ring touching the outer border stays open at the root.
        let map = map_of(&["####", "#..#", "#..#", "####"]);
        let root = merge_tree(&map);
        assert_eq!(root.region_count(), 1);
        assert_eq!(root.open_class_count(), 1);
        assert_eq!(root.feature_area(), 12);
    }

    #[test]
    fn u_shape_unifies_through_multiple_seams() {
        let map = map_of(&["#..#", "#..#", "#..#", "####"]);
        let root = merge_tree(&map);
        assert_eq!(root.region_count(), 1);
        assert_eq!(root.feature_area(), 10);
    }

    #[test]
    fn merge_matches_reference_construction() {
        let map = map_of(&["##.#", ".#..", "#.##", "#..#"]);
        let merged = merge_tree(&map);
        let direct = BoundarySummary::from_feature_map(&map, GridCoord::new(0, 0), 4);
        assert_eq!(merged, direct);
    }

    #[test]
    fn root_count_matches_ground_truth() {
        let map = map_of(&[
            "#.#.#.#.", "########", "........", "#......#", "#......#", "........", "##.##.##",
            "#..#...#",
        ]);
        let root = merge_tree(&map);
        let truth = label_regions(&map);
        assert_eq!(root.region_count(), truth.region_count());
        assert_eq!(root.feature_area() as usize, map.feature_count());
    }

    #[test]
    fn units_scale_with_boundary_not_area() {
        // Full 8×8 block: 28 border feature cells, 0 closed.
        let full = map_of(&["########"; 8]);
        let root = merge_tree(&full);
        assert_eq!(root.units(), 1 + 28);
        // Much smaller than shipping the 64-cell map.
        assert!(root.units() < 64);
    }

    #[test]
    fn fully_covered_extent_costs_exactly_the_certified_payload_ceiling() {
        // The symbolic cost certifier's payload ceiling
        // (`wsn_core::full_boundary_units`) claims a fully-featured
        // 2^l × 2^l extent summarizes to 4·2^l − 3 units (2 at l = 0).
        // The real summary must agree, or every certified upper bound
        // built on it is fiction.
        for level in 0u8..=4 {
            let side = 1usize << level;
            let row = "#".repeat(side);
            let rows: Vec<&str> = (0..side).map(|_| row.as_str()).collect();
            let root = merge_tree(&map_of(&rows));
            assert_eq!(
                root.units(),
                wsn_core::full_boundary_units(level),
                "level {level}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "quadrant origins")]
    fn mismatched_quadrants_panic() {
        let a = BoundarySummary::leaf(GridCoord::new(0, 0), false);
        let b = BoundarySummary::leaf(GridCoord::new(5, 0), false);
        let c = BoundarySummary::leaf(GridCoord::new(0, 1), false);
        let d = BoundarySummary::leaf(GridCoord::new(1, 1), false);
        merge_four(&[a, b, c, d]);
    }

    #[test]
    #[should_panic(expected = "interior to the extent")]
    fn class_at_interior_panics() {
        let map = map_of(&["####", "####", "####", "####"]);
        let s = BoundarySummary::from_feature_map(&map, GridCoord::new(0, 0), 4);
        s.class_at(GridCoord::new(1, 1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::field::{Field, FieldSpec};
    use crate::regions::label_regions;
    use proptest::prelude::*;

    fn random_map(side: u32, p: f64, seed: u64) -> FeatureMap {
        Field::generate(
            FieldSpec::RandomCells {
                p,
                hot: 1.0,
                cold: 0.0,
            },
            side,
            seed,
        )
        .threshold(0.5)
    }

    fn merge_tree(map: &FeatureMap) -> BoundarySummary {
        fn recurse(map: &FeatureMap, origin: GridCoord, side: u32) -> BoundarySummary {
            if side == 1 {
                return BoundarySummary::leaf(origin, map.is_feature(origin));
            }
            let h = side / 2;
            let children = [
                recurse(map, origin, h),
                recurse(map, GridCoord::new(origin.col + h, origin.row), h),
                recurse(map, GridCoord::new(origin.col, origin.row + h), h),
                recurse(map, GridCoord::new(origin.col + h, origin.row + h), h),
            ];
            merge_four(&children)
        }
        recurse(map, GridCoord::new(0, 0), map.side())
    }

    proptest! {
        /// THE correctness property: the distributed merge tree computes
        /// exactly the reference summary, at every internal extent.
        #[test]
        fn merge_equals_reference(p in 0.0f64..1.0, seed in 0u64..2000, pow in 1u32..5) {
            let side = 1 << pow;
            let map = random_map(side, p, seed);
            let merged = merge_tree(&map);
            let direct = BoundarySummary::from_feature_map(&map, GridCoord::new(0, 0), side);
            prop_assert_eq!(merged, direct);
        }

        /// At the root, region count and total area equal the centralized
        /// ground truth.
        #[test]
        fn root_agrees_with_ground_truth(p in 0.0f64..1.0, seed in 0u64..2000, pow in 1u32..6) {
            let side = 1 << pow;
            let map = random_map(side, p, seed);
            let root = merge_tree(&map);
            let truth = label_regions(&map);
            prop_assert_eq!(root.region_count(), truth.region_count());
            prop_assert_eq!(root.feature_area() as usize, map.feature_count());
            // Region areas also match as multisets (open ∪ closed).
            let mut got: Vec<u64> = root.open_areas().iter().copied()
                .chain(root.closed_areas().iter().copied()).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = truth.areas().iter().map(|&a| u64::from(a)).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        /// Summary size is O(side), never O(side²).
        #[test]
        fn units_bounded_by_perimeter(p in 0.0f64..1.0, seed in 0u64..500, pow in 1u32..6) {
            let side: u32 = 1 << pow;
            let map = random_map(side, p, seed);
            let root = merge_tree(&map);
            // border ≤ 4s−4 cells; closed regions ≤ (s−2)²/2+1 but we only
            // assert the border term dominates the linear bound claim:
            prop_assert!(root.units() <= 1 + (4 * u64::from(side) - 4) + u64::from(side) * u64::from(side) / 2 + 1);
            prop_assert!(root.open_class_count() as u64 <= 4 * u64::from(side) - 4);
        }
    }
}
