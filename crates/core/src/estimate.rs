//! First-order analytical performance estimation.
//!
//! §2: the virtual architecture must "facilitate rapid first-order
//! performance estimation of algorithms" so the end user can, e.g.,
//! "decide if a divide and conquer approach is better than a centralized
//! approach". These closed forms are that facility, for the two algorithms
//! of the case study. They are *exact* under the virtual machine's
//! semantics (dimension-order routing, store-and-forward, no contention),
//! which is what EXP-9 verifies; the emulated physical network then adds
//! protocol overheads the estimate deliberately ignores.

use crate::cost::CostModel;
use crate::grid::{GridCoord, VirtualGrid};
use crate::groups::Hierarchy;

/// A first-order performance estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Critical-path latency in ticks.
    pub latency_ticks: u64,
    /// Network-wide energy.
    pub total_energy: f64,
    /// Application messages (self-deliveries excluded).
    pub messages: u64,
    /// Data units moved over at least one hop.
    pub data_units: u64,
}

/// Estimates the divide-and-conquer quad-tree merge (§4.1) on a
/// `side × side` grid (`side` a power of two).
///
/// * `payload_units(level)` — size of the boundary summary describing a
///   level-`level` extent (a `2^level × 2^level` block);
/// * `merge_compute_units(level)` — computation charged by a level-`level`
///   merge (level ≥ 1);
/// * `leaf_compute_units` — computation charged by each leaf to determine
///   its feature status.
///
/// Derivation: at level `l ∈ 1..=log₂ side`, the grid holds
/// `(side/2^l)²` merges. With quadrant side `q = 2^(l−1)`, the NW child
/// leader *is* the parent (free self-delivery); the NE and SW child
/// leaders are `q` hops away; the SE child leader is `2q` hops away. Each
/// merge therefore moves `payload_units(l−1)` over `q + q + 2q = 4q` hops
/// total, and its critical path waits for the farthest child (`2q` hops).
pub fn quadtree_merge_estimate(
    side: u32,
    cost: &CostModel,
    payload_units: &dyn Fn(u8) -> u64,
    merge_compute_units: &dyn Fn(u8) -> u64,
    leaf_compute_units: u64,
) -> Estimate {
    let hierarchy = Hierarchy::new(side); // validates power of two
    let p = hierarchy.max_level();
    let n = u64::from(side) * u64::from(side);

    let mut latency = 0u64;
    let mut energy = n as f64 * cost.compute(leaf_compute_units);
    let mut messages = 0u64;
    let mut data_units = 0u64;

    for level in 1..=p {
        let q = 1u32 << (level - 1);
        let merges = (u64::from(side) >> level).pow(2);
        let units = payload_units(level - 1);
        // Two children at q hops, one at 2q hops; NW child is local.
        energy += merges as f64
            * (2.0 * cost.path_energy(q, units)
                + cost.path_energy(2 * q, units)
                + cost.compute(merge_compute_units(level)));
        messages += merges * 3;
        data_units += merges * 3 * units;
        latency += cost.path_ticks(2 * q, units);
    }

    Estimate {
        latency_ticks: latency,
        total_energy: energy,
        messages,
        data_units,
    }
}

/// Estimates the centralized baseline: every node computes its reading
/// (`leaf_compute_units`), ships it (`reading_units` data units) straight
/// to the sink at the origin, and the sink computes
/// `sink_compute_units_per_reading` on each of the `side²` readings.
///
/// No contention is modeled (the cost model has none), so latency is the
/// farthest node's path: `2(side−1)` hops.
pub fn centralized_collection_estimate(
    side: u32,
    cost: &CostModel,
    reading_units: u64,
    leaf_compute_units: u64,
    sink_compute_units_per_reading: u64,
) -> Estimate {
    let grid = VirtualGrid::new(side);
    let sink = GridCoord::new(0, 0);
    let mut energy = 0.0;
    let mut messages = 0u64;
    let mut data_units = 0u64;
    for c in grid.nodes() {
        energy += cost.compute(leaf_compute_units) + cost.compute(sink_compute_units_per_reading);
        if c == sink {
            continue;
        }
        let hops = grid.hops(c, sink);
        energy += cost.path_energy(hops, reading_units);
        messages += 1;
        data_units += reading_units;
    }
    let max_hops = 2 * (side - 1);
    Estimate {
        latency_ticks: cost.path_ticks(max_hops, reading_units),
        total_energy: energy,
        messages,
        data_units,
    }
}

/// The paper's message-size model for the boundary summary of a *full*
/// level-`level` extent (the worst case, used by the analytic estimates
/// and the cost certifier's payload upper bound): one framing unit plus
/// one per border cell of the `2^level × 2^level` block — `4·2^level − 3`
/// for `level ≥ 1`, two units for a single cell.
pub fn full_boundary_units(level: u8) -> u64 {
    if level == 0 {
        2
    } else {
        4 * (1u64 << level) - 3
    }
}

/// Mean and maximum follower→leader hop distance inside a level-`level`
/// block (§4.2's group-communication cost): with block side `b = 2^level`,
/// the mean of `col + row` over the block is `b − 1` and the maximum is
/// `2(b − 1)`.
///
/// ```
/// assert_eq!(wsn_core::follower_to_leader_hops(2), (3.0, 6));
/// ```
pub fn follower_to_leader_hops(level: u8) -> (f64, u32) {
    let b = 1u32 << level;
    (f64::from(b - 1), 2 * (b - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_payload(_level: u8) -> u64 {
        1
    }

    #[test]
    fn quadtree_side2_by_hand() {
        // side=2: one merge at level 1, q=1: children at 1,1,2 hops, 1 unit.
        let e = quadtree_merge_estimate(2, &CostModel::uniform(), &unit_payload, &|_| 0, 1);
        assert_eq!(e.messages, 3);
        assert_eq!(e.data_units, 3);
        // energy = 4 leaves compute + path: (1+1+2) hops × 2 = 8.
        assert_eq!(e.total_energy, 4.0 + 8.0);
        // latency = farthest child: 2 hops × 1 unit.
        assert_eq!(e.latency_ticks, 2);
    }

    #[test]
    fn quadtree_side4_by_hand() {
        let e = quadtree_merge_estimate(4, &CostModel::uniform(), &unit_payload, &|_| 0, 0);
        // level1: 4 merges × 3 msgs; level2: 1 merge × 3 msgs.
        assert_eq!(e.messages, 15);
        // level1 energy: 4 × (4 hops × 2) = 32; level2: q=2 → 8 hops × 2 = 16.
        assert_eq!(e.total_energy, 48.0);
        // latency: level1 2 ticks + level2 4 ticks.
        assert_eq!(e.latency_ticks, 6);
    }

    #[test]
    fn quadtree_latency_is_o_sqrt_n() {
        // With constant payloads, latency = Σ 2^l = 2(side − 1) ∝ √N.
        let cost = CostModel::uniform();
        for p in 1..=6u32 {
            let side = 1 << p;
            let e = quadtree_merge_estimate(side, &cost, &unit_payload, &|_| 0, 0);
            assert_eq!(e.latency_ticks, u64::from(2 * (side - 1)));
        }
    }

    #[test]
    fn centralized_side2_by_hand() {
        let e = centralized_collection_estimate(2, &CostModel::uniform(), 1, 0, 0);
        // Nodes at (1,0),(0,1): 1 hop; (1,1): 2 hops. Energy 2×(1+1+2)=8.
        assert_eq!(e.total_energy, 8.0);
        assert_eq!(e.messages, 3);
        assert_eq!(e.latency_ticks, 2);
    }

    #[test]
    fn centralized_energy_grows_superlinearly() {
        let cost = CostModel::uniform();
        let e8 = centralized_collection_estimate(8, &cost, 1, 0, 0);
        let e16 = centralized_collection_estimate(16, &cost, 1, 0, 0);
        // Energy ∝ N·√N: quadrupling N scales energy by ~8.
        let ratio = e16.total_energy / e8.total_energy;
        assert!((ratio - 8.0).abs() < 0.6, "ratio {ratio}");
    }

    #[test]
    fn dandc_beats_centralized_at_scale_with_constant_summaries() {
        // The design-flow decision the paper cites: for large N, in-network
        // merging wins on total energy.
        let cost = CostModel::uniform();
        let side = 32;
        let dandc = quadtree_merge_estimate(side, &cost, &|_| 4, &|_| 4, 1);
        let central = centralized_collection_estimate(side, &cost, 1, 1, 1);
        assert!(
            dandc.total_energy < central.total_energy,
            "D&C {} vs centralized {}",
            dandc.total_energy,
            central.total_energy
        );
    }

    #[test]
    fn follower_hops_formula() {
        assert_eq!(follower_to_leader_hops(0), (0.0, 0));
        assert_eq!(follower_to_leader_hops(1), (1.0, 2));
        assert_eq!(follower_to_leader_hops(3), (7.0, 14));
    }

    #[test]
    fn follower_hops_mean_matches_enumeration() {
        for level in 1..=4u8 {
            let b = 1u32 << level;
            let mut sum = 0u64;
            for row in 0..b {
                for col in 0..b {
                    sum += u64::from(col + row);
                }
            }
            let mean = sum as f64 / f64::from(b * b);
            let (formula, max) = follower_to_leader_hops(level);
            assert!((mean - formula).abs() < 1e-12, "level {level}");
            assert_eq!(max, 2 * (b - 1));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        quadtree_merge_estimate(6, &CostModel::uniform(), &unit_payload, &|_| 0, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected_even_when_even() {
        quadtree_merge_estimate(12, &CostModel::uniform(), &unit_payload, &|_| 0, 1);
    }

    #[test]
    fn side_one_grid_is_a_single_leaf() {
        // Depth 0: no merges, no messages, no latency — only the one
        // leaf's compute charge.
        let e = quadtree_merge_estimate(1, &CostModel::uniform(), &unit_payload, &|_| 7, 3);
        assert_eq!(e.messages, 0);
        assert_eq!(e.data_units, 0);
        assert_eq!(e.latency_ticks, 0);
        assert_eq!(e.total_energy, 3.0);
        let c = centralized_collection_estimate(1, &CostModel::uniform(), 5, 3, 2);
        assert_eq!(c.messages, 0);
        assert_eq!(c.total_energy, 5.0); // leaf + sink compute, no paths
        assert_eq!(c.latency_ticks, 0);
    }

    #[test]
    fn zero_cost_model_still_counts_steps() {
        // All-zero coefficients: energy vanishes, but hop_ticks floors at
        // one tick per hop, so latency degrades to the §4.1 *step* count
        // 2(side − 1) rather than to zero.
        let zero = CostModel {
            tx_energy: 0.0,
            rx_energy: 0.0,
            compute_energy: 0.0,
            ticks_per_unit: 0,
        };
        for side in [2u32, 4, 8] {
            let e = quadtree_merge_estimate(side, &zero, &full_boundary_units, &|_| 1, 1);
            assert_eq!(e.total_energy, 0.0, "side {side}");
            assert_eq!(e.latency_ticks, u64::from(2 * (side - 1)), "side {side}");
            assert!(e.messages > 0);
        }
    }

    #[test]
    fn full_boundary_units_by_hand() {
        assert_eq!(full_boundary_units(0), 2);
        assert_eq!(full_boundary_units(1), 5); // 2×2 block: 4 border + 1
        assert_eq!(full_boundary_units(2), 13); // 4×4 block: 12 border + 1
        assert_eq!(full_boundary_units(3), 29);
    }

    #[test]
    fn quadtree_estimate_is_monotone_in_side() {
        // Property: under the paper's payload model every estimated
        // dimension strictly grows with the grid side (more levels, more
        // merges, longer critical path).
        let cost = CostModel::uniform();
        let estimates: Vec<Estimate> = (1..=7u32)
            .map(|p| {
                quadtree_merge_estimate(
                    1 << p,
                    &cost,
                    &full_boundary_units,
                    &|l| 4 * full_boundary_units(l - 1),
                    1,
                )
            })
            .collect();
        for w in estimates.windows(2) {
            assert!(w[1].latency_ticks > w[0].latency_ticks, "{w:?}");
            assert!(w[1].total_energy > w[0].total_energy, "{w:?}");
            assert!(w[1].messages > w[0].messages, "{w:?}");
            assert!(w[1].data_units > w[0].data_units, "{w:?}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Monotonicity holds for *any* positive cost model, not just the
        /// uniform one: scaling coefficients cannot reorder sides.
        #[test]
        fn monotone_in_side_for_random_cost_models(
            tx in 0.1f64..10.0,
            rx in 0.1f64..10.0,
            compute in 0.0f64..10.0,
            tpu in 1u64..5,
            p in 1u32..6,
        ) {
            let cost = CostModel {
                tx_energy: tx,
                rx_energy: rx,
                compute_energy: compute,
                ticks_per_unit: tpu,
            };
            let small = quadtree_merge_estimate(
                1 << p, &cost, &full_boundary_units, &|_| 1, 1);
            let large = quadtree_merge_estimate(
                1 << (p + 1), &cost, &full_boundary_units, &|_| 1, 1);
            prop_assert!(large.latency_ticks > small.latency_ticks);
            prop_assert!(large.total_energy > small.total_energy);
            prop_assert!(large.messages > small.messages);
        }
    }
}
