//! Per-node energy accounting.
//!
//! The paper's system-level objective is "minimizing energy consumption of
//! the network as a whole … sometimes even at the expense of increased
//! latency", with *energy balance* called out as a first-class metric
//! (§2). The ledger tracks consumption per node and per cause so the
//! harness can report total energy, hotspots, Jain fairness, and
//! first-node-death lifetime.

/// Why energy was spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyKind {
    /// Radio transmission.
    Tx,
    /// Radio reception.
    Rx,
    /// In-node computation.
    Compute,
}

const KINDS: usize = 3;

fn kind_index(k: EnergyKind) -> usize {
    match k {
        EnergyKind::Tx => 0,
        EnergyKind::Rx => 1,
        EnergyKind::Compute => 2,
    }
}

/// Tracks energy consumption for a fixed population of nodes.
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    /// consumed[node][kind]
    consumed: Vec<[f64; KINDS]>,
    /// Initial budget per node; `None` = unlimited (pure-accounting runs).
    budget: Option<f64>,
}

impl EnergyLedger {
    /// A ledger for `n` nodes with unlimited budgets.
    pub fn unlimited(n: usize) -> Self {
        EnergyLedger {
            consumed: vec![[0.0; KINDS]; n],
            budget: None,
        }
    }

    /// A ledger for `n` nodes that each start with `budget` units.
    pub fn with_budget(n: usize, budget: f64) -> Self {
        assert!(budget > 0.0, "budget must be positive");
        EnergyLedger {
            consumed: vec![[0.0; KINDS]; n],
            budget: Some(budget),
        }
    }

    /// Number of tracked nodes.
    pub fn node_count(&self) -> usize {
        self.consumed.len()
    }

    /// Charges `units` of `kind` energy to `node`.
    pub fn charge(&mut self, node: usize, kind: EnergyKind, units: f64) {
        debug_assert!(units >= 0.0);
        self.consumed[node][kind_index(kind)] += units;
    }

    /// Total consumption of `node` across causes.
    pub fn consumed(&self, node: usize) -> f64 {
        self.consumed[node].iter().sum()
    }

    /// Consumption of `node` for one cause.
    pub fn consumed_kind(&self, node: usize, kind: EnergyKind) -> f64 {
        self.consumed[node][kind_index(kind)]
    }

    /// Whether this ledger has no budget at all (pure accounting): the
    /// precondition for sharded execution, where charges are deferred to
    /// window barriers and mid-window depletion checks must be vacuous.
    pub fn is_unlimited(&self) -> bool {
        self.budget.is_none()
    }

    /// Remaining budget of `node` (`None` when unlimited).
    pub fn residual(&self, node: usize) -> Option<f64> {
        self.budget.map(|b| b - self.consumed(node))
    }

    /// Whether `node` has exhausted its budget.
    pub fn is_depleted(&self, node: usize) -> bool {
        matches!(self.residual(node), Some(r) if r <= 0.0)
    }

    /// Network-wide total consumption.
    pub fn total(&self) -> f64 {
        (0..self.node_count()).map(|i| self.consumed(i)).sum()
    }

    /// Highest per-node consumption — the hotspot that dies first under
    /// equal budgets.
    pub fn max_consumed(&self) -> f64 {
        (0..self.node_count())
            .map(|i| self.consumed(i))
            .fold(0.0, f64::max)
    }

    /// Mean per-node consumption.
    pub fn mean_consumed(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.total() / self.node_count() as f64
        }
    }

    /// Jain fairness index of per-node consumption:
    /// `(Σx)² / (n·Σx²)` ∈ (0, 1], 1 = perfectly balanced.
    /// Returns 1.0 for an idle network (balance is vacuously perfect).
    pub fn jain_fairness(&self) -> f64 {
        let n = self.node_count();
        if n == 0 {
            return 1.0;
        }
        let sum: f64 = (0..n).map(|i| self.consumed(i)).sum();
        let sum_sq: f64 = (0..n).map(|i| self.consumed(i).powi(2)).sum();
        if sum_sq == 0.0 {
            1.0
        } else {
            sum * sum / (n as f64 * sum_sq)
        }
    }

    /// Ratio of hotspot to mean consumption (1.0 = perfectly balanced);
    /// `None` for an idle network.
    pub fn hotspot_ratio(&self) -> Option<f64> {
        let mean = self.mean_consumed();
        (mean > 0.0).then(|| self.max_consumed() / mean)
    }

    /// Per-node breakdown of the whole ledger, in node order. This is the
    /// exportable form trace documents and inspection tools consume.
    pub fn snapshot(&self) -> Vec<EnergySnapshot> {
        (0..self.node_count())
            .map(|node| EnergySnapshot {
                node,
                tx: self.consumed_kind(node, EnergyKind::Tx),
                rx: self.consumed_kind(node, EnergyKind::Rx),
                compute: self.consumed_kind(node, EnergyKind::Compute),
                total: self.consumed(node),
            })
            .collect()
    }

    /// The `k` hottest nodes by total consumption, descending; ties break
    /// toward the lower node id so the ordering is deterministic.
    pub fn hottest(&self, k: usize) -> Vec<EnergySnapshot> {
        let mut all = self.snapshot();
        all.sort_by(|a, b| {
            b.total
                .partial_cmp(&a.total)
                .expect("energy totals are finite")
                .then(a.node.cmp(&b.node))
        });
        all.truncate(k);
        all
    }
}

/// One node's share of an [`EnergyLedger`], broken down by cause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySnapshot {
    /// Node index in the ledger.
    pub node: usize,
    /// Energy spent transmitting.
    pub tx: f64,
    /// Energy spent receiving.
    pub rx: f64,
    /// Energy spent computing.
    pub compute: f64,
    /// Sum across all causes.
    pub total: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_kind() {
        let mut l = EnergyLedger::unlimited(2);
        l.charge(0, EnergyKind::Tx, 3.0);
        l.charge(0, EnergyKind::Rx, 2.0);
        l.charge(0, EnergyKind::Tx, 1.0);
        l.charge(1, EnergyKind::Compute, 5.0);
        assert_eq!(l.consumed_kind(0, EnergyKind::Tx), 4.0);
        assert_eq!(l.consumed_kind(0, EnergyKind::Rx), 2.0);
        assert_eq!(l.consumed(0), 6.0);
        assert_eq!(l.consumed(1), 5.0);
        assert_eq!(l.total(), 11.0);
    }

    #[test]
    fn unlimited_budget_never_depletes() {
        let mut l = EnergyLedger::unlimited(1);
        l.charge(0, EnergyKind::Tx, 1e12);
        assert_eq!(l.residual(0), None);
        assert!(!l.is_depleted(0));
    }

    #[test]
    fn budget_depletion() {
        let mut l = EnergyLedger::with_budget(2, 10.0);
        l.charge(0, EnergyKind::Tx, 9.0);
        assert_eq!(l.residual(0), Some(1.0));
        assert!(!l.is_depleted(0));
        l.charge(0, EnergyKind::Rx, 1.5);
        assert!(l.is_depleted(0));
        assert!(!l.is_depleted(1));
    }

    #[test]
    fn jain_fairness_extremes() {
        let mut l = EnergyLedger::unlimited(4);
        assert_eq!(l.jain_fairness(), 1.0);
        for i in 0..4 {
            l.charge(i, EnergyKind::Tx, 5.0);
        }
        assert!((l.jain_fairness() - 1.0).abs() < 1e-12);
        let mut skewed = EnergyLedger::unlimited(4);
        skewed.charge(0, EnergyKind::Tx, 20.0);
        assert!((skewed.jain_fairness() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn hotspot_ratio() {
        let mut l = EnergyLedger::unlimited(2);
        assert_eq!(l.hotspot_ratio(), None);
        l.charge(0, EnergyKind::Tx, 3.0);
        l.charge(1, EnergyKind::Tx, 1.0);
        assert_eq!(l.hotspot_ratio(), Some(1.5));
        assert_eq!(l.max_consumed(), 3.0);
        assert_eq!(l.mean_consumed(), 2.0);
    }

    #[test]
    fn empty_ledger_is_degenerate_but_safe() {
        let l = EnergyLedger::unlimited(0);
        assert_eq!(l.total(), 0.0);
        assert_eq!(l.mean_consumed(), 0.0);
        assert_eq!(l.jain_fairness(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_panics() {
        EnergyLedger::with_budget(1, 0.0);
    }

    #[test]
    fn snapshot_breaks_down_by_cause() {
        let mut l = EnergyLedger::unlimited(2);
        l.charge(0, EnergyKind::Tx, 3.0);
        l.charge(0, EnergyKind::Rx, 2.0);
        l.charge(1, EnergyKind::Compute, 5.0);
        let snap = l.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap[0],
            EnergySnapshot {
                node: 0,
                tx: 3.0,
                rx: 2.0,
                compute: 0.0,
                total: 5.0
            }
        );
        assert_eq!(
            snap[1],
            EnergySnapshot {
                node: 1,
                tx: 0.0,
                rx: 0.0,
                compute: 5.0,
                total: 5.0
            }
        );
    }

    #[test]
    fn hottest_orders_by_total_then_id() {
        let mut l = EnergyLedger::unlimited(4);
        l.charge(0, EnergyKind::Tx, 2.0);
        l.charge(1, EnergyKind::Tx, 9.0);
        l.charge(2, EnergyKind::Rx, 2.0); // ties with node 0 → node 0 first
        l.charge(3, EnergyKind::Compute, 5.0);
        let top: Vec<usize> = l.hottest(3).iter().map(|s| s.node).collect();
        assert_eq!(top, vec![1, 3, 0]);
        assert_eq!(
            l.hottest(10).len(),
            4,
            "k larger than population is clamped"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Jain index is always in (0, 1] and total equals sum of parts.
        #[test]
        fn jain_in_range(charges in prop::collection::vec(0.0f64..100.0, 1..50)) {
            let mut l = EnergyLedger::unlimited(charges.len());
            for (i, &c) in charges.iter().enumerate() {
                l.charge(i, EnergyKind::Tx, c);
            }
            let j = l.jain_fairness();
            prop_assert!(j > 0.0 && j <= 1.0 + 1e-12, "jain={j}");
            let total: f64 = charges.iter().sum();
            prop_assert!((l.total() - total).abs() < 1e-9);
            prop_assert!(l.max_consumed() >= l.mean_consumed() - 1e-12);
        }
    }
}
