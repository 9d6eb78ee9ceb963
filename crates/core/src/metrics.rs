//! Performance metrics derived from a run.
//!
//! §3.2: "total energy, energy balance, total latency of a set of
//! operations, system lifetime, etc., are various performance metrics that
//! can be calculated from the cost model, but which of these to use will
//! depend on the algorithm designer's objective." [`RunMetrics`] packages
//! all of them so each experiment picks its objective.

use wsn_net::EnergyLedger;

/// Canonical telemetry counter for application messages sent.
pub const CTR_MESSAGES: &str = "net.messages";
/// Canonical telemetry counter for application data units moved.
pub const CTR_DATA_UNITS: &str = "net.data_units";

/// The standard metric bundle the harness reports for every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// End-to-end latency in ticks (e.g. start of sensing to final
    /// exfiltration).
    pub latency_ticks: u64,
    /// Network-wide energy consumed.
    pub total_energy: f64,
    /// Hotspot: the single largest per-node consumption.
    pub max_node_energy: f64,
    /// Mean per-node consumption.
    pub mean_node_energy: f64,
    /// Jain fairness index of per-node consumption (1 = balanced).
    pub energy_balance: f64,
    /// Application messages sent.
    pub messages: u64,
    /// Application data units moved.
    pub data_units: u64,
}

impl RunMetrics {
    /// Builds the bundle from an energy ledger plus harness-tracked
    /// latency and traffic totals.
    pub fn from_ledger(
        ledger: &EnergyLedger,
        latency_ticks: u64,
        messages: u64,
        data_units: u64,
    ) -> Self {
        RunMetrics {
            latency_ticks,
            total_energy: ledger.total(),
            max_node_energy: ledger.max_consumed(),
            mean_node_energy: ledger.mean_consumed(),
            energy_balance: ledger.jain_fairness(),
            messages,
            data_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_net::EnergyKind;

    #[test]
    fn from_ledger_summarizes() {
        let mut l = EnergyLedger::unlimited(4);
        l.charge(0, EnergyKind::Tx, 8.0);
        l.charge(1, EnergyKind::Rx, 4.0);
        let m = RunMetrics::from_ledger(&l, 17, 3, 12);
        assert_eq!(m.latency_ticks, 17);
        assert_eq!(m.total_energy, 12.0);
        assert_eq!(m.max_node_energy, 8.0);
        assert_eq!(m.mean_node_energy, 3.0);
        assert_eq!(m.messages, 3);
        assert_eq!(m.data_units, 12);
        assert!(m.energy_balance < 1.0);
    }

    #[test]
    fn balanced_ledger_scores_one() {
        let mut l = EnergyLedger::unlimited(3);
        for i in 0..3 {
            l.charge(i, EnergyKind::Compute, 2.0);
        }
        let m = RunMetrics::from_ledger(&l, 0, 0, 0);
        assert!((m.energy_balance - 1.0).abs() < 1e-12);
        assert_eq!(m.max_node_energy, m.mean_node_energy);
    }
}
