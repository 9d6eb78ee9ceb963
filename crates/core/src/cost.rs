//! The uniform cost model.
//!
//! §3.2: "the energy cost for transmission, reception or computation of
//! one unit of data is defined to be one unit of energy. One unit of
//! latency is the time taken to complete c computations or transmit b
//! units of data." We normalize c = b = 1 data unit per latency unit in
//! [`CostModel::uniform`], and keep every coefficient configurable because
//! the paper explicitly allows "a different set of cost functions … if the
//! characteristics of the deployment necessitate it".

/// Energy and latency coefficients of the virtual architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Energy per unit of data transmitted.
    pub tx_energy: f64,
    /// Energy per unit of data received.
    pub rx_energy: f64,
    /// Energy per unit of data computed upon.
    pub compute_energy: f64,
    /// Latency ticks per unit of data per hop.
    pub ticks_per_unit: u64,
}

impl CostModel {
    /// The paper's uniform cost function: every coefficient is one.
    pub fn uniform() -> Self {
        CostModel {
            tx_energy: 1.0,
            rx_energy: 1.0,
            compute_energy: 1.0,
            ticks_per_unit: 1,
        }
    }

    /// Latency of pushing `units` of data across one hop (min. one tick).
    pub fn hop_ticks(&self, units: u64) -> u64 {
        (units * self.ticks_per_unit).max(1)
    }

    /// Latency of `units` over `hops` hops, store-and-forward.
    pub fn path_ticks(&self, hops: u32, units: u64) -> u64 {
        u64::from(hops) * self.hop_ticks(units)
    }

    /// Total network energy to move `units` over `hops` hops: the source
    /// transmits once, every intermediate relays (rx + tx), the
    /// destination receives once — `hops` transmissions and `hops`
    /// receptions in all.
    pub fn path_energy(&self, hops: u32, units: u64) -> f64 {
        f64::from(hops) * units as f64 * (self.tx_energy + self.rx_energy)
    }

    /// Energy to compute on `units` of data.
    pub fn compute(&self, units: u64) -> f64 {
        units as f64 * self.compute_energy
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::uniform()
    }
}

/// Design-time performance budget a mapped application must stay within.
///
/// The paper's methodology is *analyze before deploy*: the closed-form
/// estimates (and [`crate::RunMetrics`] measurements) of a candidate
/// mapping are compared against mission requirements at design time. A
/// budget captures those requirements as optional ceilings/floors so the
/// static analyzer can lint a mapping the same way it lints a program.
/// `None` leaves a dimension unconstrained.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBudget {
    /// Ceiling on network-wide energy per round.
    pub max_total_energy: Option<f64>,
    /// Ceiling on the most-loaded node's energy per round (hotspot).
    pub max_node_energy: Option<f64>,
    /// Floor on Jain fairness of per-node energy (0..=1).
    pub min_energy_balance: Option<f64>,
    /// Ceiling on one round's critical-path latency in ticks.
    pub max_latency_ticks: Option<u64>,
}

/// One budget dimension a mapping exceeds, with the measured and budgeted
/// values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetViolation {
    /// Total energy above `max_total_energy`.
    TotalEnergy {
        /// Measured total energy.
        actual: f64,
        /// The budget ceiling.
        budget: f64,
    },
    /// Hotspot energy above `max_node_energy`.
    NodeEnergy {
        /// Measured hotspot energy.
        actual: f64,
        /// The budget ceiling.
        budget: f64,
    },
    /// Energy balance below `min_energy_balance`.
    EnergyBalance {
        /// Measured Jain fairness.
        actual: f64,
        /// The budget floor.
        budget: f64,
    },
    /// Latency above `max_latency_ticks`.
    Latency {
        /// Measured critical-path ticks.
        actual: u64,
        /// The budget ceiling.
        budget: u64,
    },
}

impl CostBudget {
    /// A budget with every dimension unconstrained.
    pub fn unbounded() -> Self {
        CostBudget::default()
    }

    /// True when no dimension is constrained.
    pub fn is_unbounded(&self) -> bool {
        *self == CostBudget::default()
    }

    /// Checks measured round costs against the budget, collecting every
    /// exceeded dimension (the lint sweep wants all of them).
    pub fn violations(
        &self,
        total_energy: f64,
        max_node_energy: f64,
        energy_balance: f64,
        latency_ticks: u64,
    ) -> Vec<BudgetViolation> {
        let mut out = Vec::new();
        if let Some(budget) = self.max_total_energy {
            if total_energy > budget {
                out.push(BudgetViolation::TotalEnergy {
                    actual: total_energy,
                    budget,
                });
            }
        }
        if let Some(budget) = self.max_node_energy {
            if max_node_energy > budget {
                out.push(BudgetViolation::NodeEnergy {
                    actual: max_node_energy,
                    budget,
                });
            }
        }
        if let Some(budget) = self.min_energy_balance {
            if energy_balance < budget {
                out.push(BudgetViolation::EnergyBalance {
                    actual: energy_balance,
                    budget,
                });
            }
        }
        if let Some(budget) = self.max_latency_ticks {
            if latency_ticks > budget {
                out.push(BudgetViolation::Latency {
                    actual: latency_ticks,
                    budget,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_coefficients_are_one() {
        let c = CostModel::uniform();
        assert_eq!(c.tx_energy, 1.0);
        assert_eq!(c.rx_energy, 1.0);
        assert_eq!(c.compute_energy, 1.0);
        assert_eq!(c.ticks_per_unit, 1);
    }

    #[test]
    fn hop_ticks_floor_at_one() {
        let c = CostModel::uniform();
        assert_eq!(c.hop_ticks(0), 1);
        assert_eq!(c.hop_ticks(7), 7);
    }

    #[test]
    fn path_costs_scale_linearly() {
        let c = CostModel::uniform();
        assert_eq!(c.path_ticks(3, 5), 15);
        assert_eq!(c.path_energy(3, 5), 30.0);
        assert_eq!(c.path_energy(0, 5), 0.0);
        assert_eq!(c.path_ticks(0, 5), 0);
    }

    #[test]
    fn asymmetric_model_respected() {
        let c = CostModel {
            tx_energy: 2.0,
            rx_energy: 0.5,
            compute_energy: 0.1,
            ticks_per_unit: 3,
        };
        assert_eq!(c.path_energy(2, 4), 2.0 * 4.0 * 2.5);
        assert_eq!(c.path_ticks(2, 4), 24);
        assert!((c.compute(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_uniform() {
        assert_eq!(CostModel::default(), CostModel::uniform());
    }

    #[test]
    fn unbounded_budget_accepts_everything() {
        let b = CostBudget::unbounded();
        assert!(b.is_unbounded());
        assert_eq!(b.violations(1e18, 1e18, 0.0, u64::MAX), Vec::new());
    }

    #[test]
    fn budget_collects_all_exceeded_dimensions() {
        let b = CostBudget {
            max_total_energy: Some(100.0),
            max_node_energy: Some(10.0),
            min_energy_balance: Some(0.9),
            max_latency_ticks: Some(50),
        };
        assert_eq!(b.violations(99.0, 9.0, 0.95, 50), Vec::new());
        let all = b.violations(101.0, 11.0, 0.5, 51);
        assert_eq!(all.len(), 4);
        assert!(matches!(
            all[0],
            BudgetViolation::TotalEnergy {
                actual,
                budget
            } if actual == 101.0 && budget == 100.0
        ));
        assert!(matches!(
            all[3],
            BudgetViolation::Latency {
                actual: 51,
                budget: 50
            }
        ));
        // Partial excess reports only the exceeded dimensions.
        let partial = b.violations(99.0, 11.0, 0.95, 10);
        assert_eq!(partial.len(), 1);
        assert!(matches!(partial[0], BudgetViolation::NodeEnergy { .. }));
    }
}
