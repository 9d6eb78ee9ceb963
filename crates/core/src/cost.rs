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
}
