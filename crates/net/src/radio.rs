//! Radio cost parameters.
//!
//! §3.2 of the paper: "for such [short-range omnidirectional] antennas, the
//! reception and transmission energy is of similar magnitude, and depends
//! only on the radio electronics \[Min & Chandrakasan\]. … the energy cost
//! for transmission, reception or computation of one unit of data is
//! defined to be one unit of energy." [`RadioModel::uniform`] is exactly
//! that model; the fields stay configurable so experiments can depart from
//! it (the paper: "a different set of cost functions can be used if the
//! characteristics of the deployment necessitate it").

/// Energy and latency coefficients of a node's radio and CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioModel {
    /// Transmission range `r`.
    pub range: f64,
    /// Energy to transmit one unit of data.
    pub tx_energy_per_unit: f64,
    /// Energy to receive one unit of data.
    pub rx_energy_per_unit: f64,
    /// Energy to compute on one unit of data.
    pub compute_energy_per_unit: f64,
    /// Ticks to transmit one unit of data over one hop. Fractional rates
    /// are rounded up per message in [`RadioModel::tx_ticks`], so a
    /// mis-calibrated radio (e.g. a +50% hop-delay mutation) is
    /// expressible without losing the integer-tick kernel.
    pub ticks_per_unit: f64,
}

impl RadioModel {
    /// The paper's uniform cost model with the given range: one unit of
    /// energy per unit of data transmitted, received, or computed; one
    /// latency unit per data unit per hop.
    pub fn uniform(range: f64) -> Self {
        assert!(range > 0.0, "range must be positive");
        RadioModel {
            range,
            tx_energy_per_unit: 1.0,
            rx_energy_per_unit: 1.0,
            compute_energy_per_unit: 1.0,
            ticks_per_unit: 1.0,
        }
    }

    /// Ticks to push `units` of data across one hop (at least one tick, so
    /// causality is preserved even for zero-length control messages).
    pub fn tx_ticks(&self, units: u64) -> u64 {
        ((units as f64 * self.ticks_per_unit).ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_model_is_unit_cost() {
        let m = RadioModel::uniform(10.0);
        assert_eq!(m.tx_energy_per_unit, 1.0);
        assert_eq!(m.rx_energy_per_unit, 1.0);
        assert_eq!(m.compute_energy_per_unit, 1.0);
        assert_eq!(m.tx_ticks(5), 5);
    }

    #[test]
    fn zero_unit_message_still_takes_a_tick() {
        let m = RadioModel::uniform(10.0);
        assert_eq!(m.tx_ticks(0), 1);
    }

    #[test]
    fn fractional_rates_round_up_per_message() {
        let mut m = RadioModel::uniform(10.0);
        m.ticks_per_unit *= 1.5;
        assert_eq!(m.tx_ticks(2), 3);
        assert_eq!(m.tx_ticks(5), 8); // ceil(7.5)
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_range_panics() {
        RadioModel::uniform(0.0);
    }
}
