//! System-level metrics (§5.2): throughput, power, energy efficiency
//! (throughput per watt) and compute density (throughput per unit area).

use serde::{Deserialize, Serialize};

/// Aggregate results of one simulated run of a machine on a workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Input symbols consumed.
    pub input_chars: u64,
    /// Clock cycles elapsed (≥ `input_chars` when bit-vector phases stall).
    pub cycles: u64,
    /// Clock frequency in hertz.
    pub clock_hz: f64,
    /// Total dynamic + leakage energy in microjoules.
    pub energy_uj: f64,
    /// Allocated hardware area in square millimeters.
    pub area_mm2: f64,
    /// Matches reported.
    pub matches: u64,
}

impl Metrics {
    /// Wall-clock run time in seconds.
    pub fn runtime_s(&self) -> f64 {
        self.cycles as f64 / self.clock_hz
    }

    /// Throughput in gigacharacters per second (the paper's Gch/s).
    pub fn throughput_gchps(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let chars_per_s = self.input_chars as f64 / self.runtime_s();
        chars_per_s / 1e9
    }

    /// Average power in watts (total energy over run time).
    pub fn power_w(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.energy_uj * 1e-6 / self.runtime_s()
    }

    /// Energy efficiency: throughput per watt (Gch/s/W).
    pub fn energy_efficiency(&self) -> f64 {
        let p = self.power_w();
        if p == 0.0 {
            return 0.0;
        }
        self.throughput_gchps() / p
    }

    /// Compute density: throughput per unit area (Gch/s/mm²).
    pub fn compute_density(&self) -> f64 {
        if self.area_mm2 == 0.0 {
            return 0.0;
        }
        self.throughput_gchps() / self.area_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Metrics {
        Metrics {
            input_chars: 100_000,
            cycles: 100_000,
            clock_hz: 2.08e9,
            energy_uj: 188.0,
            area_mm2: 3.67,
            matches: 12,
        }
    }

    #[test]
    fn throughput_no_stalls_equals_clock() {
        // One char per cycle → throughput equals the clock in Gch/s.
        assert!((m().throughput_gchps() - 2.08).abs() < 1e-9);
    }

    #[test]
    fn throughput_with_stalls_degrades() {
        let mut x = m();
        x.cycles = 200_000; // every char costs 2 cycles
        assert!((x.throughput_gchps() - 1.04).abs() < 1e-9);
    }

    #[test]
    fn power_and_efficiency() {
        let x = m();
        // runtime = 1e5 / 2.08e9 s ≈ 48.08 µs; 188 µJ / 48.08 µs ≈ 3.91 W.
        let p = x.power_w();
        assert!((p - 3.9104).abs() < 1e-3, "{p}");
        let eff = x.energy_efficiency();
        assert!((eff - x.throughput_gchps() / p).abs() < 1e-12);
    }

    #[test]
    fn compute_density() {
        let x = m();
        assert!((x.compute_density() - 2.08 / 3.67).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_safe() {
        let x = Metrics::default();
        assert_eq!(x.throughput_gchps(), 0.0);
        assert_eq!(x.power_w(), 0.0);
        assert_eq!(x.energy_efficiency(), 0.0);
        assert_eq!(x.compute_density(), 0.0);
    }
}
