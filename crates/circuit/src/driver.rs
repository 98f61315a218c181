//! CMOS driver macromodel.

/// A CMOS output driver reduced to the parameters that matter for
/// interconnect energy: a switched on-resistance to the rails, an output
/// capacitance and a leakage current.
///
/// The default mirrors the paper's setup — 22 nm predictive-technology
/// drivers of strength six at `V_dd = 1 V`. The pull-up and pull-down
/// resistances are taken as equal (symmetric sizing), which also lets
/// the simulator reuse one matrix factorisation for every data state.
/// With that, the driven link is linear and time-invariant and its rails
/// are constant within a clock cycle, so
/// [`TsvLink::simulate`](crate::TsvLink::simulate) collapses each cycle
/// into one affine map, built once per stream from one backward-Euler
/// step per node, RL branch and via raised to the cycle, and prices the
/// whole stream from lagged bit co-occurrence counts.
///
/// # Examples
///
/// ```
/// let d = tsv3d_circuit::DriverModel::ptm_22nm_strength6();
/// assert!(d.resistance > 0.0 && d.vdd == 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverModel {
    /// On-resistance of the active transistor network, Ω.
    pub resistance: f64,
    /// Driver output (drain/diffusion) capacitance, F.
    pub output_cap: f64,
    /// Receiver input (gate) capacitance at the far end, F.
    pub load_cap: f64,
    /// Static leakage current per driver, A.
    pub leakage: f64,
    /// Supply voltage, V.
    pub vdd: f64,
}

impl DriverModel {
    /// The paper's driver: a 22 nm PTM inverter of strength six.
    ///
    /// A minimum 22 nm inverter has an on-resistance of roughly 9 kΩ;
    /// strength six brings it to ≈1.5 kΩ. Diffusion and gate
    /// capacitances scale to ≈1 fF at this size, and sub-threshold plus
    /// gate leakage of the pair is of the order of 100 nA.
    pub fn ptm_22nm_strength6() -> Self {
        Self {
            resistance: 1.5e3,
            output_cap: 1.0e-15,
            load_cap: 1.0e-15,
            leakage: 1.0e-7,
            vdd: 1.0,
        }
    }

    /// Scales the driver strength: an `s`-times stronger driver has
    /// `resistance / s`, and `s`-times the capacitances and leakage.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not positive.
    pub fn scaled(&self, s: f64) -> Self {
        assert!(s > 0.0, "strength scale must be positive");
        Self {
            resistance: self.resistance / s,
            output_cap: self.output_cap * s,
            load_cap: self.load_cap * s,
            leakage: self.leakage * s,
            vdd: self.vdd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_plausible() {
        let d = DriverModel::ptm_22nm_strength6();
        assert!(d.resistance > 100.0 && d.resistance < 10e3);
        assert!(d.output_cap > 0.0 && d.output_cap < 10e-15);
        assert!(d.leakage > 0.0 && d.leakage < 1e-5);
    }

    #[test]
    fn scaling_behaves() {
        let d = DriverModel::ptm_22nm_strength6();
        let s = d.scaled(2.0);
        assert_eq!(s.resistance, d.resistance / 2.0);
        assert_eq!(s.output_cap, d.output_cap * 2.0);
        assert_eq!(s.leakage, d.leakage * 2.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = DriverModel::ptm_22nm_strength6().scaled(0.0);
    }
}
