//! Filament-gap RRAM compact model in the style of the ASU/Stanford model.

use crate::MemristiveDevice;
use memcim_units::{Amps, Seconds, Siemens, Volts};

/// Boltzmann constant expressed in eV/K.
const K_B_EV: f64 = 8.617_333e-5;

/// Parameters of the [`StanfordAsu`] filament-gap model.
///
/// The model follows the structure of the ASU/Stanford RRAM compact model
/// (Chen & Yu, *IEEE TED* 2015 — reference \[28\] of the paper): a tunnelling
/// gap `g` between filament tip and electrode controls the current
/// exponentially, and the gap evolves with a field-accelerated,
/// temperature-activated `sinh` law.
///
/// ```text
/// I(g, V)  = i0 · exp(−g / g0) · sinh(V / v0)
/// dg/dt    = −velocity0 · exp(−Ea / kT) · sinh(γ·a0·V / (tox·kT/q))
/// γ(g)     = gamma0 − beta · (g / g1)³
/// ```
///
/// Defaults are calibrated so that at a 0.1 V read the ON state
/// (`g = g_min`) is ≈1 kΩ and the OFF state (`g = g_max`) is in the
/// 100 MΩ decade, matching the two-state projection the paper simulates
/// ("high and low resistances are approximately 100 MΩ and 1 kΩ"), and so
/// that a 1.3 V SET pulse completes in ~10 ns. Local filament heating is
/// not modelled: temperature is held at `temperature` for the whole
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StanfordParams {
    /// Minimum tunnelling gap (fully ON), metres.
    pub g_min: f64,
    /// Maximum tunnelling gap (fully OFF), metres.
    pub g_max: f64,
    /// Gap decay constant for the current, metres.
    pub g0: f64,
    /// Current prefactor, amperes.
    pub i0: f64,
    /// Voltage scale of the current `sinh`, volts.
    pub v0: f64,
    /// Activation energy for ion migration, eV.
    pub ea_ev: f64,
    /// Attempt velocity prefactor, m/s.
    pub velocity0: f64,
    /// Field-enhancement factor at zero gap.
    pub gamma0: f64,
    /// Gap dependence strength of the enhancement factor.
    pub beta: f64,
    /// Gap normalization for the enhancement factor, metres.
    pub g1: f64,
    /// Atomic hopping distance, metres.
    pub a0: f64,
    /// Oxide thickness, metres.
    pub tox: f64,
    /// Ambient temperature, kelvin.
    pub temperature: f64,
}

impl Default for StanfordParams {
    fn default() -> Self {
        Self {
            g_min: 0.1e-9,
            g_max: 1.8e-9,
            g0: 0.15e-9,
            i0: 4.75e-4,
            v0: 0.25,
            ea_ev: 0.6,
            velocity0: 0.01,
            gamma0: 16.5,
            beta: 1.0,
            g1: 1.0e-9,
            a0: 0.25e-9,
            tox: 5.0e-9,
            temperature: 300.0,
        }
    }
}

impl StanfordParams {
    /// Validates physical constraints, returning a descriptive panic
    /// message target for [`StanfordAsu::new`].
    fn validate(&self) {
        assert!(self.g_min > 0.0 && self.g_max > self.g_min, "need 0 < g_min < g_max");
        assert!(self.g0 > 0.0, "g0 must be > 0");
        assert!(self.i0 > 0.0, "i0 must be > 0");
        assert!(self.v0 > 0.0, "v0 must be > 0");
        assert!(self.velocity0 > 0.0, "velocity0 must be > 0");
        assert!(self.tox > 0.0, "tox must be > 0");
        assert!(self.temperature > 0.0, "temperature must be > 0");
    }
}

/// A filament-gap RRAM device (see [`StanfordParams`] for the equations).
///
/// # Examples
///
/// ```
/// use memcim_device::{MemristiveDevice, StanfordAsu, StanfordParams};
/// use memcim_units::{Seconds, Volts};
///
/// let mut cell = StanfordAsu::new(StanfordParams::default());
/// cell.set_normalized_state(0.0); // fully OFF
/// // A 1.3 V SET pulse of 50 ns programs the cell ON.
/// cell.step(Volts::new(1.3), Seconds::from_nanoseconds(50.0));
/// assert!(cell.normalized_state() > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StanfordAsu {
    params: StanfordParams,
    /// Tunnelling gap, metres (the state variable).
    gap: f64,
}

impl StanfordAsu {
    /// Creates a device at the fully ON state.
    ///
    /// # Panics
    ///
    /// Panics if any parameter violates its physical constraint (all
    /// lengths, currents, voltages and temperatures strictly positive,
    /// `g_min < g_max`).
    pub fn new(params: StanfordParams) -> Self {
        params.validate();
        Self { params, gap: params.g_min }
    }

    /// The model parameters.
    pub fn params(&self) -> &StanfordParams {
        &self.params
    }

    /// Present tunnelling gap in metres.
    pub fn gap(&self) -> f64 {
        self.gap
    }

    /// Gap growth/shrink velocity (m/s) at the given bias.
    fn gap_velocity(&self, v: Volts) -> f64 {
        let p = &self.params;
        let kt_ev = K_B_EV * p.temperature;
        let gamma = p.gamma0 - p.beta * (self.gap / p.g1).powi(3);
        let field_arg = gamma * p.a0 * v.as_volts() / (p.tox * kt_ev);
        -p.velocity0 * (-p.ea_ev / kt_ev).exp() * field_arg.sinh()
    }
}

impl MemristiveDevice for StanfordAsu {
    fn current(&self, v: Volts) -> Amps {
        let p = &self.params;
        Amps::new(p.i0 * (-self.gap / p.g0).exp() * (v.as_volts() / p.v0).sinh())
    }

    fn conductance(&self, v: Volts) -> Siemens {
        let p = &self.params;
        Siemens::new(p.i0 * (-self.gap / p.g0).exp() * (v.as_volts() / p.v0).cosh() / p.v0)
    }

    fn step(&mut self, v: Volts, dt: Seconds) {
        // Adaptive sub-stepping: the sinh law is stiff near programming
        // voltages, so limit each Euler substep to 2 % of the gap range.
        let p = self.params;
        let range = p.g_max - p.g_min;
        let mut remaining = dt.as_seconds();
        let mut guard = 0;
        while remaining > 0.0 && guard < 100_000 {
            guard += 1;
            let vel = self.gap_velocity(v);
            if vel == 0.0 {
                break;
            }
            let max_h = 0.02 * range / vel.abs();
            let h = remaining.min(max_h);
            self.gap = (self.gap + vel * h).clamp(p.g_min, p.g_max);
            remaining -= h;
            // Once pinned at a bound with velocity still pushing outward,
            // further substeps cannot change anything.
            if (self.gap == p.g_min && vel < 0.0) || (self.gap == p.g_max && vel > 0.0) {
                break;
            }
        }
    }

    fn normalized_state(&self) -> f64 {
        let p = &self.params;
        (p.g_max - self.gap) / (p.g_max - p.g_min)
    }

    fn set_normalized_state(&mut self, state: f64) {
        let p = &self.params;
        let s = state.clamp(0.0, 1.0);
        self.gap = p.g_max - s * (p.g_max - p.g_min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const READ: Volts = Volts::new(0.1);

    #[test]
    fn on_state_is_kilohm_class() {
        let cell = StanfordAsu::new(StanfordParams::default());
        let r = cell.static_resistance(READ).as_ohms();
        assert!((500.0..2_000.0).contains(&r), "R_on = {r}");
    }

    #[test]
    fn off_state_is_in_the_hundred_megohm_decade() {
        let mut cell = StanfordAsu::new(StanfordParams::default());
        cell.set_normalized_state(0.0);
        let r = cell.static_resistance(READ).as_ohms();
        assert!((5.0e7..5.0e8).contains(&r), "R_off = {r}");
    }

    #[test]
    fn on_off_ratio_exceeds_four_decades() {
        let mut cell = StanfordAsu::new(StanfordParams::default());
        let r_on = cell.static_resistance(READ).as_ohms();
        cell.set_normalized_state(0.0);
        let r_off = cell.static_resistance(READ).as_ohms();
        assert!(r_off / r_on > 1.0e4, "ratio = {}", r_off / r_on);
    }

    #[test]
    fn set_pulse_programs_within_tens_of_nanoseconds() {
        let mut cell = StanfordAsu::new(StanfordParams::default());
        cell.set_normalized_state(0.0);
        cell.step(Volts::new(1.3), Seconds::from_nanoseconds(50.0));
        assert!(cell.normalized_state() > 0.9, "state = {}", cell.normalized_state());
    }

    #[test]
    fn negative_bias_resets_the_cell() {
        let mut cell = StanfordAsu::new(StanfordParams::default());
        assert!(cell.normalized_state() > 0.99);
        cell.step(Volts::new(-1.5), Seconds::from_microseconds(10.0));
        assert!(cell.normalized_state() < 0.5, "state = {}", cell.normalized_state());
    }

    #[test]
    fn read_voltage_causes_negligible_disturb() {
        let mut cell = StanfordAsu::new(StanfordParams::default());
        cell.set_normalized_state(0.0);
        let before = cell.normalized_state();
        // A million 1 µs reads at 0.1 V.
        cell.step(READ, Seconds::new(1.0));
        let drift = (cell.normalized_state() - before).abs();
        assert!(drift < 0.05, "read disturb = {drift}");
    }

    #[test]
    fn current_is_odd_in_voltage() {
        let cell = StanfordAsu::new(StanfordParams::default());
        let ip = cell.current(Volts::new(0.2)).as_amps();
        let in_ = cell.current(Volts::new(-0.2)).as_amps();
        assert!((ip + in_).abs() < 1e-18 * ip.abs().max(1.0));
    }

    #[test]
    fn conductance_matches_finite_difference() {
        let cell = StanfordAsu::new(StanfordParams::default());
        let v = Volts::new(0.15);
        let h = 1e-6;
        let di = (cell.current(Volts::new(0.15 + h)).as_amps()
            - cell.current(Volts::new(0.15 - h)).as_amps())
            / (2.0 * h);
        let g = cell.conductance(v).as_siemens();
        assert!((di - g).abs() / g.abs() < 1e-5, "fd = {di}, analytic = {g}");
    }

    #[test]
    #[should_panic(expected = "g_min < g_max")]
    fn inverted_gap_bounds_panic() {
        let params = StanfordParams { g_min: 2.0e-9, g_max: 1.0e-9, ..Default::default() };
        let _ = StanfordAsu::new(params);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Gap stays inside [g_min, g_max] for arbitrary pulse trains.
        #[test]
        fn gap_bounded(pulses in proptest::collection::vec((-2.0_f64..2.0, 1.0_f64..100.0), 1..30)) {
            let mut cell = StanfordAsu::new(StanfordParams::default());
            for (v, ns) in pulses {
                cell.step(Volts::new(v), Seconds::from_nanoseconds(ns));
                let g = cell.gap();
                prop_assert!(g >= cell.params().g_min - 1e-15);
                prop_assert!(g <= cell.params().g_max + 1e-15);
            }
        }

        /// normalized_state/set_normalized_state round-trip.
        #[test]
        fn state_round_trip(s in 0.0_f64..1.0) {
            let mut cell = StanfordAsu::new(StanfordParams::default());
            cell.set_normalized_state(s);
            prop_assert!((cell.normalized_state() - s).abs() < 1e-12);
        }
    }
}
