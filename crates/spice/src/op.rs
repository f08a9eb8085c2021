//! DC operating-point analysis.
//!
//! Solves the circuit's steady state at `t = 0⁺` with capacitors open
//! (their branch current is zero in DC) and all sources at their
//! initial value: the same MNA solve a transient step runs, at
//! `t = 0`. Used to sanity-check netlists (a floating node surfaces
//! here, not three nanoseconds into a transient).

use crate::circuit::Circuit;
use crate::linalg::SolverKind;
use crate::mna::{Capacitors, Limits, Mna};
use crate::SpiceError;
use memcim_units::Volts;
use std::collections::HashMap;

/// The result of a DC operating-point solve: node voltages by name.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    voltages: HashMap<String, f64>,
}

impl OperatingPoint {
    /// The solved voltage of a node.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownSignal`] for an unknown node name
    /// (ground is always known and zero).
    pub fn voltage(&self, node: &str) -> Result<Volts, SpiceError> {
        if node == "0" {
            return Ok(Volts::ZERO);
        }
        self.voltages
            .get(node)
            .map(|&v| Volts::new(v))
            .ok_or_else(|| SpiceError::UnknownSignal { name: node.to_string() })
    }

    /// Iterates `(node name, voltage)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Volts)> {
        self.voltages.iter().map(|(k, &v)| (k.as_str(), Volts::new(v)))
    }
}

/// Computes the DC operating point of a circuit at `t = 0`.
///
/// Capacitors are treated as open circuits (a tiny `GMIN` keeps nodes
/// that *only* connect through capacitors from floating); memristors and
/// MOSFETs are solved by damped Newton iteration exactly as in the
/// transient engine.
///
/// # Errors
///
/// Returns [`SpiceError::SingularMatrix`] for genuinely floating
/// subcircuits and [`SpiceError::NonConvergence`] if Newton stalls.
///
/// # Examples
///
/// ```
/// use memcim_spice::{operating_point, Circuit, Waveform};
/// use memcim_units::{Ohms, Volts};
///
/// # fn main() -> Result<(), memcim_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("vin");
/// let out = ckt.node("out");
/// ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(Volts::new(1.0)))?;
/// ckt.add_resistor("R1", vin, out, Ohms::from_kilohms(1.0))?;
/// ckt.add_resistor("R2", out, Circuit::GROUND, Ohms::from_kilohms(1.0))?;
/// let op = operating_point(&ckt)?;
/// assert!((op.voltage("out")?.as_volts() - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn operating_point(ckt: &Circuit) -> Result<OperatingPoint, SpiceError> {
    let mut mna = Mna::new(ckt);
    let mut x = mna.initial_x(ckt);
    let limits = Limits { max_newton: 200, solver: SolverKind::Auto };
    mna.solve(ckt, &mut x, 0.0, &Capacitors::Open, limits)?;
    let voltages = ckt.nodes().map(|(name, node)| (name.to_string(), x[node.0 - 1])).collect();
    Ok(OperatingPoint { voltages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosfetParams;
    use crate::waveform::Waveform;
    use memcim_device::{BehavioralSwitch, SwitchParams};
    use memcim_units::{Farads, Ohms};

    const GND: crate::circuit::Node = Circuit::GROUND;

    #[test]
    fn divider_operating_point() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.add_vsource("V1", vin, GND, Waveform::dc(Volts::new(3.0))).expect("v");
        ckt.add_resistor("R1", vin, out, Ohms::from_kilohms(2.0)).expect("r1");
        ckt.add_resistor("R2", out, GND, Ohms::from_kilohms(1.0)).expect("r2");
        let op = operating_point(&ckt).expect("solves");
        assert!((op.voltage("out").expect("out").as_volts() - 1.0).abs() < 1e-9);
        assert_eq!(op.voltage("0").expect("ground"), Volts::ZERO);
    }

    #[test]
    fn capacitors_are_dc_open() {
        // Series R–C from a source: no DC current, the cap node floats
        // to the source voltage through R.
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let mid = ckt.node("mid");
        ckt.add_vsource("V1", vin, GND, Waveform::dc(Volts::new(1.0))).expect("v");
        ckt.add_resistor("R1", vin, mid, Ohms::from_kilohms(10.0)).expect("r");
        ckt.add_capacitor("C1", mid, GND, Farads::from_picofarads(1.0)).expect("c");
        let op = operating_point(&ckt).expect("solves");
        assert!((op.voltage("mid").expect("mid").as_volts() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn nmos_pulldown_bias_point() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("gate");
        let out = ckt.node("out");
        ckt.add_vsource("VDD", vdd, GND, Waveform::dc(Volts::new(1.0))).expect("vdd");
        ckt.add_vsource("VG", gate, GND, Waveform::dc(Volts::new(1.0))).expect("vg");
        ckt.add_resistor("RL", vdd, out, Ohms::from_kilohms(100.0)).expect("rl");
        ckt.add_nmos("M1", out, gate, GND, MosfetParams::ptm32_access_nmos()).expect("m1");
        let op = operating_point(&ckt).expect("solves");
        // Strong pulldown against a 100 kΩ load: out near ground.
        let v_out = op.voltage("out").expect("out").as_volts();
        assert!(v_out < 0.06, "out = {v_out}");
    }

    #[test]
    fn memristor_divider_dc() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.add_vsource("V1", vin, GND, Waveform::dc(Volts::new(0.4))).expect("v");
        ckt.add_resistor("R1", vin, out, Ohms::from_kilohms(1.0)).expect("r");
        let mut cell = BehavioralSwitch::new(SwitchParams::paper_fig9());
        cell.program(true).expect("on");
        ckt.add_memristor("X1", out, GND, Box::new(cell)).expect("x");
        let op = operating_point(&ckt).expect("solves");
        assert!((op.voltage("out").expect("out").as_volts() - 0.2).abs() < 1e-6);
    }

    #[test]
    fn unknown_node_query_errors() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor("R", a, GND, Ohms::new(1.0)).expect("r");
        ckt.add_vsource("V", a, GND, Waveform::dc(Volts::new(1.0))).expect("v");
        let op = operating_point(&ckt).expect("solves");
        assert!(matches!(op.voltage("zz"), Err(SpiceError::UnknownSignal { .. })));
        assert_eq!(op.iter().count(), 1);
    }

    #[test]
    fn truly_floating_subcircuit_is_singular() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_resistor("R", a, b, Ohms::new(1.0)).expect("r");
        assert!(matches!(operating_point(&ckt), Err(SpiceError::SingularMatrix { .. })));
    }
}
