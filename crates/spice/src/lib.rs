//! A compact SPICE-class transient circuit simulator.
//!
//! The paper's Fig. 9 evaluates the RRAM automata-processor kernel with an
//! HSPICE transient simulation of a 256-cell bit-line discharge (32 nm PTM
//! transistors + the ASU RRAM compact model). This crate is the
//! from-scratch substitute: a modified-nodal-analysis (MNA) engine with
//!
//! * linear elements — [resistors](Circuit::add_resistor),
//!   [capacitors](Circuit::add_capacitor) (with initial conditions),
//!   independent [voltage](Circuit::add_vsource) and
//!   [current](Circuit::add_isource) sources driven by [`Waveform`]s, and
//!   time-controlled ideal [switches](Circuit::add_switch);
//! * nonlinear elements — level-1 (Shichman–Hodges) NMOS/PMOS
//!   transistors with channel-length modulation and lumped terminal
//!   capacitances, and any [`MemristiveDevice`] from `memcim-device`
//!   as a two-terminal [memristor element](Circuit::add_memristor);
//! * analyses — Newton–Raphson per timestep with voltage-step damping,
//!   backward-Euler or trapezoidal integration ([`Integration`]),
//!   per-element energy accounting, and `.measure`-style queries on the
//!   recorded [`Trace`] (threshold crossings, extrema, final values).
//!   The DC [operating point](operating_point) is the same MNA assembly
//!   and Newton solve at `t = 0`, with capacitors open.
//!
//! The solver is validated against closed-form RC responses (see the
//! `transient` tests) and is the calibration source for the analytical
//! bit-line model in `memcim-crossbar`.
//!
//! # Examples
//!
//! An RC discharge measured at its 1/e point:
//!
//! ```
//! use memcim_spice::{Circuit, Edge, Integration, Transient, Waveform};
//! use memcim_units::{Farads, Ohms, Seconds, Volts};
//!
//! # fn main() -> Result<(), memcim_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let a = ckt.node("a");
//! ckt.add_resistor("R1", a, Circuit::GROUND, Ohms::from_kilohms(1.0))?;
//! ckt.add_capacitor_with_ic("C1", a, Circuit::GROUND,
//!     Farads::from_picofarads(1.0), Volts::new(1.0))?;
//! let trace = Transient::new(Seconds::from_nanoseconds(5.0), Seconds::from_picoseconds(1.0))
//!     .with_integration(Integration::Trapezoidal)
//!     .run(&mut ckt)?;
//! let t = trace.cross_time("a", Volts::new(1.0 / std::f64::consts::E), Edge::Falling, Seconds::ZERO)
//!     .expect("must cross 1/e");
//! assert!((t.as_nanoseconds() - 1.0).abs() < 0.01); // τ = RC = 1 ns
//! # Ok(())
//! # }
//! ```

mod circuit;
mod error;
mod linalg;
mod mna;
mod mosfet;
mod op;
mod trace;
mod transient;
mod waveform;

pub use circuit::{Circuit, Node};
pub use error::SpiceError;
pub use linalg::SolverKind;
pub use mosfet::{MosfetKind, MosfetParams};
pub use op::{operating_point, OperatingPoint};
pub use trace::{Edge, Trace};
pub use transient::{Integration, Transient};
pub use waveform::Waveform;

pub use memcim_device::MemristiveDevice;

#[cfg(test)]
mod tests {
    //! Golden pins: exact `f64` bit patterns of DC operating points and
    //! transients, so a refactor of the MNA assembly or the Newton loop
    //! must reproduce every result bit for bit. The circuits call no
    //! libm transcendental function, so the pins are portable.

    use super::*;
    use memcim_device::{BehavioralSwitch, SwitchParams};
    use memcim_units::{Farads, Ohms, Seconds, Volts};

    const GND: Node = Circuit::GROUND;

    /// A 100 kΩ-loaded NMOS pull-down with a 2 fF load capacitor.
    fn inverter(gate: Waveform) -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("gate");
        let out = ckt.node("out");
        ckt.add_vsource("VDD", vdd, GND, Waveform::dc(Volts::new(1.0))).expect("vdd");
        ckt.add_vsource("VG", g, GND, gate).expect("vg");
        ckt.add_resistor("RL", vdd, out, Ohms::from_kilohms(100.0)).expect("rl");
        ckt.add_nmos("M1", out, g, GND, MosfetParams::ptm32_access_nmos()).expect("m1");
        ckt.add_capacitor("CL", out, GND, Farads::from_femtofarads(2.0)).expect("cl");
        ckt
    }

    /// Node voltages sorted by name, as bit patterns.
    fn op_bits(op: &OperatingPoint) -> Vec<(&str, u64)> {
        let mut bits: Vec<_> = op.iter().map(|(n, v)| (n, v.as_volts().to_bits())).collect();
        bits.sort_unstable();
        bits
    }

    /// FNV-1a over the little-endian bit patterns of `xs`.
    fn fnv(xs: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for x in xs {
            for byte in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn solves_are_pinned_bit_for_bit() {
        let pulldown = operating_point(&inverter(Waveform::dc(Volts::new(1.0)))).expect("op");
        assert_eq!(
            op_bits(&pulldown),
            [
                ("gate", 0x3ff0_0000_0000_0000),
                ("out", 0x3fa0_c26b_c83a_6361),
                ("vdd", 0x3ff0_0000_0000_0000)
            ]
        );

        let mut divider = Circuit::new();
        let vin = divider.node("vin");
        let out = divider.node("out");
        divider.add_vsource("V1", vin, GND, Waveform::dc(Volts::new(0.4))).expect("v");
        divider.add_resistor("R1", vin, out, Ohms::from_kilohms(1.0)).expect("r");
        let mut cell = BehavioralSwitch::new(SwitchParams::paper_fig9());
        cell.program(true).expect("on");
        divider.add_memristor("X1", out, GND, Box::new(cell)).expect("x");
        let divider = operating_point(&divider).expect("op");
        assert_eq!(
            op_bits(&divider),
            [("out", 0x3fc9_9999_9999_999a), ("vin", 0x3fd9_9999_9999_999a)]
        );

        // (integration, FNV of `out`, RL and M1 dissipation, total delivered)
        let pins = [
            (
                Integration::BackwardEuler,
                0xb407_4833_8834_e0e1,
                [0x3d15_ef2e_567b_57cd, 0x3cdc_67b5_5583_d121],
                0x3d17_ed39_8261_08f9,
            ),
            (
                Integration::Trapezoidal,
                0x1715_2c8e_ab5c_2124,
                [0x3d15_e93a_e278_4a35, 0x3cde_e473_86ee_e0e2],
                0x3d17_decd_82f7_b1d9,
            ),
        ];
        for (integration, out_hash, dissipated, delivered) in pins {
            let mut ckt = inverter(Waveform::step(
                Volts::ZERO,
                Volts::new(1.0),
                Seconds::from_nanoseconds(1.0),
                Seconds::from_picoseconds(10.0),
            ));
            let tr = Transient::new(Seconds::from_nanoseconds(3.0), Seconds::from_picoseconds(5.0))
                .with_integration(integration)
                .run(&mut ckt)
                .expect("run");
            assert_eq!(fnv(tr.voltage("out").expect("out")), out_hash, "{integration:?}");
            assert_eq!(
                ["RL", "M1"].map(|e| tr.dissipated_energy(e).as_joules().to_bits()),
                dissipated,
                "{integration:?}"
            );
            assert_eq!(
                tr.total_delivered_energy().as_joules().to_bits(),
                delivered,
                "{integration:?}"
            );
        }
    }
}
