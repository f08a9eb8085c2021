//! Transient analysis: one damped Newton solve of the MNA system per
//! timestep.

use crate::circuit::{Circuit, ElementKind};
use crate::linalg::SolverKind;
use crate::mna::{volt, Capacitors, Limits, Mna};
use crate::mosfet::{evaluate_nmos, MosfetKind};
use crate::trace::Trace;
use crate::SpiceError;
use memcim_units::{Seconds, Volts};

/// Numerical integration method for charge-storage elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integration {
    /// First-order, L-stable; the robust default.
    #[default]
    BackwardEuler,
    /// Second-order; preferred for accuracy measurements against
    /// closed-form responses (design decision D4).
    Trapezoidal,
}

/// A fixed-step transient analysis.
///
/// See the crate-level example for typical use. Node initial conditions
/// come from [`Circuit::set_initial_voltage`] /
/// [`Circuit::add_capacitor_with_ic`]; the state at `t = 0` is recorded
/// as-is (no DC operating point is computed — precharged-capacitor
/// circuits, the dominant use case here, start from their ICs exactly as
/// the paper's experiment does).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transient {
    t_stop: f64,
    dt: f64,
    integration: Integration,
    solver: SolverKind,
}

/// The Newton iteration budget per timestep.
const MAX_NEWTON: usize = 100;

impl Transient {
    /// Creates an analysis running to `t_stop` with fixed step `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` or `dt` is not strictly positive, or if `dt`
    /// exceeds `t_stop`.
    pub fn new(t_stop: Seconds, dt: Seconds) -> Self {
        assert!(t_stop.as_seconds() > 0.0, "t_stop must be > 0");
        assert!(dt.as_seconds() > 0.0, "dt must be > 0");
        assert!(dt.as_seconds() <= t_stop.as_seconds(), "dt must not exceed t_stop");
        Self {
            t_stop: t_stop.as_seconds(),
            dt: dt.as_seconds(),
            integration: Integration::BackwardEuler,
            solver: SolverKind::default(),
        }
    }

    /// Selects the integration method.
    #[must_use]
    pub fn with_integration(mut self, integration: Integration) -> Self {
        self.integration = integration;
        self
    }

    /// Selects the linear solver policy ([`SolverKind::Auto`] by
    /// default). [`SolverKind::DenseLu`] disables the tridiagonal fast
    /// path — useful for cross-validating the two factorizations on the
    /// same netlist, as the Fig. 9 calibration test does.
    #[must_use]
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Runs the analysis, advancing memristor states inside the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] for floating nodes or
    /// voltage-source loops and [`SpiceError::NonConvergence`] if Newton
    /// fails within its iteration budget.
    pub fn run(&self, ckt: &mut Circuit) -> Result<Trace, SpiceError> {
        let h = self.dt;
        let steps = (self.t_stop / h).round() as usize;
        let mut mna = Mna::new(ckt);
        let mut x = mna.initial_x(ckt);
        let limits = Limits { max_newton: MAX_NEWTON, solver: self.solver };

        // Per-capacitor integration state (v across, current through),
        // indexed by element.
        let mut cap_state: Vec<(f64, f64)> = ckt
            .elements
            .iter()
            .map(|e| match e.kind {
                ElementKind::Capacitor { a, b, .. } => (volt(&x, a) - volt(&x, b), 0.0),
                _ => (0.0, 0.0),
            })
            .collect();

        // Energy accounting.
        let mut prev_power = vec![0.0; ckt.elements.len()];
        let mut prev_delivered = vec![0.0; ckt.elements.len()];
        let mut dissipated = vec![0.0; ckt.elements.len()];
        let mut delivered = vec![0.0; ckt.elements.len()];

        // Recorded signals: every node voltage, then every voltage
        // source's branch current, each one unknown of `x`.
        let (names, unknowns): (Vec<String>, Vec<usize>) = ckt
            .nodes()
            .map(|(name, node)| (name.to_string(), node.0 - 1))
            .chain(
                ckt.elements
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| matches!(e.kind, ElementKind::VSource { .. }))
                    .map(|(ei, e)| (format!("I({})", e.name), mna.branch(ei))),
            )
            .unzip();
        let mut time = Vec::with_capacity(steps + 1);
        let mut samples: Vec<Vec<f64>> =
            unknowns.iter().map(|_| Vec::with_capacity(steps + 1)).collect();
        let mut record = |t: f64, x: &[f64]| {
            time.push(t);
            for (signal, &k) in samples.iter_mut().zip(&unknowns) {
                signal.push(x[k]);
            }
        };
        record(0.0, &x);

        for step in 1..=steps {
            let t = step as f64 * h;
            // The capacitor branch current at t = 0 is unknown (no DC
            // operating point is computed), so trapezoidal integration
            // would start from an inconsistent history and ring without
            // damping. Take the first step with backward Euler, which
            // needs no current history, then hand over.
            let integration = if step == 1 { Integration::BackwardEuler } else { self.integration };
            let capacitors = Capacitors::Companion { integration, h, state: &cap_state };
            mna.solve(ckt, &mut x, t, &capacitors, limits)?;

            // Accept the step: advance storage elements and device states,
            // integrate energies.
            for (ei, e) in ckt.elements.iter_mut().enumerate() {
                let (power, deliv) = match &mut e.kind {
                    ElementKind::Resistor { a, b, g } => {
                        let v = volt(&x, *a) - volt(&x, *b);
                        (*g * v * v, 0.0)
                    }
                    ElementKind::Switch { a, b, g_on, g_off, control, threshold } => {
                        let g = if control.evaluate(t) > *threshold { *g_on } else { *g_off };
                        let v = volt(&x, *a) - volt(&x, *b);
                        (g * v * v, 0.0)
                    }
                    ElementKind::Capacitor { a, b, c } => {
                        let v_now = volt(&x, *a) - volt(&x, *b);
                        let (v_old, i_old) = cap_state[ei];
                        let i_now = match integration {
                            Integration::BackwardEuler => *c / h * (v_now - v_old),
                            Integration::Trapezoidal => 2.0 * *c / h * (v_now - v_old) - i_old,
                        };
                        cap_state[ei] = (v_now, i_now);
                        (0.0, 0.0)
                    }
                    ElementKind::VSource { w, .. } => {
                        let i_br = x[mna.branch(ei)];
                        let v = w.evaluate(t);
                        (0.0, -v * i_br)
                    }
                    ElementKind::ISource { a, b, w } => {
                        let i = w.evaluate(t);
                        let v = volt(&x, *a) - volt(&x, *b);
                        // Pushing current a→b against v(a,b): delivers −v·i.
                        (0.0, -v * i)
                    }
                    ElementKind::Memristor { a, b, device } => {
                        let v = volt(&x, *a) - volt(&x, *b);
                        let p = v * device.current(Volts::new(v)).as_amps();
                        device.step(Volts::new(v), Seconds::new(h));
                        (p, 0.0)
                    }
                    ElementKind::Mosfet { d, g, s, params, kind } => {
                        let (vgs, vds) = match kind {
                            MosfetKind::Nmos => {
                                (volt(&x, *g) - volt(&x, *s), volt(&x, *d) - volt(&x, *s))
                            }
                            MosfetKind::Pmos => {
                                (volt(&x, *s) - volt(&x, *g), volt(&x, *s) - volt(&x, *d))
                            }
                        };
                        let op = evaluate_nmos(params, vgs, vds);
                        (op.ids.abs() * vds.abs(), 0.0)
                    }
                };
                // Trapezoidal energy integration per element.
                let e_diss = 0.5 * (prev_power[ei] + power) * h;
                let e_del = 0.5 * (prev_delivered[ei] + deliv) * h;
                prev_power[ei] = power;
                prev_delivered[ei] = deliv;
                dissipated[ei] += e_diss;
                delivered[ei] += e_del;
            }

            record(t, &x);
        }

        let signals = names.into_iter().zip(samples).collect();
        let elements = ckt.elements.iter().map(|e| e.name.clone()).collect();
        Ok(Trace { time, signals, elements, dissipated, delivered })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::mosfet::MosfetParams;
    use crate::trace::Edge;
    use crate::waveform::Waveform;
    use memcim_device::{
        BehavioralSwitch, MemristiveDevice, StanfordAsu, StanfordParams, SwitchParams,
    };
    use memcim_units::{Farads, Ohms};

    const GND: crate::circuit::Node = Circuit::GROUND;

    #[test]
    fn resistive_divider_solves_exactly() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.add_vsource("V1", vin, GND, Waveform::dc(Volts::new(1.0))).expect("v1");
        ckt.add_resistor("R1", vin, out, Ohms::from_kilohms(1.0)).expect("r1");
        ckt.add_resistor("R2", out, GND, Ohms::from_kilohms(3.0)).expect("r2");
        let tr = Transient::new(Seconds::from_nanoseconds(1.0), Seconds::from_picoseconds(100.0))
            .run(&mut ckt)
            .expect("run");
        assert!((tr.final_value("out").expect("out") - 0.75).abs() < 1e-9);
        // Branch current: 1 V across 4 kΩ = 0.25 mA, flowing into the
        // source's + terminal with negative sign.
        assert!((tr.final_value("I(V1)").expect("cur") + 0.25e-3).abs() < 1e-9);
    }

    #[test]
    fn rc_discharge_matches_closed_form() {
        // τ = 1 kΩ · 1 pF = 1 ns; v(t) = exp(−t/τ).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor("R", a, GND, Ohms::from_kilohms(1.0)).expect("r");
        ckt.add_capacitor_with_ic("C", a, GND, Farads::from_picofarads(1.0), Volts::new(1.0))
            .expect("c");
        let tr = Transient::new(Seconds::from_nanoseconds(3.0), Seconds::from_picoseconds(1.0))
            .with_integration(Integration::Trapezoidal)
            .run(&mut ckt)
            .expect("run");
        for (frac, t_ns) in [(0.5_f64, std::f64::consts::LN_2), (1.0 / std::f64::consts::E, 1.0)] {
            let t = tr
                .cross_time("a", Volts::new(frac), Edge::Falling, Seconds::ZERO)
                .expect("crossing");
            assert!(
                (t.as_nanoseconds() - t_ns).abs() < 0.005,
                "level {frac}: t = {} ns",
                t.as_nanoseconds()
            );
        }
    }

    #[test]
    fn backward_euler_is_less_accurate_but_stable() {
        // Design decision D4: measure the integrator error directly.
        let run = |integration: Integration, dt_ps: f64| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            ckt.add_resistor("R", a, GND, Ohms::from_kilohms(1.0)).expect("r");
            ckt.add_capacitor_with_ic("C", a, GND, Farads::from_picofarads(1.0), Volts::new(1.0))
                .expect("c");
            let tr =
                Transient::new(Seconds::from_nanoseconds(1.0), Seconds::from_picoseconds(dt_ps))
                    .with_integration(integration)
                    .run(&mut ckt)
                    .expect("run");
            let v = tr.final_value("a").expect("a");
            (v - (-1.0_f64).exp()).abs()
        };
        let be = run(Integration::BackwardEuler, 10.0);
        let trap = run(Integration::Trapezoidal, 10.0);
        assert!(trap < be / 10.0, "trap err {trap} vs BE err {be}");
        // BE halves its error roughly linearly with dt (first order).
        let be_fine = run(Integration::BackwardEuler, 5.0);
        let ratio = be / be_fine;
        assert!((1.6..2.6).contains(&ratio), "BE order ratio = {ratio}");
    }

    #[test]
    fn rc_charge_through_step_source() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.add_vsource(
            "V1",
            vin,
            GND,
            Waveform::step(
                Volts::ZERO,
                Volts::new(1.0),
                Seconds::from_nanoseconds(1.0),
                Seconds::from_picoseconds(1.0),
            ),
        )
        .expect("v1");
        ckt.add_resistor("R", vin, out, Ohms::from_kilohms(1.0)).expect("r");
        ckt.add_capacitor("C", out, GND, Farads::from_picofarads(1.0)).expect("c");
        let tr = Transient::new(Seconds::from_nanoseconds(6.0), Seconds::from_picoseconds(2.0))
            .with_integration(Integration::Trapezoidal)
            .run(&mut ckt)
            .expect("run");
        // 63.2 % at t = delay + τ.
        let v_at_tau = tr.value_at("out", Seconds::from_nanoseconds(2.0)).expect("v");
        assert!((v_at_tau - 0.632).abs() < 0.01, "v(τ) = {v_at_tau}");
        // Energy balance: source delivers C·V² = 1 pJ; half is stored,
        // half dissipated in the resistor.
        let e_r = tr.dissipated_energy("R").as_joules();
        assert!((e_r - 0.5e-12).abs() < 0.02e-12, "E_R = {e_r}");
        let e_src = tr.delivered_energy("V1").as_joules();
        assert!((e_src - 1.0e-12).abs() < 0.04e-12, "E_src = {e_src}");
    }

    #[test]
    fn floating_node_reports_singular_matrix() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        // `b` floats: only one resistor terminal touches it... and nothing
        // else. Actually wire a–b resistor and leave both unconnected to
        // any source or ground: the whole subcircuit floats.
        ckt.add_resistor("R", a, b, Ohms::new(1.0)).expect("r");
        let err = Transient::new(Seconds::from_nanoseconds(1.0), Seconds::from_picoseconds(100.0))
            .run(&mut ckt)
            .expect_err("floating");
        assert!(matches!(err, SpiceError::SingularMatrix { .. }));
    }

    #[test]
    fn nmos_inverter_switches() {
        // NMOS pulldown with resistor load: gate high → out low.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("gate");
        let out = ckt.node("out");
        ckt.add_vsource("VDD", vdd, GND, Waveform::dc(Volts::new(1.0))).expect("vdd");
        ckt.add_vsource(
            "VG",
            gate,
            GND,
            Waveform::step(
                Volts::ZERO,
                Volts::new(1.0),
                Seconds::from_nanoseconds(1.0),
                Seconds::from_picoseconds(10.0),
            ),
        )
        .expect("vg");
        ckt.add_resistor("RL", vdd, out, Ohms::from_kilohms(100.0)).expect("rl");
        ckt.add_nmos("M1", out, gate, GND, MosfetParams::ptm32_access_nmos()).expect("m1");
        let tr = Transient::new(Seconds::from_nanoseconds(4.0), Seconds::from_picoseconds(2.0))
            .run(&mut ckt)
            .expect("run");
        // Before the edge the pulldown is off: out ≈ VDD.
        assert!(tr.value_at("out", Seconds::from_nanoseconds(0.9)).expect("v") > 0.95);
        // Well after the edge: out pulled to ≈ R_on/(R_on+RL) · VDD ≈ 32 mV.
        let v_low = tr.final_value("out").expect("v");
        assert!(v_low < 0.06, "v_low = {v_low}");
    }

    #[test]
    fn pmos_pullup_mirrors_nmos() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("gate");
        let out = ckt.node("out");
        ckt.add_vsource("VDD", vdd, GND, Waveform::dc(Volts::new(1.0))).expect("vdd");
        // Gate low → PMOS on.
        ckt.add_vsource("VG", gate, GND, Waveform::dc(Volts::ZERO)).expect("vg");
        ckt.add_pmos("M1", out, gate, vdd, MosfetParams::ptm32_access_nmos()).expect("m1");
        ckt.add_resistor("RL", out, GND, Ohms::from_kilohms(100.0)).expect("rl");
        let tr = Transient::new(Seconds::from_nanoseconds(3.0), Seconds::from_picoseconds(2.0))
            .run(&mut ckt)
            .expect("run");
        let v = tr.final_value("out").expect("v");
        assert!(v > 0.94, "pull-up failed: out = {v}");
    }

    #[test]
    fn switch_connects_and_disconnects() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.add_vsource("V1", vin, GND, Waveform::dc(Volts::new(1.0))).expect("v1");
        ckt.add_switch(
            "S1",
            vin,
            out,
            Ohms::new(1.0),
            Ohms::from_megohms(1.0e6),
            Waveform::pulse(
                Volts::ZERO,
                Volts::new(1.0),
                Seconds::from_nanoseconds(1.0),
                Seconds::from_nanoseconds(1.0),
                Seconds::from_picoseconds(1.0),
            ),
            Volts::new(0.5),
        )
        .expect("s1");
        ckt.add_resistor("RL", out, GND, Ohms::from_kilohms(1.0)).expect("rl");
        let tr = Transient::new(Seconds::from_nanoseconds(4.0), Seconds::from_picoseconds(5.0))
            .run(&mut ckt)
            .expect("run");
        assert!(tr.value_at("out", Seconds::from_nanoseconds(0.5)).expect("v") < 0.01);
        assert!(tr.value_at("out", Seconds::from_nanoseconds(1.5)).expect("v") > 0.99);
        assert!(tr.value_at("out", Seconds::from_nanoseconds(3.5)).expect("v") < 0.01);
    }

    #[test]
    fn memristor_behaves_as_programmed_resistor_below_threshold() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.add_vsource("V1", vin, GND, Waveform::dc(Volts::new(0.4))).expect("v1");
        ckt.add_resistor("R1", vin, out, Ohms::from_kilohms(1.0)).expect("r1");
        let mut cell = BehavioralSwitch::new(SwitchParams::paper_fig9());
        cell.program(true).expect("program");
        ckt.add_memristor("X1", out, GND, Box::new(cell)).expect("x1");
        let tr = Transient::new(Seconds::from_nanoseconds(2.0), Seconds::from_picoseconds(10.0))
            .run(&mut ckt)
            .expect("run");
        // 1 kΩ / (1 kΩ + 1 kΩ) divider.
        assert!((tr.final_value("out").expect("v") - 0.2).abs() < 1e-6);
        // Read is non-destructive.
        assert_eq!(ckt.memristor_state("X1"), Some(1.0));
    }

    #[test]
    fn stanford_cell_sets_during_transient() {
        // Drive a full SET through the nonlinear sinh device inside the
        // solver: Newton must converge with damping.
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.add_vsource(
            "V1",
            vin,
            GND,
            Waveform::step(
                Volts::ZERO,
                Volts::new(2.0),
                Seconds::from_nanoseconds(1.0),
                Seconds::from_picoseconds(100.0),
            ),
        )
        .expect("v1");
        ckt.add_resistor("R1", vin, out, Ohms::from_kilohms(10.0)).expect("r1");
        let mut cell = StanfordAsu::new(StanfordParams::default());
        cell.set_normalized_state(0.0);
        ckt.add_memristor("X1", out, GND, Box::new(cell)).expect("x1");
        let tr = Transient::new(Seconds::from_nanoseconds(80.0), Seconds::from_picoseconds(20.0))
            .run(&mut ckt)
            .expect("newton must converge");
        let final_state = ckt.memristor_state("X1").expect("memristor");
        assert!(final_state > 0.9, "state = {final_state}");
        // After SET the 1 kΩ-class device forms a divider with 10 kΩ:
        // out collapses towards ~0.2 V.
        assert!(tr.final_value("out").expect("v") < 0.5);
    }

    #[test]
    fn energy_totals_sum_in_netlist_order() {
        // Three sources feed one node through resistors of different
        // magnitudes; a ladder of five more resistors drains it. With
        // eight dissipating elements and three delivering ones, the
        // totals depend on summation order, so they must be the plain
        // netlist-order sums of the per-element energies.
        let mut ckt = Circuit::new();
        let hub = ckt.node("hub");
        let mut dissipating = Vec::new();
        for (k, volts) in [0.3, 0.7, 1.1].into_iter().enumerate() {
            let src = ckt.node(&format!("s{k}"));
            let (v, r) = (format!("V{k}"), format!("RS{k}"));
            ckt.add_vsource(&v, src, GND, Waveform::dc(Volts::new(volts))).expect("v");
            ckt.add_resistor(&r, src, hub, Ohms::new(137.0 * 3.1f64.powi(k as i32))).expect("r");
            dissipating.push(r);
        }
        let mut prev = hub;
        for k in 0..5 {
            let next = if k == 4 { GND } else { ckt.node(&format!("l{k}")) };
            let r = format!("RL{k}");
            ckt.add_resistor(&r, prev, next, Ohms::new(91.0 + 53.0 * k as f64)).expect("r");
            dissipating.push(r);
            prev = next;
        }
        ckt.add_capacitor("C1", hub, GND, Farads::from_picofarads(0.1)).expect("c");
        let tr = Transient::new(Seconds::from_nanoseconds(1.0), Seconds::from_picoseconds(10.0))
            .run(&mut ckt)
            .expect("run");
        let in_order = |f: &dyn Fn(&str) -> f64, names: &[String]| {
            names.iter().fold(0.0, |acc, name| acc + f(name))
        };
        let dissipated = in_order(&|n| tr.dissipated_energy(n).as_joules(), &dissipating);
        assert!(dissipated > 0.0);
        assert_eq!(tr.total_dissipated_energy().as_joules().to_bits(), dissipated.to_bits());
        let sources = ["V0", "V1", "V2"].map(String::from);
        let delivered = in_order(&|n| tr.delivered_energy(n).as_joules(), &sources);
        assert!(delivered > 0.0);
        assert_eq!(tr.total_delivered_energy().as_joules().to_bits(), delivered.to_bits());
    }

    #[test]
    fn energy_conservation_on_rc_cycle() {
        // Charge then discharge a capacitor through resistors: all energy
        // delivered by the source ends up dissipated (cap returns to 0 V).
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.add_vsource(
            "V1",
            vin,
            GND,
            Waveform::pulse(
                Volts::ZERO,
                Volts::new(1.0),
                Seconds::from_nanoseconds(1.0),
                Seconds::from_nanoseconds(20.0),
                Seconds::from_picoseconds(10.0),
            ),
        )
        .expect("v1");
        ckt.add_resistor("R1", vin, out, Ohms::from_kilohms(1.0)).expect("r1");
        ckt.add_capacitor("C1", out, GND, Farads::from_picofarads(1.0)).expect("c1");
        let tr = Transient::new(Seconds::from_nanoseconds(50.0), Seconds::from_picoseconds(10.0))
            .with_integration(Integration::Trapezoidal)
            .run(&mut ckt)
            .expect("run");
        assert!(tr.final_value("out").expect("v").abs() < 1e-3);
        let delivered = tr.total_delivered_energy().as_joules();
        let dissipated = tr.total_dissipated_energy().as_joules();
        assert!(
            (delivered - dissipated).abs() < 0.03 * delivered.abs().max(1e-15),
            "delivered {delivered} vs dissipated {dissipated}"
        );
    }
}
