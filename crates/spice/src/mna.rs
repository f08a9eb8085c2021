//! The modified-nodal-analysis system and its damped Newton solve.
//!
//! One assembly and one Newton loop serve every analysis: the DC
//! operating point is a solve at `t = 0` with capacitors open, and each
//! transient step is a solve at its own time with every capacitor
//! replaced by its integration companion. Unknowns `0..n` are the
//! non-ground node voltages; voltage-source branch currents follow, in
//! element order.

use crate::circuit::{Circuit, ElementKind};
use crate::linalg::{Matrix, SolverKind};
use crate::mosfet::{evaluate_nmos, MosfetKind, MosfetParams, GMIN};
use crate::transient::Integration;
use crate::SpiceError;
use memcim_units::Volts;

/// Newton converges once no node voltage moves by this much (volts).
const ABSTOL: f64 = 1.0e-9;
/// Largest per-iteration node-voltage move, so sinh-type device curves
/// cannot fling Newton off.
const MAX_STEP_VOLTS: f64 = 0.5;

/// How capacitors enter the system.
pub(crate) enum Capacitors<'a> {
    /// Open, as in DC; `GMIN` keeps capacitor-only nodes solvable.
    Open,
    /// The integration companion of a step of `h` seconds around each
    /// capacitor's `(voltage, current)` at the previous step, indexed
    /// by element.
    Companion { integration: Integration, h: f64, state: &'a [(f64, f64)] },
}

/// Newton's iteration budget and linear-solver policy for one solve.
#[derive(Clone, Copy)]
pub(crate) struct Limits {
    pub max_newton: usize,
    pub solver: SolverKind,
}

/// The MNA system of one circuit, reused across solves so the
/// Newton-per-timestep call pattern stays allocation-free.
pub(crate) struct Mna {
    /// Non-ground node count.
    n: usize,
    /// Each element's branch-current unknown (meaningful for voltage
    /// sources only).
    branch: Vec<usize>,
    a_mat: Matrix,
    rhs: Vec<f64>,
}

/// The voltage of `node` in the solution `x` (ground is zero).
pub(crate) fn volt(x: &[f64], node: usize) -> f64 {
    if node == 0 {
        0.0
    } else {
        x[node - 1]
    }
}

impl Mna {
    pub fn new(ckt: &Circuit) -> Self {
        let n = ckt.node_count() - 1;
        let mut next = n;
        let branch = ckt
            .elements
            .iter()
            .map(|e| {
                let br = next;
                if matches!(e.kind, ElementKind::VSource { .. }) {
                    next += 1;
                }
                br
            })
            .collect();
        Self { n, branch, a_mat: Matrix::zeros(next), rhs: vec![0.0; next] }
    }

    /// The branch-current unknown of the voltage source at element `ei`.
    pub fn branch(&self, ei: usize) -> usize {
        self.branch[ei]
    }

    /// The starting solution: node initial conditions, zero elsewhere.
    pub fn initial_x(&self, ckt: &Circuit) -> Vec<f64> {
        let mut x = vec![0.0; self.rhs.len()];
        for (&node, &v) in &ckt.initial_conditions {
            if node != 0 {
                x[node - 1] = v;
            }
        }
        x
    }

    /// Solves the system at time `t` by damped Newton iteration from
    /// the guess `x`, leaving the converged solution in `x`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] for floating nodes or
    /// voltage-source loops, [`SpiceError::NonConvergence`] when the
    /// iteration budget runs out.
    pub fn solve(
        &mut self,
        ckt: &Circuit,
        x: &mut [f64],
        t: f64,
        capacitors: &Capacitors<'_>,
        limits: Limits,
    ) -> Result<(), SpiceError> {
        let mut residual = f64::INFINITY;
        for _ in 0..limits.max_newton {
            self.assemble(ckt, x, t, capacitors);
            // The solve overwrites `rhs` with the Newton iterate.
            if self.a_mat.solve_in_place(&mut self.rhs, limits.solver).is_none() {
                return Err(SpiceError::SingularMatrix { time: t });
            }
            let x_new = &self.rhs;
            residual = x_new
                .iter()
                .zip(&*x)
                .take(self.n)
                .map(|(new, old)| (new - old).abs())
                .fold(0.0, f64::max);
            if residual < ABSTOL {
                x.copy_from_slice(x_new);
                return Ok(());
            }
            for (k, (old, new)) in x.iter_mut().zip(x_new).enumerate() {
                let delta = new - *old;
                *old +=
                    if k < self.n { delta.clamp(-MAX_STEP_VOLTS, MAX_STEP_VOLTS) } else { delta };
            }
        }
        Err(SpiceError::NonConvergence { time: t, residual })
    }

    /// Stamps every element, in element order, linearized around `x`.
    fn assemble(&mut self, ckt: &Circuit, x: &[f64], t: f64, capacitors: &Capacitors<'_>) {
        let Self { a_mat, rhs, branch, .. } = self;
        a_mat.clear();
        rhs.fill(0.0);
        for (ei, e) in ckt.elements.iter().enumerate() {
            match &e.kind {
                ElementKind::Resistor { a, b, g } => stamp_conductance(a_mat, *a, *b, *g),
                ElementKind::Switch { a, b, g_on, g_off, control, threshold } => {
                    let g = if control.evaluate(t) > *threshold { *g_on } else { *g_off };
                    stamp_conductance(a_mat, *a, *b, g);
                }
                ElementKind::Capacitor { a, b, c } => match *capacitors {
                    Capacitors::Open => stamp_conductance(a_mat, *a, *b, GMIN),
                    Capacitors::Companion { integration, h, state } => {
                        let (v, i) = state[ei];
                        let (geq, hist) = match integration {
                            Integration::BackwardEuler => {
                                let geq = c / h;
                                (geq, geq * v)
                            }
                            Integration::Trapezoidal => {
                                let geq = 2.0 * c / h;
                                (geq, geq * v + i)
                            }
                        };
                        stamp_conductance(a_mat, *a, *b, geq);
                        stamp_current(rhs, *a, *b, -hist);
                    }
                },
                ElementKind::VSource { a, b, w } => {
                    let br = branch[ei];
                    if *a != 0 {
                        a_mat.add(a - 1, br, 1.0);
                        a_mat.add(br, a - 1, 1.0);
                    }
                    if *b != 0 {
                        a_mat.add(b - 1, br, -1.0);
                        a_mat.add(br, b - 1, -1.0);
                    }
                    rhs[br] = w.evaluate(t);
                }
                ElementKind::ISource { a, b, w } => stamp_current(rhs, *a, *b, w.evaluate(t)),
                ElementKind::Memristor { a, b, device } => {
                    let v0 = volt(x, *a) - volt(x, *b);
                    let i0 = device.current(Volts::new(v0)).as_amps();
                    let g = device.conductance(Volts::new(v0)).as_siemens().max(GMIN);
                    stamp_conductance(a_mat, *a, *b, g);
                    stamp_current(rhs, *a, *b, i0 - g * v0);
                }
                ElementKind::Mosfet { d, g, s, params, kind } => {
                    stamp_mosfet(a_mat, rhs, x, (*d, *g, *s), params, *kind);
                }
            }
        }
    }
}

/// Stamps a two-terminal conductance into the MNA matrix.
fn stamp_conductance(a_mat: &mut Matrix, a: usize, b: usize, g: f64) {
    if a != 0 {
        a_mat.add(a - 1, a - 1, g);
    }
    if b != 0 {
        a_mat.add(b - 1, b - 1, g);
    }
    if a != 0 && b != 0 {
        a_mat.add(a - 1, b - 1, -g);
        a_mat.add(b - 1, a - 1, -g);
    }
}

/// Stamps a current `i` flowing out of node `a` into node `b`.
fn stamp_current(rhs: &mut [f64], a: usize, b: usize, i: f64) {
    if a != 0 {
        rhs[a - 1] -= i;
    }
    if b != 0 {
        rhs[b - 1] += i;
    }
}

/// Stamps a linearized MOSFET. The channel current is expressed as a
/// function of the three terminal voltages; `out` is the terminal the
/// current leaves, `in_` the terminal it enters.
fn stamp_mosfet(
    a_mat: &mut Matrix,
    rhs: &mut [f64],
    x: &[f64],
    (d, g, s): (usize, usize, usize),
    params: &MosfetParams,
    kind: MosfetKind,
) {
    let (vd, vg, vs) = (volt(x, d), volt(x, g), volt(x, s));

    // Express the channel current I leaving `out`, with partial
    // derivatives w.r.t. (vd, vg, vs).
    let (out, in_, i0, di_dd, di_dg, di_ds) = match kind {
        MosfetKind::Nmos => {
            let op = evaluate_nmos(params, vg - vs, vd - vs);
            // I = Ids(vgs, vds): ∂/∂vd = gds, ∂/∂vg = gm, ∂/∂vs = −gm−gds.
            (d, s, op.ids, op.gds, op.gm, -op.gm - op.gds)
        }
        MosfetKind::Pmos => {
            let op = evaluate_nmos(params, vs - vg, vs - vd);
            // I flows source→drain: I = Ids'(vsg, vsd):
            // ∂/∂vs = gm' + gds', ∂/∂vg = −gm', ∂/∂vd = −gds'.
            (s, d, op.ids, -op.gds, -op.gm, op.gm + op.gds)
        }
    };

    let ieq = i0 - di_dd * vd - di_dg * vg - di_ds * vs;
    let mut stamp_row = |node: usize, sign: f64| {
        if node == 0 {
            return;
        }
        let r = node - 1;
        if d != 0 {
            a_mat.add(r, d - 1, sign * di_dd);
        }
        if g != 0 {
            a_mat.add(r, g - 1, sign * di_dg);
        }
        if s != 0 {
            a_mat.add(r, s - 1, sign * di_ds);
        }
        rhs[r] -= sign * ieq;
    };
    stamp_row(out, 1.0);
    stamp_row(in_, -1.0);

    // GMIN drain–source keeps cutoff devices from floating their nodes.
    stamp_conductance(a_mat, d, s, GMIN);
}
