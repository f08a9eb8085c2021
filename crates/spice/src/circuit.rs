//! Netlist construction: nodes and elements.

use crate::mosfet::{MosfetKind, MosfetParams};
use crate::waveform::Waveform;
use crate::SpiceError;
use memcim_device::MemristiveDevice;
use memcim_units::{Farads, Ohms, Volts};
use std::collections::{HashMap, HashSet};

/// A circuit node handle.
///
/// Obtain nodes from [`Circuit::node`]; the ground reference is
/// [`Circuit::GROUND`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node(pub(crate) usize);

/// An element of the netlist.
#[derive(Debug)]
pub(crate) struct Element {
    pub name: String,
    pub kind: ElementKind,
}

pub(crate) enum ElementKind {
    Resistor {
        a: usize,
        b: usize,
        g: f64,
    },
    Capacitor {
        a: usize,
        b: usize,
        c: f64,
    },
    VSource {
        a: usize,
        b: usize,
        w: Waveform,
    },
    ISource {
        a: usize,
        b: usize,
        w: Waveform,
    },
    /// Ideal switch: conducts `g_on` while `control(t) > threshold`,
    /// `g_off` otherwise.
    Switch {
        a: usize,
        b: usize,
        g_on: f64,
        g_off: f64,
        control: Waveform,
        threshold: f64,
    },
    Memristor {
        a: usize,
        b: usize,
        device: Box<dyn MemristiveDevice + Send>,
    },
    Mosfet {
        d: usize,
        g: usize,
        s: usize,
        params: MosfetParams,
        kind: MosfetKind,
    },
}

impl std::fmt::Debug for ElementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElementKind::Resistor { a, b, g } => {
                write!(f, "Resistor({a}-{b}, g={g})")
            }
            ElementKind::Capacitor { a, b, c } => write!(f, "Capacitor({a}-{b}, c={c})"),
            ElementKind::VSource { a, b, .. } => write!(f, "VSource({a}-{b})"),
            ElementKind::ISource { a, b, .. } => write!(f, "ISource({a}-{b})"),
            ElementKind::Switch { a, b, .. } => write!(f, "Switch({a}-{b})"),
            ElementKind::Memristor { a, b, .. } => write!(f, "Memristor({a}-{b})"),
            ElementKind::Mosfet { d, g, s, kind, .. } => {
                write!(f, "Mosfet({kind:?}, d={d} g={g} s={s})")
            }
        }
    }
}

/// A circuit under construction: interned named nodes plus a list of
/// elements.
///
/// # Examples
///
/// ```
/// use memcim_spice::{Circuit, Waveform};
/// use memcim_units::{Ohms, Volts};
///
/// # fn main() -> Result<(), memcim_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vdd = ckt.node("vdd");
/// let out = ckt.node("out");
/// ckt.add_vsource("V1", vdd, Circuit::GROUND, Waveform::dc(Volts::new(1.0)))?;
/// ckt.add_resistor("R1", vdd, out, Ohms::from_kilohms(1.0))?;
/// ckt.add_resistor("R2", out, Circuit::GROUND, Ohms::from_kilohms(1.0))?;
/// assert_eq!(ckt.node_count(), 3); // ground + 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    name_to_node: HashMap<String, usize>,
    pub(crate) elements: Vec<Element>,
    element_names: HashSet<String>,
    /// Node-index → initial voltage at `t = 0`.
    pub(crate) initial_conditions: HashMap<usize, f64>,
}

impl Circuit {
    /// The ground (reference) node.
    pub const GROUND: Node = Node(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut c = Self {
            node_names: vec!["0".to_string()],
            name_to_node: HashMap::new(),
            elements: Vec::new(),
            element_names: HashSet::new(),
            initial_conditions: HashMap::new(),
        };
        c.name_to_node.insert("0".to_string(), 0);
        c
    }

    /// Returns the node with the given name, creating it if needed.
    /// The name `"0"` is the ground node.
    pub fn node(&mut self, name: &str) -> Node {
        if let Some(&idx) = self.name_to_node.get(name) {
            return Node(idx);
        }
        let idx = self.node_names.len();
        self.node_names.push(name.to_string());
        self.name_to_node.insert(name.to_string(), idx);
        Node(idx)
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// The name of a node.
    pub fn node_name(&self, node: Node) -> &str {
        &self.node_names[node.0]
    }

    /// Iterates over `(name, Node)` pairs, excluding ground.
    pub fn nodes(&self) -> impl Iterator<Item = (&str, Node)> + '_ {
        self.node_names.iter().enumerate().skip(1).map(|(i, n)| (n.as_str(), Node(i)))
    }

    /// Sets a node's initial voltage for transient analysis.
    pub fn set_initial_voltage(&mut self, node: Node, v: Volts) {
        if node.0 != 0 {
            self.initial_conditions.insert(node.0, v.as_volts());
        }
    }

    fn check_name(&mut self, name: &str) -> Result<(), SpiceError> {
        if !self.element_names.insert(name.to_string()) {
            return Err(SpiceError::DuplicateElement { name: name.to_string() });
        }
        Ok(())
    }

    fn check_node(&self, n: Node) -> Result<usize, SpiceError> {
        if n.0 >= self.node_names.len() {
            return Err(SpiceError::UnknownNode { index: n.0 });
        }
        Ok(n.0)
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] for a non-positive resistance,
    /// [`SpiceError::DuplicateElement`] for a reused name.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        r: Ohms,
    ) -> Result<(), SpiceError> {
        if r.as_ohms().partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(SpiceError::InvalidValue {
                element: name.to_string(),
                constraint: "resistance must be > 0",
            });
        }
        let (a, b) = (self.check_node(a)?, self.check_node(b)?);
        self.check_name(name)?;
        self.elements.push(Element {
            name: name.to_string(),
            kind: ElementKind::Resistor { a, b, g: 1.0 / r.as_ohms() },
        });
        Ok(())
    }

    /// Adds a capacitor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] for a non-positive capacitance,
    /// [`SpiceError::DuplicateElement`] for a reused name.
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        c: Farads,
    ) -> Result<(), SpiceError> {
        if c.as_farads().partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(SpiceError::InvalidValue {
                element: name.to_string(),
                constraint: "capacitance must be > 0",
            });
        }
        let (a, b) = (self.check_node(a)?, self.check_node(b)?);
        self.check_name(name)?;
        self.elements.push(Element {
            name: name.to_string(),
            kind: ElementKind::Capacitor { a, b, c: c.as_farads() },
        });
        Ok(())
    }

    /// Adds a capacitor with an initial voltage `v(a) − v(b) = ic` at
    /// `t = 0` (the IC is applied to node `a`, referenced to `b`'s IC or
    /// ground).
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::add_capacitor`].
    pub fn add_capacitor_with_ic(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        c: Farads,
        ic: Volts,
    ) -> Result<(), SpiceError> {
        self.add_capacitor(name, a, b, c)?;
        let base = self.initial_conditions.get(&b.0).copied().unwrap_or(0.0);
        if a.0 != 0 {
            self.initial_conditions.insert(a.0, base + ic.as_volts());
        }
        Ok(())
    }

    /// Adds an independent voltage source with `a` as the positive
    /// terminal.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::DuplicateElement`] for a reused name.
    pub fn add_vsource(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        w: Waveform,
    ) -> Result<(), SpiceError> {
        let (a, b) = (self.check_node(a)?, self.check_node(b)?);
        self.check_name(name)?;
        self.elements
            .push(Element { name: name.to_string(), kind: ElementKind::VSource { a, b, w } });
        Ok(())
    }

    /// Adds an independent current source pushing conventional current
    /// from `a` to `b` through the source (i.e. out of `a`, into `b`).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::DuplicateElement`] for a reused name.
    pub fn add_isource(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        w: Waveform,
    ) -> Result<(), SpiceError> {
        let (a, b) = (self.check_node(a)?, self.check_node(b)?);
        self.check_name(name)?;
        self.elements
            .push(Element { name: name.to_string(), kind: ElementKind::ISource { a, b, w } });
        Ok(())
    }

    /// Adds an ideal time-controlled switch: `r_on` while
    /// `control(t) > threshold`, `r_off` otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] if either resistance is
    /// non-positive.
    #[allow(clippy::too_many_arguments)]
    pub fn add_switch(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        r_on: Ohms,
        r_off: Ohms,
        control: Waveform,
        threshold: Volts,
    ) -> Result<(), SpiceError> {
        if !(r_on.as_ohms() > 0.0 && r_off.as_ohms() > 0.0) {
            return Err(SpiceError::InvalidValue {
                element: name.to_string(),
                constraint: "switch resistances must be > 0",
            });
        }
        let (a, b) = (self.check_node(a)?, self.check_node(b)?);
        self.check_name(name)?;
        self.elements.push(Element {
            name: name.to_string(),
            kind: ElementKind::Switch {
                a,
                b,
                g_on: 1.0 / r_on.as_ohms(),
                g_off: 1.0 / r_off.as_ohms(),
                control,
                threshold: threshold.as_volts(),
            },
        });
        Ok(())
    }

    /// Adds a memristive device between `a` (positive terminal) and `b`.
    /// The device's internal state advances with the transient.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::DuplicateElement`] for a reused name.
    pub fn add_memristor(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        device: Box<dyn MemristiveDevice + Send>,
    ) -> Result<(), SpiceError> {
        let (a, b) = (self.check_node(a)?, self.check_node(b)?);
        self.check_name(name)?;
        self.elements.push(Element {
            name: name.to_string(),
            kind: ElementKind::Memristor { a, b, device },
        });
        Ok(())
    }

    /// Adds an N-channel MOSFET (drain, gate, source; bulk tied to
    /// ground). Terminal capacitances from the parameter set are expanded
    /// into internal capacitor elements named `{name}:cgs`, `{name}:cgd`,
    /// `{name}:cdb`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] for nonphysical parameters.
    pub fn add_nmos(
        &mut self,
        name: &str,
        d: Node,
        g: Node,
        s: Node,
        params: MosfetParams,
    ) -> Result<(), SpiceError> {
        self.add_mosfet(name, d, g, s, params, MosfetKind::Nmos)
    }

    /// Adds a P-channel MOSFET (drain, gate, source; bulk tied to the
    /// source). See [`Circuit::add_nmos`] for the capacitance expansion.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] for nonphysical parameters.
    pub fn add_pmos(
        &mut self,
        name: &str,
        d: Node,
        g: Node,
        s: Node,
        params: MosfetParams,
    ) -> Result<(), SpiceError> {
        self.add_mosfet(name, d, g, s, params, MosfetKind::Pmos)
    }

    fn add_mosfet(
        &mut self,
        name: &str,
        d: Node,
        g: Node,
        s: Node,
        params: MosfetParams,
        kind: MosfetKind,
    ) -> Result<(), SpiceError> {
        if let Err(constraint) = params.validate() {
            return Err(SpiceError::InvalidValue { element: name.to_string(), constraint });
        }
        let (d_i, g_i, s_i) = (self.check_node(d)?, self.check_node(g)?, self.check_node(s)?);
        self.check_name(name)?;
        self.elements.push(Element {
            name: name.to_string(),
            kind: ElementKind::Mosfet { d: d_i, g: g_i, s: s_i, params, kind },
        });
        // Expand terminal capacitances into explicit linear capacitors so
        // the integrator has a single capacitor code path.
        if params.c_gs > 0.0 {
            self.add_capacitor(&format!("{name}:cgs"), g, s, Farads::new(params.c_gs))?;
        }
        if params.c_gd > 0.0 {
            self.add_capacitor(&format!("{name}:cgd"), g, d, Farads::new(params.c_gd))?;
        }
        if params.c_db > 0.0 {
            self.add_capacitor(&format!("{name}:cdb"), d, Self::GROUND, Farads::new(params.c_db))?;
        }
        Ok(())
    }

    /// The normalized state of a memristor element, if `name` exists and
    /// is a memristor.
    pub fn memristor_state(&self, name: &str) -> Option<f64> {
        self.elements.iter().find(|e| e.name == name).and_then(|e| match &e.kind {
            ElementKind::Memristor { device, .. } => Some(device.normalized_state()),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcim_device::{BehavioralSwitch, SwitchParams};

    #[test]
    fn node_interning_is_stable() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_eq!(c.node("a"), a);
        assert_ne!(a, b);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.node("0"), Circuit::GROUND);
    }

    #[test]
    fn duplicate_element_names_are_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GROUND, Ohms::new(1.0)).expect("first");
        let err = c.add_resistor("R1", a, Circuit::GROUND, Ohms::new(2.0)).expect_err("dup");
        assert!(matches!(err, SpiceError::DuplicateElement { .. }));
    }

    #[test]
    fn nonpositive_values_are_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.add_resistor("R", a, Circuit::GROUND, Ohms::new(0.0)).is_err());
        assert!(c.add_capacitor("C", a, Circuit::GROUND, Farads::new(-1.0)).is_err());
    }

    #[test]
    fn mosfet_expands_terminal_capacitors() {
        let mut c = Circuit::new();
        let (d, g, s) = (c.node("d"), c.node("g"), c.node("s"));
        c.add_nmos("M1", d, g, s, MosfetParams::ptm32_access_nmos()).expect("add");
        // Core + three capacitors.
        assert_eq!(c.elements.len(), 4);
        assert!(c.elements.iter().any(|e| e.name == "M1:cdb"));
    }

    #[test]
    fn memristor_state_is_queryable() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let mut dev = BehavioralSwitch::new(SwitchParams::paper_fig9());
        dev.program(true).expect("fresh device");
        c.add_memristor("X1", a, Circuit::GROUND, Box::new(dev)).expect("add");
        assert_eq!(c.memristor_state("X1"), Some(1.0));
        assert_eq!(c.memristor_state("nope"), None);
    }

    #[test]
    fn capacitor_ic_chains_through_reference_node() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_capacitor_with_ic("C1", b, Circuit::GROUND, Farads::new(1e-12), Volts::new(0.2))
            .expect("c1");
        c.add_capacitor_with_ic("C2", a, b, Farads::new(1e-12), Volts::new(0.3)).expect("c2");
        assert_eq!(c.initial_conditions[&b.0], 0.2);
        assert!((c.initial_conditions[&a.0] - 0.5).abs() < 1e-12);
    }
}
