//! Circuit netlist representation.
//!
//! A [`Circuit`] is a flat bag of elements over interned nodes. Hierarchy
//! (subcircuits / primitives) is flattened at construction time via
//! [`Circuit::instantiate`].

use std::collections::HashMap;
use std::fmt;

use crate::devices::FetInstance;

/// Identifier of a circuit node. `NodeId(0)` is always ground (`0` / `gnd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns `true` for the ground node.
    #[inline]
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }

    /// The raw index (0 = ground).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors produced while building a netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// A numeric element value was out of range (e.g. non-positive resistance).
    InvalidValue {
        /// Element name.
        element: String,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::InvalidValue { element, reason } => {
                write!(f, "invalid value for element {element}: {reason}")
            }
        }
    }
}

impl std::error::Error for SpiceError {}

/// Independent-source waveform, shared by voltage and current sources.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// SPICE `PULSE(v1 v2 td tr tf pw per)`.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge.
        delay: f64,
        /// Rise time (0 is coerced to 1 ps).
        rise: f64,
        /// Fall time (0 is coerced to 1 ps).
        fall: f64,
        /// Pulse width at `v2`.
        width: f64,
        /// Repetition period (`f64::INFINITY` for one-shot).
        period: f64,
    },
    /// Piecewise-linear `(time, value)` points; constant extrapolation.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// The waveform value at `t = 0⁻` (the DC operating-point value).
    pub fn dc_value(&self) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse { v1, .. } => *v1,
            Waveform::Pwl(points) => points.first().map_or(0.0, |&(_, v)| v),
        }
    }

    /// The waveform value at time `t` (seconds).
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let rise = rise.max(1e-12);
                let fall = fall.max(1e-12);
                let mut tau = t - delay;
                if period.is_finite() && *period > 0.0 {
                    tau %= period;
                }
                if tau < rise {
                    v1 + (v2 - v1) * tau / rise
                } else if tau < rise + width {
                    *v2
                } else if tau < rise + width + fall {
                    v2 + (v1 - v2) * (tau - rise - width) / fall
                } else {
                    *v1
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        if t1 > t0 {
                            return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                        }
                        return v1;
                    }
                }
                points.last().map_or(0.0, |p| p.1)
            }
        }
    }
}

/// A netlist element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Two-terminal linear resistor.
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (> 0).
        ohms: f64,
    },
    /// Two-terminal linear capacitor.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (≥ 0).
        farads: f64,
        /// Optional initial voltage `v(a) − v(b)` for transient analysis.
        ic: Option<f64>,
    },
    /// Two-terminal linear inductor (short in DC, `jωL` in AC).
    Inductor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance in henries (> 0).
        henries: f64,
    },
    /// Independent voltage source with an MNA branch current.
    VSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Large-signal waveform.
        wave: Waveform,
        /// AC small-signal magnitude (0 = not an AC stimulus).
        ac_mag: f64,
    },
    /// Independent current source (flows from `pos` through the source to `neg`).
    ISource {
        /// Instance name.
        name: String,
        /// Terminal the current leaves the circuit from.
        pos: NodeId,
        /// Terminal the current returns to the circuit at.
        neg: NodeId,
        /// Large-signal waveform.
        wave: Waveform,
        /// AC small-signal magnitude.
        ac_mag: f64,
    },
    /// Voltage-controlled voltage source `E`: `v(p,n) = gain·v(cp,cn)`.
    Vcvs {
        /// Instance name.
        name: String,
        /// Positive output terminal.
        p: NodeId,
        /// Negative output terminal.
        n: NodeId,
        /// Positive controlling terminal.
        cp: NodeId,
        /// Negative controlling terminal.
        cn: NodeId,
        /// Voltage gain.
        gain: f64,
    },
    /// Voltage-controlled current source `G`: `i(p→n) = gm·v(cp,cn)`.
    Vccs {
        /// Instance name.
        name: String,
        /// Current injection terminal.
        p: NodeId,
        /// Current return terminal.
        n: NodeId,
        /// Positive controlling terminal.
        cp: NodeId,
        /// Negative controlling terminal.
        cn: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// FinFET-flavored MOS transistor.
    Fet(FetInstance),
}

impl Element {
    /// The instance name of the element.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::Inductor { name, .. }
            | Element::VSource { name, .. }
            | Element::ISource { name, .. }
            | Element::Vcvs { name, .. }
            | Element::Vccs { name, .. } => name,
            Element::Fet(fet) => &fet.name,
        }
    }
}

/// A flat circuit: interned nodes plus a list of [`Element`]s.
///
/// See the [crate-level docs](crate) for a usage example.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, NodeId>,
    elements: Vec<Element>,
}

impl Circuit {
    /// The ground node, named `"0"` (`gnd` resolves to it too).
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: vec!["0".to_string()],
            node_index: HashMap::new(),
            elements: Vec::new(),
        };
        c.node_index.insert("0".to_string(), NodeId(0));
        c
    }

    /// Interns a node by name, creating it if needed.
    ///
    /// Names `"0"` and `"gnd"` (case-insensitive) map to [`Circuit::GROUND`].
    pub fn node(&mut self, name: &str) -> NodeId {
        let key = name.to_ascii_lowercase();
        if key == "0" || key == "gnd" {
            return Self::GROUND;
        }
        if let Some(&id) = self.node_index.get(&key) {
            return id;
        }
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(key.clone());
        self.node_index.insert(key, id);
        id
    }

    /// Looks up an existing node by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        let key = name.to_ascii_lowercase();
        if key == "0" || key == "gnd" {
            return Some(Self::GROUND);
        }
        self.node_index.get(&key).copied()
    }

    /// The name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.index()]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// The elements of the circuit, in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Mutable access to the elements (used by sweeps to retarget source
    /// values in place).
    pub fn elements_mut(&mut self) -> &mut [Element] {
        &mut self.elements
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] unless `ohms` is finite and > 0.
    pub fn resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<(), SpiceError> {
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(SpiceError::InvalidValue {
                element: name.to_string(),
                reason: format!("resistance must be finite and positive, got {ohms}"),
            });
        }
        self.elements.push(Element::Resistor {
            name: name.to_string(),
            a,
            b,
            ohms,
        });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] unless `farads` is finite and ≥ 0.
    pub fn capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<(), SpiceError> {
        if !(farads.is_finite() && farads >= 0.0) {
            return Err(SpiceError::InvalidValue {
                element: name.to_string(),
                reason: format!("capacitance must be finite and non-negative, got {farads}"),
            });
        }
        self.elements.push(Element::Capacitor {
            name: name.to_string(),
            a,
            b,
            farads,
            ic: None,
        });
        Ok(())
    }

    /// Adds a capacitor with an initial-condition voltage for transient runs.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] unless `farads` is finite and ≥ 0.
    pub fn capacitor_ic(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
        ic: f64,
    ) -> Result<(), SpiceError> {
        self.capacitor(name, a, b, farads)?;
        if let Some(Element::Capacitor { ic: slot, .. }) = self.elements.last_mut() {
            *slot = Some(ic);
        }
        Ok(())
    }

    /// Adds an inductor.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] unless `henries` is finite and > 0.
    pub fn inductor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        henries: f64,
    ) -> Result<(), SpiceError> {
        if !(henries.is_finite() && henries > 0.0) {
            return Err(SpiceError::InvalidValue {
                element: name.to_string(),
                reason: format!("inductance must be finite and positive, got {henries}"),
            });
        }
        self.elements.push(Element::Inductor {
            name: name.to_string(),
            a,
            b,
            henries,
        });
        Ok(())
    }

    /// Adds a DC voltage source.
    pub fn vsource(&mut self, name: &str, pos: NodeId, neg: NodeId, volts: f64) {
        self.vsource_wave(name, pos, neg, Waveform::Dc(volts), 0.0);
    }

    /// Adds a DC voltage source that is also the AC stimulus with magnitude
    /// `ac_mag`.
    pub fn vsource_ac(&mut self, name: &str, pos: NodeId, neg: NodeId, volts: f64, ac_mag: f64) {
        self.vsource_wave(name, pos, neg, Waveform::Dc(volts), ac_mag);
    }

    /// Adds a voltage source with an arbitrary waveform and AC magnitude.
    pub fn vsource_wave(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        wave: Waveform,
        ac_mag: f64,
    ) {
        self.elements.push(Element::VSource {
            name: name.to_string(),
            pos,
            neg,
            wave,
            ac_mag,
        });
    }

    /// Adds a DC current source (current flows out of `pos`, into `neg`
    /// through the external circuit).
    pub fn isource(&mut self, name: &str, pos: NodeId, neg: NodeId, amps: f64) {
        self.isource_wave(name, pos, neg, Waveform::Dc(amps), 0.0);
    }

    /// Adds a current source with an arbitrary waveform and AC magnitude.
    pub fn isource_wave(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        wave: Waveform,
        ac_mag: f64,
    ) {
        self.elements.push(Element::ISource {
            name: name.to_string(),
            pos,
            neg,
            wave,
            ac_mag,
        });
    }

    /// Adds a voltage-controlled voltage source.
    pub fn vcvs(&mut self, name: &str, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gain: f64) {
        self.elements.push(Element::Vcvs {
            name: name.to_string(),
            p,
            n,
            cp,
            cn,
            gain,
        });
    }

    /// Adds a voltage-controlled current source.
    pub fn vccs(&mut self, name: &str, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gm: f64) {
        self.elements.push(Element::Vccs {
            name: name.to_string(),
            p,
            n,
            cp,
            cn,
            gm,
        });
    }

    /// Adds a FET instance.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] unless width and length are
    /// finite and positive.
    pub fn fet(&mut self, fet: FetInstance) -> Result<(), SpiceError> {
        if !(fet.w.is_finite() && fet.w > 0.0 && fet.l.is_finite() && fet.l > 0.0) {
            return Err(SpiceError::InvalidValue {
                element: fet.name.clone(),
                reason: format!(
                    "W and L must be finite and positive, got W={} L={}",
                    fet.w, fet.l
                ),
            });
        }
        self.elements.push(Element::Fet(fet));
        Ok(())
    }

    /// Flattens `sub` into `self`.
    ///
    /// `ports` maps `sub`'s port node names to nodes of `self`; every
    /// non-port internal node of `sub` becomes a fresh node named
    /// `{prefix}.{internal}`, and every element name is prefixed with
    /// `{prefix}.`.
    ///
    /// # Errors
    ///
    /// Propagates element-validation failures (which cannot occur if `sub`
    /// itself was built through the validated API).
    pub fn instantiate(
        &mut self,
        prefix: &str,
        sub: &Circuit,
        ports: &HashMap<String, NodeId>,
    ) -> Result<(), SpiceError> {
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        map.insert(Circuit::GROUND, Circuit::GROUND);
        for (idx, name) in sub.node_names.iter().enumerate().skip(1) {
            let sub_id = NodeId(idx as u32);
            let target = if let Some(&ext) = ports.get(name) {
                ext
            } else {
                self.node(&format!("{prefix}.{name}"))
            };
            map.insert(sub_id, target);
        }
        let m = |id: NodeId| map[&id];
        for el in &sub.elements {
            let mut el = el.clone();
            match &mut el {
                Element::Resistor { name, a, b, .. }
                | Element::Capacitor { name, a, b, .. }
                | Element::Inductor { name, a, b, .. } => {
                    *name = format!("{prefix}.{name}");
                    *a = m(*a);
                    *b = m(*b);
                }
                Element::VSource { name, pos, neg, .. }
                | Element::ISource { name, pos, neg, .. } => {
                    *name = format!("{prefix}.{name}");
                    *pos = m(*pos);
                    *neg = m(*neg);
                }
                Element::Vcvs {
                    name, p, n, cp, cn, ..
                }
                | Element::Vccs {
                    name, p, n, cp, cn, ..
                } => {
                    *name = format!("{prefix}.{name}");
                    *p = m(*p);
                    *n = m(*n);
                    *cp = m(*cp);
                    *cn = m(*cn);
                }
                Element::Fet(fet) => {
                    fet.name = format!("{prefix}.{}", fet.name);
                    fet.d = m(fet.d);
                    fet.g = m(fet.g);
                    fet.s = m(fet.s);
                    fet.b = m(fet.b);
                }
            }
            self.elements.push(el);
        }
        Ok(())
    }

    /// Iterates over FET instances (used by operating-point reporting).
    pub fn fets(&self) -> impl Iterator<Item = &FetInstance> {
        self.elements.iter().filter_map(|e| match e {
            Element::Fet(f) => Some(f),
            _ => None,
        })
    }

    /// Mutable access to a FET by name (used to inject mismatch or LDE
    /// shifts into an already-built circuit).
    pub fn fet_mut(&mut self, name: &str) -> Option<&mut FetInstance> {
        self.elements.iter_mut().find_map(|e| match e {
            Element::Fet(f) if f.name == name => Some(f),
            _ => None,
        })
    }

    /// Total capacitance attached to `node` from explicit capacitors
    /// (parasitic wire caps and loads), in farads.
    pub fn explicit_cap_at(&self, node: NodeId) -> f64 {
        self.elements
            .iter()
            .filter_map(|e| match e {
                Element::Capacitor { a, b, farads, .. } if *a == node || *b == node => {
                    Some(*farads)
                }
                _ => None,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{FetModel, FetPolarity};

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node("GND"), Circuit::GROUND);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
    }

    #[test]
    fn node_interning_is_case_insensitive() {
        let mut c = Circuit::new();
        let a = c.node("OUT");
        let b = c.node("out");
        assert_eq!(a, b);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.find_node("Out"), Some(a));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn resistor_rejects_nonpositive() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.resistor("R1", a, Circuit::GROUND, 0.0).is_err());
        assert!(c.resistor("R2", a, Circuit::GROUND, -5.0).is_err());
        assert!(c.resistor("R3", a, Circuit::GROUND, f64::NAN).is_err());
        assert!(c.resistor("R4", a, Circuit::GROUND, 1e3).is_ok());
    }

    #[test]
    fn capacitor_allows_zero_rejects_negative() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.capacitor("C1", a, Circuit::GROUND, 0.0).is_ok());
        assert!(c.capacitor("C2", a, Circuit::GROUND, -1e-15).is_err());
    }

    #[test]
    fn pulse_waveform_shape() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1e-9,
            rise: 1e-10,
            fall: 1e-10,
            width: 1e-9,
            period: f64::INFINITY,
        };
        assert_eq!(w.value_at(0.0), 0.0);
        assert_eq!(w.value_at(0.5e-9), 0.0);
        assert!((w.value_at(1.05e-9) - 0.5).abs() < 1e-9);
        assert_eq!(w.value_at(1.5e-9), 1.0);
        assert_eq!(w.value_at(5.0e-9), 0.0);
        assert_eq!(w.dc_value(), 0.0);
    }

    #[test]
    fn pulse_waveform_periodic() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 1e-12,
            fall: 1e-12,
            width: 0.5e-9,
            period: 1e-9,
        };
        // Second period, middle of the high phase.
        assert_eq!(w.value_at(1.25e-9), 1.0);
        // Second period, low phase.
        assert_eq!(w.value_at(1.75e-9), 0.0);
    }

    #[test]
    fn pwl_waveform_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert!((w.value_at(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(w.value_at(3.0), 2.0);
    }

    #[test]
    fn instantiate_maps_ports_and_renames_internals() {
        let mut sub = Circuit::new();
        let p_in = sub.node("in");
        let mid = sub.node("mid");
        sub.resistor("R1", p_in, mid, 100.0).unwrap();
        sub.resistor("R2", mid, Circuit::GROUND, 200.0).unwrap();

        let mut top = Circuit::new();
        let tin = top.node("tin");
        let mut ports = HashMap::new();
        ports.insert("in".to_string(), tin);
        top.instantiate("x1", &sub, &ports).unwrap();

        assert!(top.find_node("x1.mid").is_some());
        assert_eq!(top.elements().len(), 2);
        assert_eq!(top.elements()[0].name(), "x1.R1");
        match &top.elements()[0] {
            Element::Resistor { a, .. } => assert_eq!(*a, tin),
            other => panic!("unexpected element {other:?}"),
        }
    }

    #[test]
    fn fet_mut_finds_instance() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let fet = FetInstance::new(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            FetModel::ideal(FetPolarity::Nmos),
            1e-6,
            14e-9,
        );
        c.fet(fet).unwrap();
        assert!(c.fet_mut("M1").is_some());
        assert!(c.fet_mut("M2").is_none());
        c.fet_mut("M1").unwrap().delta_vth = 0.01;
        assert_eq!(c.fets().next().unwrap().delta_vth, 0.01);
    }

    #[test]
    fn explicit_cap_sums_node_attached() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.capacitor("C1", a, Circuit::GROUND, 1e-15).unwrap();
        c.capacitor("C2", a, b, 2e-15).unwrap();
        c.capacitor("C3", b, Circuit::GROUND, 4e-15).unwrap();
        assert!((c.explicit_cap_at(a) - 3e-15).abs() < 1e-30);
    }
}
