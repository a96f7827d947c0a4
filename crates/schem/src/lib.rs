//! # prima-schem
//!
//! Schematic-level static analysis: the *first* gate of the flow, run
//! before any layout is generated or any testbench simulated. It expands
//! a circuit of primitive instances into a device-level connectivity
//! graph ([`graph::ConnGraph`]) and lints it:
//!
//! * **Binding hygiene** — unknown definitions (`SCHEM.DEF`), duplicate
//!   instance names (`SCHEM.INST`), connections to undeclared or
//!   doubly-bound ports (`SCHEM.PORT`), declared ports left unbound
//!   (`SCHEM.DANGLE`).
//! * **Graph lints** — supply-to-ground short paths through a single
//!   channel (`SCHEM.SHORT`), floating gate nets (`SCHEM.FLOAT`),
//!   dangling/unreachable nets (`SCHEM.DANGLE`), missing bulk rails
//!   (`SCHEM.BULK`).
//! * **Sizing legality** — every sized instance must admit at least one
//!   `nfin`/`nf`/`m` factorization in the standard configuration space
//!   (`SCHEM.SIZE`); without one the optimizer would silently skip it.
//! * **Bias legality** — supply and port voltages inside technology
//!   bounds (`SCHEM.BIAS.V`), currents finite and sane (`SCHEM.BIAS.I`),
//!   load wiring keyed to real ports with physical values (`SCHEM.WIRE`).
//! * **Topology recognition** ([`topology`]) — class/structure agreement
//!   (`SCHEM.CLASS`) and symmetry cross-checks (`SCHEM.SYM.NET`,
//!   `SCHEM.SYM.PAIR`, `SCHEM.SYM.INFER`) against the matching
//!   constraints `prima-erc` later enforces geometrically.
//!
//! Findings are [`Violation`]s with stable `SCHEM.*` rule ids inside the
//! shared [`VerifyReport`], so flows gate on this report exactly like on
//! the DRC and ERC ones — except this one costs microseconds, letting an
//! invalid request die before a single simulation runs.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeSet, HashMap};

use prima_pdk::Technology;
use prima_primitives::{Bias, Library};

pub use prima_core::diagnostics::{RuleKind, Severity, VerifyReport, Violation};

pub mod graph;
pub mod topology;

pub use graph::{is_ground_net, is_rail_net, is_vdd_net, ConnGraph};
pub use topology::{recognize, Topology};

/// Instance references a definition the library does not contain.
pub const RULE_DEF: &str = "SCHEM.DEF";
/// Two instances share one name.
pub const RULE_INST: &str = "SCHEM.INST";
/// Connection names an undeclared port, or binds one port twice.
pub const RULE_PORT: &str = "SCHEM.PORT";
/// A device channel directly bridges supply and ground.
pub const RULE_SHORT: &str = "SCHEM.SHORT";
/// A gate net nothing can ever drive.
pub const RULE_FLOAT: &str = "SCHEM.FLOAT";
/// A dangling net or unbound declared port.
pub const RULE_DANGLE: &str = "SCHEM.DANGLE";
/// A circuit polarity with no bulk rail to tie to.
pub const RULE_BULK: &str = "SCHEM.BULK";
/// Sizing admits no legal `nfin`/`nf`/`m` factorization.
pub const RULE_SIZE: &str = "SCHEM.SIZE";
/// A bias voltage outside technology bounds (or non-finite).
pub const RULE_BIAS_V: &str = "SCHEM.BIAS.V";
/// A bias current that is negative, absurd, or non-finite.
pub const RULE_BIAS_I: &str = "SCHEM.BIAS.I";
/// Load wiring keyed to a missing port or with an unphysical value.
pub const RULE_WIRE: &str = "SCHEM.WIRE";
/// Declared primitive class contradicts the device structure.
pub const RULE_CLASS: &str = "SCHEM.CLASS";
/// A symmetric-net pair naming a missing or self-paired net.
pub const RULE_SYM_NET: &str = "SCHEM.SYM.NET";
/// A declared symmetry pair that is not a structural mirror image.
pub const RULE_SYM_PAIR: &str = "SCHEM.SYM.PAIR";
/// An undeclared pair that is structurally mirror-symmetric (warning).
pub const RULE_SYM_INFER: &str = "SCHEM.SYM.INFER";

/// Upper bound on any named bias current (A). 20 mA through a primitive
/// is far beyond anything the finFET testbenches model.
pub const MAX_BIAS_A: f64 = 20e-3;

/// Upper bound on a port load capacitance (F). A nanofarad on-chip node
/// is a data-entry error, not a load.
pub const MAX_LOAD_F: f64 = 1e-9;

/// One primitive instance as the schematic analyzer sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemInstance {
    /// Instance name.
    pub name: String,
    /// Library definition key.
    pub def: String,
    /// Total unit fins (`nfin·nf·m`).
    pub total_fins: u64,
    /// `(port, net)` bindings.
    pub conn: Vec<(String, String)>,
}

impl SchemInstance {
    /// The net a port is bound to, if any.
    pub fn net_of(&self, port: &str) -> Option<&str> {
        self.conn
            .iter()
            .find(|(p, _)| p == port)
            .map(|(_, n)| n.as_str())
    }
}

/// A circuit in analyzer form: instances plus declared matching intent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemCircuit {
    /// Circuit name (used in diagnostics).
    pub name: String,
    /// Primitive instances.
    pub instances: Vec<SchemInstance>,
    /// Declared symmetric instance pairs.
    pub symmetry: Vec<(String, String)>,
    /// Declared symmetric net pairs (the swap map for mirror checks).
    pub symmetric_nets: Vec<(String, String)>,
}

impl SchemCircuit {
    /// Instance by name.
    pub fn instance(&self, name: &str) -> Option<&SchemInstance> {
        self.instances.iter().find(|i| i.name == name)
    }

    /// Top-level nets in first-appearance order.
    pub fn nets(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for inst in &self.instances {
            for (_, net) in &inst.conn {
                if !seen.contains(net) {
                    seen.push(net.clone());
                }
            }
        }
        seen
    }
}

pub(crate) fn violation(
    rule_id: &str,
    kind: RuleKind,
    severity: Severity,
    scope: Option<String>,
    message: String,
) -> Violation {
    Violation {
        rule_id: rule_id.to_string(),
        kind,
        severity,
        layer: None,
        scope,
        rects: Vec::new(),
        found: None,
        required: None,
        message,
    }
}

/// Derives the externally-driven net set: top-level gate-only nets (no
/// on-chip terminal can drive them, so the testbench must) and nets tied
/// to a diode-connected current input (mirror/load reference pins, which
/// the testbench feeds a forced current).
pub fn derive_external_nets(
    lib: &Library,
    circuit: &SchemCircuit,
    graph: &ConnGraph,
) -> Vec<String> {
    let mut out = BTreeSet::new();
    for (net, info) in &graph.nets {
        if info.top_level && info.gate_only() {
            out.insert(net.clone());
        }
    }
    for inst in &circuit.instances {
        let Some(def) = lib.get(&inst.def) else {
            continue;
        };
        for (port, net) in &inst.conn {
            let diode_input = def
                .spec
                .devices
                .iter()
                .any(|d| d.gate == d.drain && d.drain == *port);
            if diode_input {
                out.insert(net.clone());
            }
        }
    }
    out.into_iter().collect()
}

/// Binding hygiene: unknown defs, duplicate instance names, undeclared or
/// doubly-bound ports.
fn check_bindings(lib: &Library, circuit: &SchemCircuit) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut names = BTreeSet::new();
    for inst in &circuit.instances {
        if !names.insert(inst.name.clone()) {
            out.push(violation(
                RULE_INST,
                RuleKind::Lint,
                Severity::Error,
                Some(inst.name.clone()),
                format!("duplicate instance name {}", inst.name),
            ));
        }
        let Some(def) = lib.get(&inst.def) else {
            out.push(violation(
                RULE_DEF,
                RuleKind::Missing,
                Severity::Error,
                Some(inst.name.clone()),
                format!(
                    "instance {} references definition {} which the library does not contain",
                    inst.name, inst.def
                ),
            ));
            continue;
        };
        let mut bound = BTreeSet::new();
        for (port, net) in &inst.conn {
            if !def.ports.contains(port) {
                out.push(violation(
                    RULE_PORT,
                    RuleKind::Lint,
                    Severity::Error,
                    Some(format!("{}.{port}", inst.name)),
                    format!(
                        "instance {} connects net {net} to port {port}, which {} does not declare",
                        inst.name, def.name
                    ),
                ));
            } else if !bound.insert(port.clone()) {
                out.push(violation(
                    RULE_PORT,
                    RuleKind::Lint,
                    Severity::Error,
                    Some(format!("{}.{port}", inst.name)),
                    format!("instance {} binds port {port} more than once", inst.name),
                ));
            }
        }
    }
    out
}

/// Unbound declared ports (the instance half of `SCHEM.DANGLE`).
fn check_unbound_ports(lib: &Library, circuit: &SchemCircuit) -> Vec<Violation> {
    let mut out = Vec::new();
    for inst in &circuit.instances {
        let Some(def) = lib.get(&inst.def) else {
            continue;
        };
        for port in &def.ports {
            if inst.net_of(port).is_none() {
                out.push(violation(
                    RULE_DANGLE,
                    RuleKind::Dangling,
                    Severity::Error,
                    Some(format!("{}.{port}", inst.name)),
                    format!(
                        "instance {} leaves declared port {port} of {} unbound",
                        inst.name, def.name
                    ),
                ));
            }
        }
    }
    out
}

/// `SCHEM.BULK`: every device polarity in use needs its bulk rail among
/// the top-level nets (bulks tie to the rails implicitly downstream).
fn check_bulk_rails(graph: &ConnGraph) -> Vec<Violation> {
    use prima_spice::devices::FetPolarity;
    let mut out = Vec::new();
    let has_vdd = graph.nets.iter().any(|(n, i)| i.top_level && is_vdd_net(n));
    let has_gnd = graph
        .nets
        .iter()
        .any(|(n, i)| i.top_level && is_ground_net(n));
    let uses_pmos = graph
        .devices
        .iter()
        .any(|d| d.polarity == FetPolarity::Pmos);
    let uses_nmos = graph
        .devices
        .iter()
        .any(|d| d.polarity == FetPolarity::Nmos);
    if uses_pmos && !has_vdd {
        out.push(violation(
            RULE_BULK,
            RuleKind::Floating,
            Severity::Error,
            None,
            "circuit uses PMOS devices but has no supply-class net to tie their bulks to"
                .to_string(),
        ));
    }
    if uses_nmos && !has_gnd {
        out.push(violation(
            RULE_BULK,
            RuleKind::Floating,
            Severity::Error,
            None,
            "circuit uses NMOS devices but has no ground-class net to tie their bulks to"
                .to_string(),
        ));
    }
    out
}

/// `SCHEM.SIZE`: every sized (non-passive) instance must admit at least
/// one legal `nfin`/`nf`/`m` factorization in the standard configuration
/// space — otherwise the optimizer has nothing to enumerate and the
/// instance would silently degrade to an ideal device.
fn check_sizing(lib: &Library, circuit: &SchemCircuit) -> Vec<Violation> {
    let mut out = Vec::new();
    for inst in &circuit.instances {
        let Some(def) = lib.get(&inst.def) else {
            continue;
        };
        if def.spec.devices.is_empty() {
            continue;
        }
        if inst.total_fins == 0 || prima_core::std_config_space(inst.total_fins).is_empty() {
            let mut v = violation(
                RULE_SIZE,
                RuleKind::Lint,
                Severity::Error,
                Some(inst.name.clone()),
                format!(
                    "instance {} sized at {} total fins admits no nfin*nf*m factorization \
                     over nfin in {:?} with m <= {}",
                    inst.name,
                    inst.total_fins,
                    prima_core::STD_NFIN_CHOICES,
                    prima_core::STD_M_MAX
                ),
            );
            v.found = Some(inst.total_fins as i64);
            out.push(v);
        }
    }
    out
}

/// `SCHEM.BIAS.V` / `SCHEM.BIAS.I`: explicit biases must be physical and
/// inside technology bounds. (Nominal per-class fallbacks are library
/// invariants and are not re-checked here.)
fn check_bias(
    tech: &Technology,
    circuit: &SchemCircuit,
    biases: &HashMap<String, Bias>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let vmax = 1.25 * tech.vdd;
    let vmin = -0.25 * tech.vdd;
    let mut keys: Vec<&String> = biases.keys().collect();
    keys.sort_unstable();
    for inst_name in keys {
        let bias = &biases[inst_name];
        if circuit.instance(inst_name).is_none() {
            out.push(violation(
                RULE_WIRE,
                RuleKind::Lint,
                Severity::Warning,
                Some(inst_name.clone()),
                format!("bias provided for unknown instance {inst_name}"),
            ));
            continue;
        }
        if !bias.vdd.is_finite() || bias.vdd <= 0.0 || bias.vdd > 1.5 * tech.vdd {
            let mut v = violation(
                RULE_BIAS_V,
                RuleKind::Lint,
                Severity::Error,
                Some(inst_name.clone()),
                format!(
                    "instance {inst_name} bias supply {} V is outside (0, {}] V",
                    bias.vdd,
                    1.5 * tech.vdd
                ),
            );
            v.found = Some((bias.vdd * 1e3) as i64);
            v.required = Some((1.5 * tech.vdd * 1e3) as i64);
            out.push(v);
        }
        let mut ports: Vec<&String> = bias.port_v.keys().collect();
        ports.sort_unstable();
        for port in ports {
            let val = bias.port_v[port];
            if !val.is_finite() || val < vmin || val > vmax {
                let mut v = violation(
                    RULE_BIAS_V,
                    RuleKind::Lint,
                    Severity::Error,
                    Some(format!("{inst_name}.{port}")),
                    format!(
                        "instance {inst_name} forces {val} V at {port}, outside \
                         [{vmin:.3}, {vmax:.3}] V for a {} V technology",
                        tech.vdd
                    ),
                );
                v.found = Some((val * 1e3) as i64);
                v.required = Some((vmax * 1e3) as i64);
                out.push(v);
            }
        }
        let mut names: Vec<&String> = bias.currents.keys().collect();
        names.sort_unstable();
        for name in names {
            let val = bias.currents[name];
            if !val.is_finite() || !(0.0..=MAX_BIAS_A).contains(&val) {
                let mut v = violation(
                    RULE_BIAS_I,
                    RuleKind::Lint,
                    Severity::Error,
                    Some(format!("{inst_name}.{name}")),
                    format!(
                        "instance {inst_name} bias current {name} = {val} A is outside \
                         [0, {MAX_BIAS_A}] A"
                    ),
                );
                v.found = Some((val * 1e6) as i64);
                v.required = Some((MAX_BIAS_A * 1e6) as i64);
                out.push(v);
            }
        }
    }
    out
}

/// `SCHEM.WIRE`: load wiring must key real ports of the instance's
/// definition and carry physical values.
fn check_wires(
    lib: &Library,
    circuit: &SchemCircuit,
    biases: &HashMap<String, Bias>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut keys: Vec<&String> = biases.keys().collect();
    keys.sort_unstable();
    for inst_name in keys {
        let bias = &biases[inst_name];
        let Some(inst) = circuit.instance(inst_name) else {
            continue;
        };
        let Some(def) = lib.get(&inst.def) else {
            continue;
        };
        let mut ports: Vec<&String> = bias.port_load_c.keys().collect();
        ports.sort_unstable();
        for port in ports {
            let val = bias.port_load_c[port];
            if !def.ports.contains(port) {
                out.push(violation(
                    RULE_WIRE,
                    RuleKind::Lint,
                    Severity::Error,
                    Some(format!("{inst_name}.{port}")),
                    format!(
                        "instance {inst_name} declares a load on port {port}, which {} \
                         does not have",
                        def.name
                    ),
                ));
            }
            if !val.is_finite() || !(0.0..=MAX_LOAD_F).contains(&val) {
                let mut v = violation(
                    RULE_WIRE,
                    RuleKind::Lint,
                    Severity::Error,
                    Some(format!("{inst_name}.{port}")),
                    format!(
                        "instance {inst_name} load at {port} = {val} F is outside \
                         [0, {MAX_LOAD_F}] F"
                    ),
                );
                v.found = Some((val * 1e15) as i64);
                v.required = Some((MAX_LOAD_F * 1e15) as i64);
                out.push(v);
            }
        }
        if !bias.drain_load_ohm.is_finite() || bias.drain_load_ohm < 0.0 {
            let mut v = violation(
                RULE_WIRE,
                RuleKind::Lint,
                Severity::Error,
                Some(inst_name.clone()),
                format!(
                    "instance {inst_name} drain load {} Ω is not a physical resistance",
                    bias.drain_load_ohm
                ),
            );
            v.found = Some(bias.drain_load_ohm as i64);
            out.push(v);
        }
    }
    out
}

/// Runs the full schematic lint suite and returns the finalized report.
///
/// The checks are independent; one firing never hides another. The
/// returned report is canonically sorted and deduplicated, so its content
/// is independent of instance insertion order.
///
/// Nets driven from outside the circuit (inputs, clocks, bias pins) are
/// the ones [`derive_external_nets`] finds.
pub fn check_schem(
    tech: &Technology,
    lib: &Library,
    circuit: &SchemCircuit,
    biases: &HashMap<String, Bias>,
) -> VerifyReport {
    let mut report = VerifyReport {
        circuit: circuit.name.clone(),
        ..VerifyReport::default()
    };
    report.absorb("schem.bind", check_bindings(lib, circuit));

    let graph = ConnGraph::build(lib, circuit);
    let externals = derive_external_nets(lib, circuit, &graph);
    report.absorb("schem.supply", {
        let mut v = graph.check_supply_short();
        v.extend(check_bulk_rails(&graph));
        v
    });
    report.absorb("schem.float", graph.check_floating(&externals));
    report.absorb("schem.dangle", {
        let mut v = graph.check_dangling_nets(&externals);
        v.extend(check_unbound_ports(lib, circuit));
        v
    });
    report.absorb("schem.size", check_sizing(lib, circuit));
    report.absorb("schem.bias", check_bias(tech, circuit, biases));
    report.absorb("schem.wire", check_wires(lib, circuit, biases));
    report.absorb("schem.topology", topology::check_classes(lib, circuit));
    report.absorb("schem.symmetry", topology::check_symmetry(lib, circuit));
    report.nets_checked = graph.nets.len();
    report.finalize();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_layout::{DeviceSpec, PrimitiveSpec};
    use prima_primitives::PrimitiveClass;
    use prima_spice::devices::FetPolarity;

    fn env() -> (Technology, Library) {
        (Technology::finfet7(), Library::standard())
    }

    fn inst(name: &str, def: &str, fins: u64, conn: &[(&str, &str)]) -> SchemInstance {
        SchemInstance {
            name: name.to_string(),
            def: def.to_string(),
            total_fins: fins,
            conn: conn
                .iter()
                .map(|&(p, n)| (p.to_string(), n.to_string()))
                .collect(),
        }
    }

    /// The two-stage amplifier every flow test uses, in analyzer form.
    fn cs_amp_circuit() -> SchemCircuit {
        SchemCircuit {
            name: "cs_amp_stage".to_string(),
            instances: vec![
                inst(
                    "m1",
                    "cs_amp",
                    48,
                    &[("in", "vin"), ("out", "vout"), ("vss", "vssn")],
                ),
                inst(
                    "m2",
                    "csrc_pmos",
                    72,
                    &[("out", "vout"), ("vb", "vbp"), ("vdd", "vdd")],
                ),
            ],
            symmetry: vec![],
            symmetric_nets: vec![],
        }
    }

    #[test]
    fn clean_circuit_passes() {
        let (tech, lib) = env();
        let report = check_schem(&tech, &lib, &cs_amp_circuit(), &HashMap::new());
        assert!(report.is_passing(), "{report:?}");
        assert!(report.violations.is_empty(), "{report:?}");
    }

    #[test]
    fn unknown_def_and_port_fire() {
        let (tech, lib) = env();
        let mut c = cs_amp_circuit();
        c.instances.push(inst("x1", "no_such_def", 8, &[]));
        c.instances[0].conn.push(("bogus".into(), "vout".into()));
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        assert!(report.has_rule(RULE_DEF));
        assert!(report.has_rule(RULE_PORT));
    }

    #[test]
    fn duplicate_instance_name_fires() {
        let (tech, lib) = env();
        let mut c = cs_amp_circuit();
        let dup = c.instances[0].clone();
        c.instances.push(dup);
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        assert!(report.has_rule(RULE_INST));
    }

    #[test]
    fn supply_short_fires() {
        let (tech, mut lib) = env();
        // A defective "switch" whose channel ties its two ports directly;
        // wiring a=vdd, b=vssn makes the channel a rail-to-rail short.
        let mut def = lib.get("switch").cloned().unwrap();
        def.name = "bad_switch".to_string();
        def.spec = PrimitiveSpec::new(
            "bad_switch",
            vec![DeviceSpec::new("MSW", FetPolarity::Nmos, "b", "en", "a")],
        );
        lib.upsert(def);
        let mut c = cs_amp_circuit();
        c.instances.push(inst(
            "sw",
            "bad_switch",
            8,
            &[("a", "vdd"), ("b", "vssn"), ("en", "vin")],
        ));
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        assert!(report.has_rule(RULE_SHORT), "{report:?}");
    }

    #[test]
    fn internal_floating_gate_fires() {
        let (tech, mut lib) = env();
        // Gate net `fg` is neither a port nor driven by any channel.
        let mut def = lib.get("cs_amp").cloned().unwrap();
        def.name = "bad_amp".to_string();
        def.spec = PrimitiveSpec::new(
            "bad_amp",
            vec![DeviceSpec::new("M1", FetPolarity::Nmos, "out", "fg", "vss")],
        );
        lib.upsert(def);
        let mut c = cs_amp_circuit();
        c.instances[0] = inst(
            "m1",
            "bad_amp",
            48,
            &[("in", "vin"), ("out", "vout"), ("vss", "vssn")],
        );
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        assert!(report.has_rule(RULE_FLOAT), "{report:?}");
    }

    #[test]
    fn dangling_net_fires_on_typo() {
        let (tech, lib) = env();
        let mut c = cs_amp_circuit();
        // Typo the load's output net: both halves of the broken net dangle.
        c.instances[1].conn[0].1 = "vuot".to_string();
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        let dangles: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule_id == RULE_DANGLE)
            .collect();
        assert_eq!(dangles.len(), 2, "{report:?}");
    }

    #[test]
    fn unbound_port_fires() {
        let (tech, lib) = env();
        let mut c = cs_amp_circuit();
        c.instances[0].conn.retain(|(p, _)| p != "in");
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        assert!(report.has_rule(RULE_DANGLE), "{report:?}");
    }

    #[test]
    fn size_without_factorization_fires() {
        let (tech, lib) = env();
        let mut c = cs_amp_circuit();
        c.instances[0].total_fins = 7; // prime, not in the nfin menu
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        assert!(report.has_rule(RULE_SIZE), "{report:?}");
        assert!(!report.has_rule(RULE_DEF));
    }

    #[test]
    fn bias_out_of_range_fires() {
        let (tech, lib) = env();
        let c = cs_amp_circuit();
        let mut biases = HashMap::new();
        let mut b = Bias::nominal(&tech, &PrimitiveClass::Amplifier);
        b.set_v("vin", 5.0);
        biases.insert("m1".to_string(), b);
        let report = check_schem(&tech, &lib, &c, &biases);
        assert!(report.has_rule(RULE_BIAS_V), "{report:?}");
    }

    #[test]
    fn bias_current_and_wire_rules_fire() {
        let (tech, lib) = env();
        let c = cs_amp_circuit();
        let mut biases = HashMap::new();
        let mut b = Bias::nominal(&tech, &PrimitiveClass::Amplifier);
        b.set_i("tail", 1.0); // one ampère of tail current
        b.set_load("nonport", 1e-15);
        biases.insert("m1".to_string(), b);
        let report = check_schem(&tech, &lib, &c, &biases);
        assert!(report.has_rule(RULE_BIAS_I), "{report:?}");
        assert!(report.has_rule(RULE_WIRE), "{report:?}");
    }

    #[test]
    fn class_mismatch_fires() {
        let (tech, mut lib) = env();
        // Claims DifferentialPair but contains a single device.
        let mut def = lib.get("dp").cloned().unwrap();
        def.name = "fake_dp".to_string();
        def.spec = PrimitiveSpec::new(
            "fake_dp",
            vec![DeviceSpec::new(
                "MA",
                FetPolarity::Nmos,
                "da",
                "ina",
                "tail",
            )],
        );
        lib.upsert(def);
        let c = SchemCircuit {
            name: "t".to_string(),
            instances: vec![inst(
                "d0",
                "fake_dp",
                16,
                &[
                    ("da", "oa"),
                    ("db", "ob"),
                    ("ina", "ia"),
                    ("inb", "ib"),
                    ("tail", "vssn"),
                ],
            )],
            symmetry: vec![],
            symmetric_nets: vec![],
        };
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        assert!(report.has_rule(RULE_CLASS), "{report:?}");
    }

    #[test]
    fn symmetry_pair_mismatch_fires() {
        let (tech, lib) = env();
        let mut c = cs_amp_circuit();
        c.symmetry.push(("m1".to_string(), "m2".to_string())); // different defs
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        assert!(report.has_rule(RULE_SYM_PAIR), "{report:?}");
        c.symmetry[0].1 = "nope".to_string();
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        assert!(report.has_rule(RULE_SYM_PAIR), "{report:?}");
    }

    #[test]
    fn symmetric_net_rules_fire() {
        let (tech, lib) = env();
        let mut c = cs_amp_circuit();
        c.symmetric_nets
            .push(("vout".to_string(), "ghost".to_string()));
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        assert!(report.has_rule(RULE_SYM_NET), "{report:?}");
    }

    #[test]
    fn undeclared_mirror_pair_warns_but_passes() {
        let (tech, lib) = env();
        let c = SchemCircuit {
            name: "pseudo_diff".to_string(),
            instances: vec![
                inst(
                    "a1",
                    "cs_amp",
                    48,
                    &[("in", "vip"), ("out", "von"), ("vss", "vssn")],
                ),
                inst(
                    "a2",
                    "cs_amp",
                    48,
                    &[("in", "vin"), ("out", "vop"), ("vss", "vssn")],
                ),
                inst("c1", "cap_mom", 0, &[("a", "von"), ("b", "vssn")]),
                inst("c2", "cap_mom", 0, &[("a", "vop"), ("b", "vssn")]),
            ],
            symmetry: vec![],
            symmetric_nets: vec![
                ("vip".to_string(), "vin".to_string()),
                ("von".to_string(), "vop".to_string()),
            ],
        };
        let report = check_schem(&tech, &lib, &c, &HashMap::new());
        assert!(report.has_rule(RULE_SYM_INFER), "{report:?}");
        assert!(report.is_passing(), "warnings must not fail the gate");
    }

    #[test]
    fn graph_is_insertion_order_independent() {
        let (_, lib) = env();
        let c = cs_amp_circuit();
        let mut rev = c.clone();
        rev.instances.reverse();
        let a = ConnGraph::build(&lib, &c);
        let b = ConnGraph::build(&lib, &rev);
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn standard_library_classes_all_recognized() {
        let (tech, lib) = env();
        // Every standard def, instantiated alone with all ports bound,
        // passes the class/topology check.
        for def_name in [
            "dp",
            "dp_pmos",
            "dp_cascode",
            "dp_switched",
            "cm",
            "cm_1to2",
            "cm_1to4",
            "cm_1to8",
            "cm_pmos",
            "cm_cascode",
            "ccpair",
            "latch",
            "latch_starved",
            "inv_cc",
        ] {
            let def = lib.get(def_name).expect(def_name);
            let conn: Vec<(String, String)> = def
                .ports
                .iter()
                .enumerate()
                .map(|(i, p)| (p.clone(), format!("n{i}")))
                .collect();
            let c = SchemCircuit {
                name: format!("solo_{def_name}"),
                instances: vec![SchemInstance {
                    name: "u0".to_string(),
                    def: def_name.to_string(),
                    total_fins: 16,
                    conn,
                }],
                symmetry: vec![],
                symmetric_nets: vec![],
            };
            let report = check_schem(&tech, &lib, &c, &HashMap::new());
            assert!(
                !report.has_rule(RULE_CLASS),
                "{def_name} failed class recognition: {report:?}"
            );
        }
    }
}
