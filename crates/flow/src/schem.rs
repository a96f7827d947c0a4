//! Schematic-level static analysis: the *first* gate of the flow, run
//! before any layout is generated or any testbench simulated.
//! [`schem_preflight`] expands a [`CircuitSpec`] into a device-level
//! connectivity graph ([`ConnGraph`]) and lints it:
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
//! * **Topology recognition** — class/structure agreement
//!   (`SCHEM.CLASS`) and symmetry cross-checks (`SCHEM.SYM.NET`,
//!   `SCHEM.SYM.PAIR`, `SCHEM.SYM.INFER`) against the matching
//!   constraints `prima-erc` later enforces geometrically.
//!
//! Findings are [`Violation`]s with stable `SCHEM.*` rule ids inside the
//! shared [`VerifyReport`], so flows gate on this report exactly like on
//! the DRC and ERC ones — except this one costs microseconds, letting an
//! invalid request die before a single simulation runs.

use std::collections::{BTreeSet, HashMap};

use prima_core::diagnostics::{RuleKind, Severity, VerifyReport, Violation};
use prima_pdk::Technology;
use prima_primitives::{Bias, Library};

use crate::circuits::CircuitSpec;

mod graph;
mod topology;

pub use graph::ConnGraph;
use graph::{is_ground_net, is_vdd_net};

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
const MAX_BIAS_A: f64 = 20e-3;

/// Upper bound on a port load capacitance (F). A nanofarad on-chip node
/// is a data-entry error, not a load.
const MAX_LOAD_F: f64 = 1e-9;

/// Derives the externally-driven net set: top-level gate-only nets (no
/// on-chip terminal can drive them, so the testbench must) and nets tied
/// to a diode-connected current input (mirror/load reference pins, which
/// the testbench feeds a forced current).
fn derive_external_nets(lib: &Library, circuit: &CircuitSpec, graph: &ConnGraph) -> Vec<String> {
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
fn check_bindings(lib: &Library, circuit: &CircuitSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut names = BTreeSet::new();
    for inst in &circuit.instances {
        if !names.insert(inst.name.clone()) {
            out.push(Violation::new(
                RULE_INST,
                RuleKind::Lint,
                Severity::Error,
                Some(inst.name.clone()),
                format!("duplicate instance name {}", inst.name),
            ));
        }
        let Some(def) = lib.get(&inst.def) else {
            out.push(Violation::new(
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
                out.push(Violation::new(
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
                out.push(Violation::new(
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
fn check_unbound_ports(lib: &Library, circuit: &CircuitSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    for inst in &circuit.instances {
        let Some(def) = lib.get(&inst.def) else {
            continue;
        };
        for port in &def.ports {
            if inst.net_of(port).is_none() {
                out.push(Violation::new(
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
        out.push(Violation::new(
            RULE_BULK,
            RuleKind::Floating,
            Severity::Error,
            None,
            "circuit uses PMOS devices but has no supply-class net to tie their bulks to"
                .to_string(),
        ));
    }
    if uses_nmos && !has_gnd {
        out.push(Violation::new(
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
fn check_sizing(lib: &Library, circuit: &CircuitSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    for inst in &circuit.instances {
        let Some(def) = lib.get(&inst.def) else {
            continue;
        };
        if def.spec.devices.is_empty() {
            continue;
        }
        if inst.total_fins == 0 || prima_core::std_config_space(inst.total_fins).is_empty() {
            let mut v = Violation::new(
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
    circuit: &CircuitSpec,
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
            out.push(Violation::new(
                RULE_WIRE,
                RuleKind::Lint,
                Severity::Warning,
                Some(inst_name.clone()),
                format!("bias provided for unknown instance {inst_name}"),
            ));
            continue;
        }
        if !bias.vdd.is_finite() || bias.vdd <= 0.0 || bias.vdd > 1.5 * tech.vdd {
            let mut v = Violation::new(
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
                let mut v = Violation::new(
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
                let mut v = Violation::new(
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
    circuit: &CircuitSpec,
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
                out.push(Violation::new(
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
                let mut v = Violation::new(
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
            let mut v = Violation::new(
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

/// Runs the full schematic lint suite over a flow circuit request and
/// returns the finalized report.
///
/// The checks are independent; one firing never hides another. The
/// returned report is canonically sorted and deduplicated, so its content
/// is independent of instance insertion order.
///
/// External nets are derived structurally (gate-only nets and
/// diode-connected current inputs are assumed testbench-driven — the same
/// heuristic the flow's wire synthesis uses), so callers need no explicit
/// list. Pass `None` for `biases` when none are known (the conventional
/// baseline); nominal per-class biases are library invariants and are not
/// re-checked.
pub fn schem_preflight(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: Option<&HashMap<String, Bias>>,
) -> VerifyReport {
    let empty = HashMap::new();
    let biases = biases.unwrap_or(&empty);
    let mut report = VerifyReport {
        circuit: spec.name.clone(),
        ..VerifyReport::default()
    };
    report.absorb("schem.bind", check_bindings(lib, spec));

    let graph = ConnGraph::build(lib, spec);
    let externals = derive_external_nets(lib, spec, &graph);
    report.absorb("schem.supply", {
        let mut v = graph.check_supply_short();
        v.extend(check_bulk_rails(&graph));
        v
    });
    report.absorb("schem.float", graph.check_floating(&externals));
    report.absorb("schem.dangle", {
        let mut v = graph.check_dangling_nets(&externals);
        v.extend(check_unbound_ports(lib, spec));
        v
    });
    report.absorb("schem.size", check_sizing(lib, spec));
    report.absorb("schem.bias", check_bias(tech, spec, biases));
    report.absorb("schem.wire", check_wires(lib, spec, biases));
    report.absorb("schem.topology", topology::check_classes(lib, spec));
    report.absorb("schem.symmetry", topology::check_symmetry(lib, spec));
    report.nets_checked = graph.nets.len();
    report.finalize();
    report
}
