//! Structural topology recognition over primitive device templates, plus
//! the symmetry lints that cross-check a circuit's declared matching
//! constraints against what its structure actually supports.
//!
//! Recognition works on the *template* devices of a
//! [`PrimitiveDef`](prima_primitives::PrimitiveDef) (net
//! names local to the primitive): a differential pair is two same-polarity
//! devices sharing a source with distinct gates and drains; a current
//! mirror is a diode-connected device plus a partner sharing gate and
//! source; a cross-coupled pair is two same-polarity devices whose gates
//! and drains interlock (sources may differ — latches split them into
//! per-side tail nets).

use std::collections::BTreeSet;

use prima_core::diagnostics::{RuleKind, Severity, Violation};
use prima_layout::DeviceSpec;
use prima_primitives::{Library, PrimitiveClass};

use super::{RULE_CLASS, RULE_SYM_INFER, RULE_SYM_NET, RULE_SYM_PAIR};
use crate::builder::PrimitiveInst;
use crate::circuits::CircuitSpec;

/// A structural pattern found among a primitive's template devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Two devices sharing a source, with distinct gates and drains.
    DiffPair,
    /// A diode-connected reference plus an output device sharing gate and
    /// source.
    CurrentMirror,
    /// Two devices whose gates and drains interlock.
    CrossCoupled,
}

fn is_diode(d: &DeviceSpec) -> bool {
    d.gate == d.drain
}

/// Recognizes every supported topology among the template devices.
pub fn recognize(devices: &[DeviceSpec]) -> Vec<Topology> {
    let mut found = BTreeSet::new();
    for (i, a) in devices.iter().enumerate() {
        for b in devices.iter().skip(i + 1) {
            if a.polarity != b.polarity {
                continue;
            }
            if a.source == b.source && a.gate != b.gate && a.drain != b.drain {
                found.insert(0u8);
            }
            if a.gate == b.drain && b.gate == a.drain && a.drain != b.drain {
                found.insert(2u8);
            }
        }
        if is_diode(a) {
            for (j, b) in devices.iter().enumerate() {
                if j != i && b.polarity == a.polarity && b.gate == a.gate && b.source == a.source {
                    found.insert(1u8);
                }
            }
        }
    }
    found
        .into_iter()
        .map(|t| match t {
            0 => Topology::DiffPair,
            1 => Topology::CurrentMirror,
            _ => Topology::CrossCoupled,
        })
        .collect()
}

/// `SCHEM.CLASS`: every *used* definition whose declared class implies a
/// matching topology must actually contain it. A `DifferentialPair` class
/// without a recognizable pair means the testbench recipes and the
/// placer's matching assumptions are built on sand.
pub fn check_classes(lib: &Library, circuit: &CircuitSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for inst in &circuit.instances {
        let Some(def) = lib.get(&inst.def) else {
            continue;
        };
        if !seen.insert(def.name.clone()) {
            continue;
        }
        let required = match def.class {
            PrimitiveClass::DifferentialPair => Some((Topology::DiffPair, "differential pair")),
            PrimitiveClass::CurrentMirror { .. } => {
                Some((Topology::CurrentMirror, "current mirror"))
            }
            PrimitiveClass::CrossCoupled => Some((Topology::CrossCoupled, "cross-coupled pair")),
            _ => None,
        };
        if let Some((topology, label)) = required {
            if !recognize(&def.spec.devices).contains(&topology) {
                out.push(Violation::new(
                    RULE_CLASS,
                    RuleKind::Lint,
                    Severity::Error,
                    Some(def.name.clone()),
                    format!(
                        "definition {} declares class {:?} but its devices contain no \
                         recognizable {label}",
                        def.name, def.class
                    ),
                ));
            }
        }
    }
    out
}

/// The net-swap map induced by `symmetric_nets`: each listed pair maps to
/// its partner (both directions); unlisted nets map to themselves.
fn swap<'a>(circuit: &'a CircuitSpec, net: &'a str) -> &'a str {
    for (a, b) in &circuit.symmetric_nets {
        if net == a {
            return b;
        }
        if net == b {
            return a;
        }
    }
    net
}

/// An instance's connection set with every net pushed through the swap
/// map, sorted for comparison.
fn swapped_conn(circuit: &CircuitSpec, inst: &PrimitiveInst) -> Vec<(String, String)> {
    let mut conn: Vec<(String, String)> = inst
        .conn
        .iter()
        .map(|(p, n)| (p.clone(), swap(circuit, n).to_string()))
        .collect();
    conn.sort_unstable();
    conn
}

fn sorted_conn(inst: &PrimitiveInst) -> Vec<(String, String)> {
    let mut conn = inst.conn.clone();
    conn.sort_unstable();
    conn
}

fn mirror_images(circuit: &CircuitSpec, a: &PrimitiveInst, b: &PrimitiveInst) -> bool {
    a.def == b.def && a.total_fins == b.total_fins && swapped_conn(circuit, a) == sorted_conn(b)
}

/// The symmetry lints: declared net pairs must exist, declared instance
/// pairs must be structural mirror images under the net-swap map, and
/// structurally mirrored pairs the designer forgot to declare are
/// surfaced as warnings (they lose matched placement/routing silently).
pub fn check_symmetry(lib: &Library, circuit: &CircuitSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let nets = circuit.nets();

    // SCHEM.SYM.NET: symmetric_nets pairs name two existing, distinct nets.
    for (a, b) in &circuit.symmetric_nets {
        if a == b {
            out.push(Violation::new(
                RULE_SYM_NET,
                RuleKind::Symmetry,
                Severity::Error,
                Some(a.clone()),
                format!("symmetric net pair ({a}, {b}) pairs a net with itself"),
            ));
            continue;
        }
        for n in [a, b] {
            if !nets.iter().any(|x| x == n) {
                out.push(Violation::new(
                    RULE_SYM_NET,
                    RuleKind::Symmetry,
                    Severity::Error,
                    Some(n.clone()),
                    format!("symmetric net pair ({a}, {b}) references unknown net {n}"),
                ));
            }
        }
    }

    // SCHEM.SYM.PAIR: declared instance pairs are mirror images.
    for (a, b) in &circuit.symmetry {
        let ia = circuit.instance(a);
        let ib = circuit.instance(b);
        let (Some(ia), Some(ib)) = (ia, ib) else {
            let missing = if ia.is_none() { a } else { b };
            out.push(Violation::new(
                RULE_SYM_PAIR,
                RuleKind::Symmetry,
                Severity::Error,
                Some(missing.clone()),
                format!("symmetry pair ({a}, {b}) references unknown instance {missing}"),
            ));
            continue;
        };
        if a == b {
            out.push(Violation::new(
                RULE_SYM_PAIR,
                RuleKind::Symmetry,
                Severity::Error,
                Some(a.clone()),
                format!("symmetry pair ({a}, {b}) pairs an instance with itself"),
            ));
            continue;
        }
        if ia.def != ib.def || ia.total_fins != ib.total_fins {
            out.push(Violation::new(
                RULE_SYM_PAIR,
                RuleKind::Symmetry,
                Severity::Error,
                Some(format!("{a},{b}")),
                format!(
                    "symmetry pair ({a}, {b}) is not matchable: {} vs {} at {} vs {} fins",
                    ia.def, ib.def, ia.total_fins, ib.total_fins
                ),
            ));
            continue;
        }
        if swapped_conn(circuit, ia) != sorted_conn(ib) {
            out.push(Violation::new(
                RULE_SYM_PAIR,
                RuleKind::Symmetry,
                Severity::Error,
                Some(format!("{a},{b}")),
                format!(
                    "symmetry pair ({a}, {b}): connections are not mirror images under \
                     the symmetric-net swap, so matched placement cannot hold electrically"
                ),
            ));
        }
    }

    // SCHEM.SYM.INFER: structurally mirrored pairs that were not declared.
    let declared: BTreeSet<(String, String)> = circuit
        .symmetry
        .iter()
        .flat_map(|(a, b)| [(a.clone(), b.clone()), (b.clone(), a.clone())])
        .collect();
    for (i, ia) in circuit.instances.iter().enumerate() {
        for ib in circuit.instances.iter().skip(i + 1) {
            if declared.contains(&(ia.name.clone(), ib.name.clone())) {
                continue;
            }
            if lib.get(&ia.def).is_none() {
                continue;
            }
            // Identical connections mirror trivially (parallel instances);
            // only a pair the swap map genuinely reflects is a candidate.
            if sorted_conn(ia) != sorted_conn(ib) && mirror_images(circuit, ia, ib) {
                out.push(Violation::new(
                    RULE_SYM_INFER,
                    RuleKind::Symmetry,
                    Severity::Warning,
                    Some(format!("{},{}", ia.name, ib.name)),
                    format!(
                        "instances {} and {} are structural mirror images under the \
                         symmetric-net swap but are not declared as a symmetry pair; \
                         they will not receive matched placement or routing",
                        ia.name, ib.name
                    ),
                ));
            }
        }
    }
    out
}
