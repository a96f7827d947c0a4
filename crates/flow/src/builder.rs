//! Flat-circuit assembly: primitive instances + top-level net wiring.
//!
//! Each primitive expands into its subcircuit (schematic devices, or
//! extracted layout with mesh parasitics and LDE shifts). Top-level nets
//! that carry global routes get a star RC: every connected port reaches the
//! net hub through half the route resistance, and the hub carries the route
//! capacitance. The supply rail sees a series IR resistance (the paper's
//! manually-routed power with IR degradation included).

use std::collections::{BTreeMap, HashMap};

use prima_layout::PrimitiveLayout;
use prima_pdk::Technology;
use prima_primitives::{as_subcircuit, ExternalWire, LayoutView, Library};
use prima_spice::netlist::Circuit;

use crate::FlowError;

/// One primitive instance in a circuit: library key, sizing, connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimitiveInst {
    /// Instance name (also the layout block name).
    pub name: String,
    /// Library key of the primitive definition.
    pub def: String,
    /// Unit-device sizing (`nfin·nf·m` total fins).
    pub total_fins: u64,
    /// `(primitive port, top-level net)` pairs.
    pub conn: Vec<(String, String)>,
}

impl PrimitiveInst {
    /// Creates an instance from `(port, net)` string pairs.
    pub fn new(name: &str, def: &str, total_fins: u64, conn: &[(&str, &str)]) -> Self {
        PrimitiveInst {
            name: name.to_string(),
            def: def.to_string(),
            total_fins,
            conn: conn
                .iter()
                .map(|&(p, n)| (p.to_string(), n.to_string()))
                .collect(),
        }
    }

    /// The top-level net a port connects to.
    pub fn net_of(&self, port: &str) -> Option<&str> {
        self.conn
            .iter()
            .find(|(p, _)| p == port)
            .map(|(_, n)| n.as_str())
    }
}

/// How a circuit is physically realized: which instances have layouts, what
/// route RC sits on each net, and the supply IR resistance. Both maps are
/// ordered, so `{:?}` reads the same in every process and the circuit's
/// route hubs are numbered in net order.
#[derive(Debug, Clone, Default)]
pub struct Realization {
    /// Extracted (and tuned) layout per instance; instances absent from the
    /// map are realized as ideal schematic devices.
    pub layouts: BTreeMap<String, PrimitiveLayout>,
    /// Global-route RC per top-level net (already scaled by the chosen
    /// parallel-route count).
    pub net_wires: BTreeMap<String, ExternalWire>,
    /// Series resistance in the supply rail (Ω).
    pub supply_r_ohm: f64,
}

impl Realization {
    /// The all-ideal realization (`x_sch` reference).
    pub fn schematic() -> Self {
        Self::default()
    }
}

/// Supply node the circuit testbenches drive; the internal rail `vdd` sits
/// behind the IR resistance.
pub const VDD_EXT: &str = "vdd_ext";

/// Assembles the flat simulator circuit.
///
/// # Errors
///
/// Returns [`FlowError::UnknownPrimitive`] / [`FlowError::BadConnection`]
/// for netlist mistakes and propagates evaluation errors.
pub fn build_circuit(
    tech: &Technology,
    lib: &Library,
    insts: &[PrimitiveInst],
    realization: &Realization,
) -> Result<Circuit, FlowError> {
    let mut top = Circuit::new();

    // Supply rail with IR drop: testbenches drive `vdd_ext`.
    let vdd_ext = top.node(VDD_EXT);
    let vdd = top.node("vdd");
    top.resistor("Rsupply", vdd_ext, vdd, realization.supply_r_ohm.max(1e-3))?;

    // Net hubs with route capacitance.
    for (net, wire) in &realization.net_wires {
        let hub = top.node(net);
        if wire.c_f > 0.0 {
            top.capacitor(&format!("Croute_{net}"), hub, Circuit::GROUND, wire.c_f)?;
        }
    }

    for inst in insts {
        let def = lib
            .get(&inst.def)
            .ok_or_else(|| FlowError::UnknownPrimitive {
                name: inst.def.clone(),
            })?;
        for (port, _) in &inst.conn {
            if !def.ports.contains(port) {
                return Err(FlowError::BadConnection {
                    instance: inst.name.clone(),
                    port: port.clone(),
                });
            }
        }
        let view = match realization.layouts.get(&inst.name) {
            Some(layout) => LayoutView::Layout(layout),
            None => LayoutView::Schematic {
                total_fins: inst.total_fins,
            },
        };
        let sub = as_subcircuit(tech, def, view)?;

        let mut ports: HashMap<String, prima_spice::netlist::NodeId> = HashMap::new();
        // PMOS bulks ride the internal supply rail.
        ports.insert("vdd!".to_string(), vdd);
        for (port, net) in &inst.conn {
            let node = if let Some(wire) = realization.net_wires.get(net) {
                // Star model: each tap reaches the hub through half the
                // route resistance.
                let hub = top.node(net);
                let tap = top.node(&format!("{net}@{}", inst.name));
                let r = (wire.r_ohm / 2.0).max(1e-3);
                // `instantiate` may be called for several ports on one net;
                // only add the tap resistor once per (net, inst).
                let rname = format!("Rroute_{net}_{}", inst.name);
                if !top.elements().iter().any(|e| e.name() == rname) {
                    top.resistor(&rname, tap, hub, r)?;
                }
                tap
            } else {
                top.node(net)
            };
            ports.insert(port.clone(), node);
        }
        top.instantiate(&inst.name, &sub, &ports)?;
    }
    Ok(top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_spice::analysis::dc::DcSolver;

    fn tech() -> Technology {
        Technology::finfet7()
    }

    /// A tiny two-primitive circuit: current source load on a CS amp.
    fn amp_insts() -> Vec<PrimitiveInst> {
        vec![
            PrimitiveInst::new(
                "m1",
                "cs_amp",
                64,
                &[("in", "vin"), ("out", "vout"), ("vss", "gndnet")],
            ),
            PrimitiveInst::new(
                "m2",
                "csrc_pmos",
                96,
                &[("out", "vout"), ("vb", "vbp"), ("vdd", "vdd")],
            ),
        ]
    }

    #[test]
    fn builds_and_solves_schematic() {
        let tech = tech();
        let lib = Library::standard();
        let mut c = build_circuit(&tech, &lib, &amp_insts(), &Realization::schematic()).unwrap();
        // Drive it like a testbench would.
        let vdd_ext = c.find_node(VDD_EXT).unwrap();
        c.vsource("VDD", vdd_ext, Circuit::GROUND, 0.8);
        let vin = c.find_node("vin").unwrap();
        c.vsource("VIN", vin, Circuit::GROUND, 0.4);
        let vbp = c.find_node("vbp").unwrap();
        c.vsource("VBP", vbp, Circuit::GROUND, 0.45);
        let g = c.find_node("gndnet").unwrap();
        c.vsource("VGND", g, Circuit::GROUND, 0.0);
        let op = DcSolver::new().solve(&c).unwrap();
        let vout = op.voltage(c.find_node("vout").unwrap());
        assert!(vout > 0.0 && vout < 0.8, "vout = {vout}");
    }

    #[test]
    fn net_wires_insert_star_rc() {
        let tech = tech();
        let lib = Library::standard();
        let mut real = Realization::schematic();
        real.net_wires.insert(
            "vout".to_string(),
            ExternalWire {
                r_ohm: 100.0,
                c_f: 2e-15,
            },
        );
        let c = build_circuit(&tech, &lib, &amp_insts(), &real).unwrap();
        // Two taps (m1, m2) plus the hub cap and the supply resistor.
        let taps = c
            .elements()
            .iter()
            .filter(|e| e.name().starts_with("Rroute_vout"))
            .count();
        assert_eq!(taps, 2);
        assert!(c.find_node("vout@m1").is_some());
        assert!(c.elements().iter().any(|e| e.name() == "Croute_vout"));
    }

    #[test]
    fn supply_resistance_drops_rail() {
        let tech = tech();
        let lib = Library::standard();
        let mut real = Realization::schematic();
        real.supply_r_ohm = 50.0;
        let mut c = build_circuit(&tech, &lib, &amp_insts(), &real).unwrap();
        let vdd_ext = c.find_node(VDD_EXT).unwrap();
        c.vsource("VDD", vdd_ext, Circuit::GROUND, 0.8);
        let vin = c.find_node("vin").unwrap();
        c.vsource("VIN", vin, Circuit::GROUND, 0.45);
        let vbp = c.find_node("vbp").unwrap();
        c.vsource("VBP", vbp, Circuit::GROUND, 0.4);
        let g = c.find_node("gndnet").unwrap();
        c.vsource("VGND", g, Circuit::GROUND, 0.0);
        let op = DcSolver::new().solve(&c).unwrap();
        let rail = op.voltage(c.find_node("vdd").unwrap());
        assert!(rail < 0.8, "IR drop expected, rail = {rail}");
        assert!(rail > 0.7, "drop should be mV-scale, rail = {rail}");
    }

    #[test]
    fn unknown_primitive_and_bad_port() {
        let tech = tech();
        let lib = Library::standard();
        let bad = vec![PrimitiveInst::new("x", "nonexistent", 8, &[])];
        assert!(matches!(
            build_circuit(&tech, &lib, &bad, &Realization::schematic()),
            Err(FlowError::UnknownPrimitive { .. })
        ));
        let bad_port = vec![PrimitiveInst::new("x", "cs_amp", 8, &[("nonport", "n1")])];
        assert!(matches!(
            build_circuit(&tech, &lib, &bad_port, &Realization::schematic()),
            Err(FlowError::BadConnection { .. })
        ));
    }

    #[test]
    fn layout_realization_adds_parasitics() {
        use prima_layout::{generate, CellConfig, PlacementPattern};
        let tech = tech();
        let lib = Library::standard();
        let insts = amp_insts();
        let cs = lib.get("cs_amp").unwrap();
        let layout = generate(
            &tech,
            &cs.spec,
            &CellConfig::new(4, 4, 4, PlacementPattern::Abab),
        )
        .unwrap();
        let mut real = Realization::schematic();
        real.layouts.insert("m1".to_string(), layout);
        let with = build_circuit(&tech, &lib, &insts, &real).unwrap();
        let without = build_circuit(&tech, &lib, &insts, &Realization::schematic()).unwrap();
        assert!(with.elements().len() > without.elements().len());
    }
}
