//! Assembles [`prima_erc::ErcArtifacts`] from a finished flow.
//!
//! The electrical gate is data-starved on purpose: `prima-erc` checks
//! plain currents, resistances, and positions, and this module is the one
//! place that derives them from flow state — worst-case net currents from
//! the primitive bias records, supply taps from the synthesized power
//! grid plus cell-internal extraction, symmetry declarations from the
//! circuit spec, and port/net bindings from the instance connection maps.

use std::collections::{BTreeMap, HashMap};

use prima_core::diagnostics::VerifyReport;
use prima_erc::{
    check_erc, CentroidGroup, ErcArtifacts, NetCurrent, PortTap, SupplyTap, SymmetryPair,
};
use prima_geom::Point;
use prima_layout::{PlacementPattern, PrimitiveLayout, PrimitiveSpec};
use prima_primitives::Bias;
use prima_route::power::PowerReport;

use crate::circuits::CircuitSpec;
use crate::flows::{is_power_net, FlowKind, Inst, PlacedDesign, Run, Wires};

/// Nominal supply current (A) assumed for an instance with no
/// operating-point record (passives, unknown defs).
const DEFAULT_BLOCK_A: f64 = 150e-6;

/// Supply current (A) of one instance: its bias record's `tail` current,
/// else its `ref` current, else [`DEFAULT_BLOCK_A`].
pub(crate) fn block_current(bias: Option<&Bias>) -> f64 {
    bias.map_or(DEFAULT_BLOCK_A, |b| {
        b.i("tail", b.i("ref", DEFAULT_BLOCK_A))
    })
}

/// `true` when `port` reaches only transistor gates inside the primitive:
/// it conducts no DC current.
pub(crate) fn gate_only_port(spec: &PrimitiveSpec, port: &str) -> bool {
    let gates = spec.devices.iter().any(|d| d.gate == port);
    let conducts = spec
        .devices
        .iter()
        .any(|d| d.drain == port || d.source == port);
    gates && !conducts
}

/// Worst-case DC current bound (A) through one conducting primitive port:
/// the instance's branch current scaled by the largest mirror ratio among
/// the devices whose channel touches the port. Gate-only ports carry
/// nothing.
pub(crate) fn port_current_a(spec: &PrimitiveSpec, bias: &Bias, port: &str) -> f64 {
    let base = block_current(Some(bias));
    spec.devices
        .iter()
        .filter(|d| d.drain == port || d.source == port)
        .map(|d| base * d.ratio as f64)
        .fold(0.0, f64::max)
}

/// Worst-case current bound (A) of one instance's connection to a net,
/// maximized over every port the instance puts on that net.
fn instance_net_current(insts: &[Inst<'_>], name: &str, net: &str) -> f64 {
    let Some(Inst { inst, def, bias }) = insts.iter().find(|i| i.inst.name == name) else {
        return DEFAULT_BLOCK_A;
    };
    if def.spec.devices.is_empty() {
        return DEFAULT_BLOCK_A;
    }
    inst.conn
        .iter()
        .filter(|(_, n)| n.as_str() == net)
        .map(|(port, _)| port_current_a(&def.spec, bias, port))
        .fold(0.0, f64::max)
}

/// Per-net worst-case currents with per-pin budgets, aligned with the
/// routing pins the placer produced (one pin per distinct instance on the
/// net, in first-tap order — the same dedup rule `place_and_route` uses).
pub(crate) fn net_currents(
    spec: &CircuitSpec,
    insts: &[Inst<'_>],
    pins: &[(String, Vec<Point>)],
) -> Vec<NetCurrent> {
    let mut out = Vec::new();
    for (net, points) in pins {
        let mut order: Vec<&str> = Vec::new();
        let mut bounds: Vec<f64> = Vec::new();
        for (inst, _) in spec.taps(net) {
            if order.contains(&inst.name.as_str()) {
                continue;
            }
            order.push(&inst.name);
            bounds.push(instance_net_current(insts, &inst.name, net));
        }
        let worst = bounds.iter().fold(0.0f64, |a, &b| a.max(b));
        if worst <= 0.0 {
            continue; // gate-only net: no DC current to check
        }
        let taps = if bounds.len() == points.len() {
            points.iter().copied().zip(bounds).collect()
        } else {
            Vec::new() // shape mismatch: fall back to the net-wide bound
        };
        out.push(NetCurrent {
            net: net.clone(),
            worst_a: worst,
            taps,
        });
    }
    out
}

/// Stage (every flow): the electrical gate. Derives the full artifact
/// bundle and runs every electrical check: EM over the routed topology at
/// the reconciled widths (clean by construction thanks to the EM clamp),
/// static IR on the synthesized grid, symmetry/matching lints, and
/// connectivity hygiene. `layouts` are the generated cells, for internal
/// supply extraction and centroid data. The flat baseline places no
/// mirrored units, so it makes no matching claims, and its wires carry no
/// currents for the EM pass.
pub(crate) fn erc(
    run: &Run<'_>,
    placed: &PlacedDesign,
    layouts: &BTreeMap<String, PrimitiveLayout>,
    power: Option<&PowerReport>,
    wires: &Wires,
) -> VerifyReport {
    let spec = run.spec;
    let mut art = ErcArtifacts::new(&spec.name, run.tech);
    art.routing = Some(&placed.routing);
    art.net_widths = wires.widths.clone();
    art.net_currents = wires.currents.clone();

    // Supply taps: grid feed drop per placed block (power synthesis order
    // is placement order) + the cell-internal access resistance of every
    // port tied to a rail.
    if let Some(power) = power {
        for (i, (name, _)) in placed.rects.iter().enumerate() {
            let Some(inst) = spec.instances.iter().find(|x| x.name == *name) else {
                continue;
            };
            let grid_drop = power.block_drops.get(i).copied().unwrap_or(0.0);
            let current = block_current(run.biases.and_then(|m| m.get(name)));
            let mut supply_ports: Vec<(&str, &str)> = inst
                .conn
                .iter()
                .filter(|(_, net)| is_power_net(net))
                .map(|(p, n)| (p.as_str(), n.as_str()))
                .collect();
            supply_ports.sort_unstable();
            for (port, net) in supply_ports {
                let internal_r = layouts
                    .get(name)
                    .and_then(|l| l.net_parasitics(port).ok())
                    .map_or(0.0, |p| p.r_access_ohm);
                art.supply.push(SupplyTap {
                    instance: name.clone(),
                    net: net.to_string(),
                    current_a: current,
                    grid_drop_v: grid_drop,
                    internal_r_ohm: internal_r,
                });
            }
        }
        art.tap_rows = power.strap_rows.clone();
    }

    art.outlines = placed.rects.clone();
    if run.kind != FlowKind::Conventional {
        art.pairs = spec
            .symmetry
            .iter()
            .map(|(a, b)| SymmetryPair {
                a: a.clone(),
                b: b.clone(),
            })
            .collect();
        art.centroid_groups = centroid_groups(spec, layouts);
    }

    // Port/net bindings for the hygiene checks, in a stable order.
    for Inst { inst, def, .. } in &run.insts {
        let mut conns: Vec<(&str, &str)> = inst
            .conn
            .iter()
            .map(|(p, n)| (p.as_str(), n.as_str()))
            .collect();
        conns.sort_unstable();
        for (port, net) in conns {
            art.port_taps.push(PortTap {
                instance: inst.name.clone(),
                port: port.to_string(),
                net: net.to_string(),
                is_gate_only: gate_only_port(&def.spec, port),
            });
        }
        if !def.spec.devices.is_empty() {
            art.declared_ports
                .push((inst.name.clone(), def.ports.clone()));
        }
    }

    // The spec carries no explicit pin list, so externally-driven nets are
    // derived: a net every instance touches only with gates must be driven
    // from outside (inputs, clocks, bias pins) — exactly the nets the
    // floating-gate rule would otherwise flag.
    let mut by_net: HashMap<&str, bool> = HashMap::new();
    for tap in &art.port_taps {
        let e = by_net.entry(tap.net.as_str()).or_insert(true);
        *e &= tap.is_gate_only;
    }
    art.external_nets = by_net
        .into_iter()
        .filter(|&(_, all_gate)| all_gate)
        .map(|(n, _)| n.to_string())
        .collect();
    art.external_nets.sort_unstable();

    check_erc(&art)
}

/// Common-centroid groups the generated layouts actually claim: ABBA cells
/// whose every device has an even finger count (with an odd count the two
/// halves are inherently unbalanced by half a pitch, so the pattern makes
/// no coincidence claim to verify).
fn centroid_groups(
    spec: &CircuitSpec,
    layouts: &BTreeMap<String, PrimitiveLayout>,
) -> Vec<CentroidGroup> {
    let mut out = Vec::new();
    for inst in &spec.instances {
        let Some(layout) = layouts.get(&inst.name) else {
            continue;
        };
        if layout.config.pattern != PlacementPattern::Abba || layout.devices.len() < 2 {
            continue;
        }
        let balanced = layout
            .devices
            .iter()
            .all(|d| (layout.config.nf as u64 * ratio_of(layout, &d.name)).is_multiple_of(2));
        if !balanced {
            continue;
        }
        out.push(CentroidGroup {
            instance: inst.name.clone(),
            centroids: layout
                .devices
                .iter()
                .map(|d| (d.name.clone(), d.centroid_x_nm))
                .collect(),
        });
    }
    out
}

/// A device's finger-count ratio; layouts carry geometry, not the spec, so
/// the ratio is recovered from the relative effective widths.
fn ratio_of(layout: &PrimitiveLayout, device: &str) -> u64 {
    let min_w = layout
        .devices
        .iter()
        .map(|d| d.w_m)
        .fold(f64::INFINITY, f64::min);
    let Some(d) = layout.devices.iter().find(|d| d.name == device) else {
        return 1;
    };
    if min_w > 0.0 && min_w.is_finite() {
        (d.w_m / min_w).round().max(1.0) as u64
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_layout::DeviceSpec;
    use prima_pdk::Technology;
    use prima_spice::devices::FetPolarity;

    fn dp_spec() -> PrimitiveSpec {
        PrimitiveSpec::new(
            "dp",
            vec![
                DeviceSpec::new("MA", FetPolarity::Nmos, "da", "ga", "s"),
                DeviceSpec::new("MB", FetPolarity::Nmos, "db", "gb", "s"),
            ],
        )
    }

    #[test]
    fn gate_ports_conduct_nothing_and_channels_carry_the_branch() {
        let spec = dp_spec();
        assert!(gate_only_port(&spec, "ga"));
        assert!(!gate_only_port(&spec, "da"));
        assert!(!gate_only_port(&spec, "s"));

        let tech = Technology::finfet7();
        let mut bias = Bias::nominal(&tech, &prima_primitives::PrimitiveClass::DifferentialPair);
        bias.set_i("tail", 700e-6);
        assert_eq!(port_current_a(&spec, &bias, "ga"), 0.0);
        assert!((port_current_a(&spec, &bias, "s") - 700e-6).abs() < 1e-12);
    }

    #[test]
    fn mirror_ratio_scales_the_port_bound() {
        let spec = PrimitiveSpec::new(
            "cm",
            vec![
                DeviceSpec::new("MREF", FetPolarity::Nmos, "in", "in", "vss"),
                DeviceSpec::with_ratio("MOUT", FetPolarity::Nmos, "out", "in", "vss", 2),
            ],
        );
        let tech = Technology::finfet7();
        let mut bias = Bias::nominal(
            &tech,
            &prima_primitives::PrimitiveClass::CurrentMirror { ratio: 2 },
        );
        bias.set_i("ref", 200e-6);
        assert!((port_current_a(&spec, &bias, "out") - 400e-6).abs() < 1e-12);
        assert!((port_current_a(&spec, &bias, "in") - 200e-6).abs() < 1e-12);
        // vss sees both channels: bounded by the larger.
        assert!((port_current_a(&spec, &bias, "vss") - 400e-6).abs() < 1e-12);
    }
}
