//! Connectivity hygiene: floating gates, dangling ports, well-tap reach.
//!
//! * **ERC.FLOAT** — a net whose every connection is a gate-only port has
//!   no DC path to anything that could set its voltage; unless the
//!   circuit declares it externally driven (a top-level input, clock, or
//!   bias pin), the gate floats.
//! * **ERC.DANGLE** — a port declared by the primitive but bound to no
//!   net in the instance connection map.
//! * **ERC.TAP** — every placed cell must sit within the technology's
//!   maximum distance of a well-tap row (the power-grid strap rows carry
//!   the taps); latch-up safety degrades with distance.

use std::collections::{HashMap, HashSet};

use prima_core::diagnostics::{RuleKind, Severity, Violation};
use prima_geom::{Nm, Rect};

use crate::ErcArtifacts;

/// Distance (nm) from a rectangle to a horizontal line at `y`.
fn rect_row_distance(rect: Rect, y: Nm) -> Nm {
    if y < rect.lo.y {
        rect.lo.y - y
    } else if y > rect.hi.y {
        y - rect.hi.y
    } else {
        0
    }
}

/// Runs the floating-gate, dangling-port, and well-tap checks.
pub fn check(art: &ErcArtifacts<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let external: HashSet<&str> = art.external_nets.iter().map(String::as_str).collect();

    // Floating gates: group port taps by net.
    let mut nets: HashMap<&str, Vec<&crate::PortTap>> = HashMap::new();
    for tap in &art.port_taps {
        nets.entry(tap.net.as_str()).or_default().push(tap);
    }
    let mut net_names: Vec<&str> = nets.keys().copied().collect();
    net_names.sort_unstable();
    for net in net_names {
        let taps = &nets[net];
        if external.contains(net) {
            continue;
        }
        if taps.iter().all(|t| t.is_gate_only) {
            let who: Vec<String> = taps
                .iter()
                .map(|t| format!("{}.{}", t.instance, t.port))
                .collect();
            out.push(Violation::new(
                "ERC.FLOAT",
                RuleKind::Floating,
                Severity::Error,
                Some(net.to_string()),
                format!(
                    "net {net}: every connection ({}) is a gate — nothing \
                     drives it and it is not declared an external input",
                    who.join(", ")
                ),
            ));
        }
    }

    // Dangling ports: declared on the primitive, absent from the binding.
    let bound: HashSet<(&str, &str)> = art
        .port_taps
        .iter()
        .map(|t| (t.instance.as_str(), t.port.as_str()))
        .collect();
    for (instance, ports) in &art.declared_ports {
        for port in ports {
            if !bound.contains(&(instance.as_str(), port.as_str())) {
                out.push(Violation::new(
                    "ERC.DANGLE",
                    RuleKind::Dangling,
                    Severity::Error,
                    Some(instance.clone()),
                    format!("{instance}.{port}: declared port is connected to no net"),
                ));
            }
        }
    }

    // Well-tap reach, measured against the strap rows (when a grid was
    // synthesized at all).
    if !art.tap_rows.is_empty() {
        let max_dist = art.tech.electrical.max_tap_distance_nm;
        for (instance, rect) in &art.outlines {
            let dist = art
                .tap_rows
                .iter()
                .map(|&y| rect_row_distance(*rect, y))
                .min()
                .unwrap_or(0);
            if dist > max_dist {
                out.push(Violation {
                    rule_id: "ERC.TAP".to_string(),
                    kind: RuleKind::Tap,
                    severity: Severity::Error,
                    layer: None,
                    scope: Some(instance.clone()),
                    rects: vec![*rect],
                    found: Some(dist),
                    required: Some(max_dist),
                    message: format!(
                        "{instance}: {dist} nm from the nearest well-tap row \
                         (limit {max_dist} nm)"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_geom::Point;
    use prima_pdk::Technology;

    fn tap(instance: &str, port: &str, net: &str, gate: bool) -> crate::PortTap {
        crate::PortTap {
            instance: instance.into(),
            port: port.into(),
            net: net.into(),
            is_gate_only: gate,
        }
    }

    #[test]
    fn all_gate_net_floats_unless_declared_external() {
        let tech = Technology::finfet7();
        let mut art = ErcArtifacts::new("fixture", &tech);
        art.port_taps = vec![
            tap("m1", "in", "mid", true),
            tap("m2", "vb", "mid", true),
            tap("m1", "out", "vout", false),
        ];
        let v = check(&art);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule_id, "ERC.FLOAT");
        assert_eq!(v[0].scope.as_deref(), Some("mid"));

        art.external_nets = vec!["mid".to_string()];
        assert!(check(&art).is_empty());
    }

    #[test]
    fn unbound_declared_port_dangles() {
        let tech = Technology::finfet7();
        let mut art = ErcArtifacts::new("fixture", &tech);
        art.port_taps = vec![tap("m1", "in", "a", true)];
        art.declared_ports = vec![("m1".to_string(), vec!["in".into(), "out".into()])];
        art.external_nets = vec!["a".to_string()];
        let v = check(&art);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule_id, "ERC.DANGLE");
        assert!(v[0].message.contains("m1.out"));
    }

    #[test]
    fn distant_cell_misses_the_tap_row() {
        let tech = Technology::finfet7();
        let mut art = ErcArtifacts::new("fixture", &tech);
        art.tap_rows = vec![0];
        art.outlines = vec![
            (
                "near".to_string(),
                Rect::from_size(Point::new(0, 1_000), 1_000, 1_000),
            ),
            (
                "far".to_string(),
                Rect::from_size(Point::new(0, 9_000), 1_000, 1_000),
            ),
        ];
        let v = check(&art);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule_id, "ERC.TAP");
        assert_eq!(v[0].scope.as_deref(), Some("far"));
        assert_eq!(v[0].found, Some(9_000));
    }
}
