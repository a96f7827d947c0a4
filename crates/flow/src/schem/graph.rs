//! The device-level connectivity graph a schematic expands into, and the
//! graph-shaped lints (supply shorts, floating gates, dangling nets).
//!
//! Construction is *total*: unknown definitions and bad port bindings are
//! reported by the binding lint, never panicked on — here they simply
//! contribute nothing to the graph. Nets are keyed by resolved name in a
//! sorted map, so the graph's content is independent of instance insertion
//! order (the binding the proptests pin down).

use std::collections::BTreeMap;

use prima_core::diagnostics::{RuleKind, Severity, Violation};
use prima_primitives::Library;
use prima_spice::devices::FetPolarity;

use super::{RULE_DANGLE, RULE_FLOAT, RULE_SHORT};
use crate::circuits::CircuitSpec;

/// Tap statistics of one resolved net.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetInfo {
    /// `true` for circuit-level nets; `false` for nets internal to one
    /// primitive instance (resolved as `instance/net`).
    pub top_level: bool,
    /// Device gate terminals on the net.
    pub gate_taps: usize,
    /// Device drain/source terminals on the net.
    pub channel_taps: usize,
    /// Passive-primitive terminals on the net (treated as conducting for
    /// reachability: a capacitor plate physically pins the net down even
    /// though it carries no DC).
    pub passive_taps: usize,
}

impl NetInfo {
    /// Total terminals on the net.
    pub fn taps(&self) -> usize {
        self.gate_taps + self.channel_taps + self.passive_taps
    }

    /// `true` when only gates reach the net: nothing on it can source or
    /// sink DC current.
    pub fn gate_only(&self) -> bool {
        self.gate_taps > 0 && self.channel_taps == 0 && self.passive_taps == 0
    }
}

/// One expanded transistor with its terminal nets resolved to graph names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphDevice {
    /// Owning circuit instance.
    pub instance: String,
    /// Device name inside the primitive template.
    pub device: String,
    /// Channel polarity.
    pub polarity: FetPolarity,
    /// Resolved drain net.
    pub drain: String,
    /// Resolved gate net.
    pub gate: String,
    /// Resolved source net.
    pub source: String,
}

/// The expanded device-level connectivity graph of a circuit.
#[derive(Debug, Clone, Default)]
pub struct ConnGraph {
    /// Resolved net name → tap statistics, sorted by name.
    pub(crate) nets: BTreeMap<String, NetInfo>,
    /// Every expanded transistor.
    pub(crate) devices: Vec<GraphDevice>,
}

/// `true` for the supply-rail net names the flows treat as VDD.
pub fn is_vdd_net(net: &str) -> bool {
    matches!(net, "vdd" | "vdd_ext" | "vdd!")
}

/// `true` for the ground-rail net names.
pub fn is_ground_net(net: &str) -> bool {
    matches!(net, "vss" | "vssn" | "gnd" | "0")
}

/// `true` for any rail net (either polarity).
pub fn is_rail_net(net: &str) -> bool {
    is_vdd_net(net) || is_ground_net(net)
}

impl ConnGraph {
    /// Expands every known instance against its primitive template.
    ///
    /// Resolution rule per device terminal: a template net that is a bound
    /// port becomes the circuit net; anything else (template-internal nets
    /// and unbound ports) becomes the instance-scoped name
    /// `instance/net`. Unknown definitions and connections to undeclared
    /// ports are skipped — the binding lint owns those.
    pub fn build(lib: &Library, circuit: &CircuitSpec) -> Self {
        let mut graph = ConnGraph::default();
        for inst in &circuit.instances {
            let Some(def) = lib.get(&inst.def) else {
                continue;
            };
            if def.spec.devices.is_empty() {
                // Passive primitive: each bound terminal pins its net.
                for (port, net) in &inst.conn {
                    if def.ports.contains(port) {
                        let e = graph.net_mut(net, true);
                        e.passive_taps += 1;
                    }
                }
                continue;
            }
            let resolve = |template_net: &str| -> (String, bool) {
                if def.ports.iter().any(|p| p == template_net) {
                    if let Some(net) = inst.net_of(template_net) {
                        return (net.to_string(), true);
                    }
                }
                (format!("{}/{}", inst.name, template_net), false)
            };
            for d in &def.spec.devices {
                let (drain, d_top) = resolve(&d.drain);
                let (gate, g_top) = resolve(&d.gate);
                let (source, s_top) = resolve(&d.source);
                graph.net_mut(&drain, d_top).channel_taps += 1;
                graph.net_mut(&gate, g_top).gate_taps += 1;
                graph.net_mut(&source, s_top).channel_taps += 1;
                graph.devices.push(GraphDevice {
                    instance: inst.name.clone(),
                    device: d.name.clone(),
                    polarity: d.polarity,
                    drain,
                    gate,
                    source,
                });
            }
        }
        graph
    }

    fn net_mut(&mut self, name: &str, top_level: bool) -> &mut NetInfo {
        let e = self.nets.entry(name.to_string()).or_default();
        e.top_level |= top_level;
        e
    }

    /// A canonical, insertion-order-independent rendering of the graph —
    /// the determinism witness the proptests compare.
    pub fn signature(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (net, info) in &self.nets {
            let _ = writeln!(
                out,
                "net {net} top={} g={} c={} p={}",
                info.top_level, info.gate_taps, info.channel_taps, info.passive_taps
            );
        }
        let mut devs: Vec<String> = self
            .devices
            .iter()
            .map(|d| {
                format!(
                    "dev {}/{} {:?} d={} g={} s={}",
                    d.instance, d.device, d.polarity, d.drain, d.gate, d.source
                )
            })
            .collect();
        devs.sort_unstable();
        out.push_str(&devs.join("\n"));
        out
    }

    /// `SCHEM.SHORT`: a single device channel directly bridging a VDD-class
    /// net and a ground-class net — static rail-to-rail current by
    /// construction, which no bias point can fix.
    pub(crate) fn check_supply_short(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for d in &self.devices {
            let bridges = (is_vdd_net(&d.drain) && is_ground_net(&d.source))
                || (is_ground_net(&d.drain) && is_vdd_net(&d.source));
            if bridges {
                out.push(Violation::new(
                    RULE_SHORT,
                    RuleKind::Short,
                    Severity::Error,
                    Some(format!("{}/{}", d.instance, d.device)),
                    format!(
                        "device {}/{} channel connects {} to {}: supply-to-ground short",
                        d.instance, d.device, d.drain, d.source
                    ),
                ));
            }
        }
        out
    }

    /// `SCHEM.FLOAT`: gate nets nothing can ever drive. Internal gate-only
    /// nets are floating unconditionally (no outside wire can reach them);
    /// top-level gate-only nets float unless declared (or derived) as
    /// externally driven inputs.
    pub(crate) fn check_floating(&self, externals: &[String]) -> Vec<Violation> {
        let mut out = Vec::new();
        for (net, info) in &self.nets {
            if !info.gate_only() || is_rail_net(net) {
                continue;
            }
            if info.top_level && externals.iter().any(|e| e == net) {
                continue;
            }
            let where_ = if info.top_level {
                "top-level net"
            } else {
                "primitive-internal net"
            };
            out.push(Violation::new(
                RULE_FLOAT,
                RuleKind::Floating,
                Severity::Error,
                Some(net.clone()),
                format!(
                    "{where_} {net} reaches only transistor gates and is not an \
                     external input: the gates float"
                ),
            ));
        }
        out
    }

    /// `SCHEM.DANGLE` (net half): a non-rail top-level net with exactly one
    /// conducting terminal — current into it has nowhere to go, so the net
    /// is unreachable wiring (usually a typo'd net name).
    pub(crate) fn check_dangling_nets(&self, externals: &[String]) -> Vec<Violation> {
        let mut out = Vec::new();
        for (net, info) in &self.nets {
            if !info.top_level || is_rail_net(net) || info.gate_only() {
                continue;
            }
            if externals.iter().any(|e| e == net) {
                continue;
            }
            if info.taps() == 1 {
                out.push(Violation::new(
                    RULE_DANGLE,
                    RuleKind::Dangling,
                    Severity::Error,
                    Some(net.clone()),
                    format!(
                        "net {net} has a single conducting terminal and no declared \
                         external driver: dangling/unreachable"
                    ),
                ));
            }
        }
        out
    }
}
