//! The paper's benchmark circuits (§IV): primitive-level structure plus
//! circuit-level testbenches.
//!
//! Each circuit provides
//!
//! * `spec()` — its primitive instances and connectivity (the annotated
//!   netlist of Fig. 1),
//! * `biases()` — per-primitive DC bias conditions extracted from a
//!   circuit-level schematic simulation (§II-B: "we get this information as
//!   input from circuit-level schematic simulations"), and
//! * `measure()` — the circuit-level performance metrics of Tables VI/VII
//!   for any [`Realization`] (schematic, conventional, optimized, manual).

use prima_pdk::Technology;
use prima_primitives::{Library, PrimitiveDef};
use prima_spice::analysis::dc::OperatingPoint;
use prima_spice::netlist::{Circuit, NodeId};

use crate::builder::{build_circuit, PrimitiveInst, Realization, VDD_EXT};
use crate::FlowError;

pub mod cs_amp;
pub mod ota;
pub mod strongarm;
pub mod vco;

pub use cs_amp::{CsAmp, CsAmpMetrics};
pub use ota::{FiveTOta, OtaMetrics};
pub use strongarm::{StrongArm, StrongArmMetrics};
pub use vco::{RoVco, VcoMetrics};

/// A circuit's primitive-level structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Circuit name.
    pub name: String,
    /// Primitive instances.
    pub instances: Vec<PrimitiveInst>,
    /// Instance pairs placed symmetrically (matched signal paths).
    pub symmetry: Vec<(String, String)>,
    /// Net pairs the detailed router must route symmetrically (the
    /// geometric constraint that preserves a matched pair's offset).
    pub symmetric_nets: Vec<(String, String)>,
}

impl CircuitSpec {
    /// Instance by name.
    pub fn instance(&self, name: &str) -> Option<&PrimitiveInst> {
        self.instances.iter().find(|i| i.name == name)
    }

    /// Top-level nets in first-appearance order, rails included.
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

    /// The instances connected to a net, with the ports they use.
    pub fn taps(&self, net: &str) -> Vec<(&PrimitiveInst, &str)> {
        let mut out = Vec::new();
        for inst in &self.instances {
            for (port, n) in &inst.conn {
                if n == net {
                    out.push((inst, port.as_str()));
                }
            }
        }
        out
    }
}

/// Assembles the circuit and drives the supply; the returned circuit still
/// needs its signal sources.
pub(crate) fn powered_circuit(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    realization: &Realization,
) -> Result<Circuit, FlowError> {
    let mut c = build_circuit(tech, lib, &spec.instances, realization)?;
    let vdd_ext = node(&c, VDD_EXT)?;
    c.vsource("VDD", vdd_ext, Circuit::GROUND, tech.vdd);
    Ok(c)
}

/// Looks up a node the builder just created; absence is an assembly bug
/// surfaced as a typed error rather than a panic.
pub(crate) fn node(c: &Circuit, name: &str) -> Result<NodeId, FlowError> {
    c.find_node(name).ok_or_else(|| FlowError::Measurement {
        what: format!("net {name} missing from the assembled circuit"),
    })
}

/// A primitive definition the standard library must provide.
pub(crate) fn prim<'a>(lib: &'a Library, name: &str) -> Result<&'a PrimitiveDef, FlowError> {
    lib.get(name).ok_or_else(|| FlowError::UnknownPrimitive {
        name: name.to_string(),
    })
}

/// Magnitude of the DC current drawn through the named supply source.
pub(crate) fn supply_current(op: &OperatingPoint, source: &str) -> Result<f64, FlowError> {
    op.branch_current(source)
        .map(f64::abs)
        .ok_or_else(|| FlowError::Measurement {
            what: format!("supply source {source} has no solved branch current"),
        })
}

/// Bisects a monotone function of one bias voltage to hit `target` on a
/// measured node voltage — the "schematic designer sets the bias" step.
///
/// `apply` receives a candidate voltage and must return the measured value.
/// Returns the voltage after `iters` halvings of `[lo, hi]`.
pub(crate) fn bisect_bias<F>(
    mut lo: f64,
    mut hi: f64,
    target: f64,
    iters: usize,
    mut apply: F,
) -> Result<f64, FlowError>
where
    F: FnMut(f64) -> Result<f64, FlowError>,
{
    let f_lo = apply(lo)?;
    let f_hi = apply(hi)?;
    let rising = f_hi > f_lo;
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        let v = apply(mid)?;
        let high_side = if rising { v > target } else { v < target };
        if high_side {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_target_on_monotone_function() {
        // f(v) = 2v, target 1.0 → v = 0.5.
        let v = bisect_bias(0.0, 1.0, 1.0, 40, |x| Ok(2.0 * x)).unwrap();
        assert!((v - 0.5).abs() < 1e-9);
        // Falling function.
        let v = bisect_bias(0.0, 1.0, 1.0, 40, |x| Ok(2.0 - 2.0 * x)).unwrap();
        assert!((v - 0.5).abs() < 1e-9);
    }

    #[test]
    fn spec_net_and_tap_queries() {
        let spec = CircuitSpec {
            name: "t".into(),
            instances: vec![
                PrimitiveInst::new(
                    "a",
                    "cs_amp",
                    8,
                    &[("out", "n1"), ("in", "n2"), ("vss", "g")],
                ),
                PrimitiveInst::new(
                    "b",
                    "csrc_pmos",
                    8,
                    &[("out", "n1"), ("vb", "n3"), ("vdd", "vdd")],
                ),
            ],
            symmetry: vec![],
            symmetric_nets: vec![],
        };
        let nets = spec.nets();
        assert!(nets.contains(&"n1".to_string()));
        let taps = spec.taps("n1");
        assert_eq!(taps.len(), 2);
        assert_eq!(taps[0].1, "out");
    }
}
