//! Content fingerprints (prima-cache) for the evaluation-facing types.
//!
//! Together with the `Technology` fingerprint from `prima-pdk`, these span
//! everything `evaluate_all` reads: the primitive definition (spec, metrics,
//! tuning, ports), the layout view (schematic fin count or full candidate
//! layout), the bias point, and the external-wire map. An `EvalKey` built
//! from them is the complete identity of one testbench evaluation.

use std::collections::HashMap;

use prima_cache::{Fingerprint, Fingerprintable, FpHasher};

use crate::bias::Bias;
use crate::circuit::{ExternalWire, LayoutView};
use crate::library::{PrimitiveClass, PrimitiveDef, TuningTerminal};
use crate::metrics::{Metric, MetricKind};

/// Bumped whenever a testbench changes what (or how) it measures, so
/// persisted caches from older testbench revisions invalidate wholesale.
pub const TESTBENCH_VERSION: u32 = 3;

impl Fingerprintable for MetricKind {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u8(match self {
            MetricKind::Gm => 0,
            MetricKind::GmOverCtotal => 1,
            MetricKind::InputOffset => 2,
            MetricKind::OutputCurrent => 3,
            MetricKind::Cout => 4,
            MetricKind::OutputResistance => 5,
            MetricKind::Delay => 6,
            MetricKind::Gain => 7,
            MetricKind::OnResistance => 8,
            MetricKind::Capacitance => 9,
            MetricKind::Bandwidth => 10,
            MetricKind::Resistance => 11,
        });
    }
}

impl Fingerprintable for Metric {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("Metric");
        h.write_str(&self.name);
        self.kind.feed(h);
        h.write_f64(self.weight);
        self.spec.feed(h);
    }
}

impl Fingerprintable for PrimitiveClass {
    fn feed(&self, h: &mut FpHasher) {
        match self {
            PrimitiveClass::DifferentialPair => h.write_u8(0),
            PrimitiveClass::CurrentMirror { ratio } => {
                h.write_u8(1);
                h.write_u32(*ratio);
            }
            PrimitiveClass::CurrentSource => h.write_u8(2),
            PrimitiveClass::Amplifier => h.write_u8(3),
            PrimitiveClass::Load => h.write_u8(4),
            PrimitiveClass::Switch => h.write_u8(5),
            PrimitiveClass::CrossCoupled => h.write_u8(6),
            PrimitiveClass::CurrentStarvedInverter => h.write_u8(7),
            PrimitiveClass::PassiveCap { design_f } => {
                h.write_u8(8);
                h.write_f64(*design_f);
            }
            PrimitiveClass::PassiveRes { design_ohm } => {
                h.write_u8(9);
                h.write_f64(*design_ohm);
            }
        }
    }
}

impl Fingerprintable for TuningTerminal {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("TuningTerminal");
        h.write_str(&self.name);
        self.nets.feed(h);
        self.correlated_with.feed(h);
    }
}

impl Fingerprintable for PrimitiveDef {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("PrimitiveDef");
        h.write_str(&self.name);
        // `description` is deliberately skipped: prose cannot change what a
        // testbench computes, and doc-only edits should not cold-start runs.
        self.class.feed(h);
        self.spec.feed(h);
        self.metrics.feed(h);
        self.tuning.feed(h);
        self.ports.feed(h);
    }
}

impl Fingerprintable for Bias {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("Bias");
        h.write_f64(self.vdd);
        h.write_str_f64_map(&self.port_v);
        h.write_str_f64_map(&self.port_load_c);
        h.write_str_f64_map(&self.currents);
        h.write_f64(self.drain_load_ohm);
    }
}

impl Fingerprintable for ExternalWire {
    fn feed(&self, h: &mut FpHasher) {
        h.write_f64(self.r_ohm);
        h.write_f64(self.c_f);
    }
}

impl Fingerprintable for LayoutView<'_> {
    fn feed(&self, h: &mut FpHasher) {
        match self {
            LayoutView::Schematic { total_fins } => {
                h.write_tag("Schematic");
                h.write_u64(*total_fins);
            }
            LayoutView::Layout(layout) => {
                h.write_tag("Layout");
                layout.feed(h);
            }
        }
    }
}

/// Fingerprint of an external-wire map, fed in sorted port order.
pub fn external_wires_fingerprint(wires: &HashMap<String, ExternalWire>) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_tag("ExternalWires");
    let mut ports: Vec<&String> = wires.keys().collect();
    ports.sort();
    h.write_u64(ports.len() as u64);
    for port in ports {
        h.write_str(port);
        if let Some(w) = wires.get(port) {
            w.feed(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;

    #[test]
    fn def_fingerprint_tracks_content_not_prose() {
        let lib = Library::standard();
        let dp = lib.get("dp").unwrap();
        let base = dp.fingerprint();
        let mut prose = dp.clone();
        prose.description = "reworded".to_string();
        assert_eq!(base, prose.fingerprint(), "description must not dirty");
        let mut edited = dp.clone();
        edited.metrics[0].weight += 0.25;
        assert_ne!(base, edited.fingerprint(), "metric edit must dirty");
    }

    #[test]
    fn bias_fingerprint_is_map_order_independent() {
        let blank = || Bias {
            vdd: 0.8,
            port_v: HashMap::new(),
            port_load_c: HashMap::new(),
            currents: HashMap::new(),
            drain_load_ohm: 400.0,
        };
        let mut a = blank();
        a.set_v("ga", 0.45);
        a.set_v("gb", 0.45);
        let mut b = blank();
        b.set_v("gb", 0.45);
        b.set_v("ga", 0.45);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn external_wires_distinguish_content() {
        let mut w1 = HashMap::new();
        w1.insert(
            "da".to_string(),
            ExternalWire {
                r_ohm: 10.0,
                c_f: 1e-15,
            },
        );
        let empty = HashMap::new();
        assert_ne!(
            external_wires_fingerprint(&w1),
            external_wires_fingerprint(&empty)
        );
    }
}
