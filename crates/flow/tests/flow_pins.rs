//! Bit pins of whole flows. The optimized flow (with GDS stream-out), the
//! conventional baseline and the manual proxy run on the four benchmark
//! circuits on finfet7 at seed 42, and the optimized flow runs on
//! sky130ish as well. Each flow pins its area and wirelength bits, its
//! simulation counts, the detailed route's occupied slots, its health and
//! degradation count, the GDS stream's length and hash, a digest of the
//! realization, and the bits of the circuit's own measurements (all but the
//! RO-VCO, whose frequency sweep is too slow for the suite).
//!
//! A change to the flow that is meant to leave results as they are (a
//! refactor, a faster stage) must leave every pin as it is. A change that
//! moves results on purpose re-records the table from the failure message.

#![allow(clippy::unwrap_used)]

use std::fmt::Write as _;

use prima_flow::circuits::{CircuitSpec, CsAmp, FiveTOta, RoVco, StrongArm};
use prima_flow::{
    conventional_flow, manual_flow, optimized_flow_with, FlowOptions, FlowOutcome, GdsPolicy,
    Health,
};
use prima_pdk::Technology;
use prima_primitives::Library;

/// `("deck circuit flow", [(quantity, value)])`: float quantities as
/// their bits, counts and hashes as they are.
const PINS: &[(&str, &[(&str, u64)])] = &[
    (
        "finfet7 cs_amp optimized",
        &[
            ("area", 0x3ff7b4916ca46e09),
            ("wirelength", 0x3fddd2f1a9fbe76d),
            ("sims.corners", 0x0),
            ("sims.ports", 0x24),
            ("sims.selection", 0x274),
            ("sims.tuning", 0xb4),
            ("slots", 0x6),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("gds.len", 0x385a),
            ("gds.fnv", 0x8ec89becdff2ffd8),
            ("realization", 0xfec592381a208d42),
            ("measure.gain_db", 0x403d541f0b22065f),
            ("measure.ugf_ghz", 0x4045800fd073ce56),
            ("measure.power_uw", 0x4077747eb9b1502e),
            ("measure.current_ua", 0x407d519e681da439),
        ],
    ),
    (
        "finfet7 cs_amp conventional",
        &[
            ("area", 0x3fd9084e831ad213),
            ("wirelength", 0x3fde147ae147ae14),
            ("slots", 0x2),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("realization", 0x6f2007e4ebbba3bb),
            ("measure.gain_db", 0x403d103376554c62),
            ("measure.ugf_ghz", 0x40431513cab5c05c),
            ("measure.power_uw", 0x40732e834a02394c),
            ("measure.current_ua", 0x4077fa241c82c79e),
        ],
    ),
    (
        "finfet7 cs_amp manual",
        &[
            ("area", 0x3ff59cae21101b00),
            ("wirelength", 0x3fdd604189374bc7),
            ("sims.corners", 0x0),
            ("sims.ports", 0x2c),
            ("sims.selection", 0x278),
            ("sims.tuning", 0x150),
            ("slots", 0x6),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("realization", 0xc3d7a624ad22ad87),
            ("measure.gain_db", 0x403d0463a72557f2),
            ("measure.ugf_ghz", 0x4040421d4c237043),
            ("measure.power_uw", 0x4078658e3c8c4783),
            ("measure.current_ua", 0x407e7ef1cbaf5963),
        ],
    ),
    (
        "finfet7 ota optimized",
        &[
            ("area", 0x4024bdf3b645a1ca),
            ("wirelength", 0x4019c5a1cac08312),
            ("sims.corners", 0x0),
            ("sims.ports", 0x7f),
            ("sims.selection", 0x640),
            ("sims.tuning", 0x13b),
            ("slots", 0x18),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("gds.len", 0xd7b8),
            ("gds.fnv", 0x2879b318a179f328),
            ("realization", 0x79b90ca1aa1b50cf),
            ("measure.current_ua", 0x408596b534d86444),
            ("measure.gain_db", 0x4040c00fb1d99e7d),
            ("measure.ugf_ghz", 0x40288be65faad32c),
            ("measure.f3db_mhz", 0x4073e5f1915e5884),
            ("measure.pm_deg", 0x404cae443e4eb866),
        ],
    ),
    (
        "finfet7 ota conventional",
        &[
            ("area", 0x4031b1532617c1bd),
            ("wirelength", 0x40284ed916872b02),
            ("slots", 0xc),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("realization", 0x7174f18091ae9a6d),
            ("measure.current_ua", 0x4080d935d6e56e39),
            ("measure.gain_db", 0x40407d3198683107),
            ("measure.ugf_ghz", 0x4022ee27efb7dd65),
            ("measure.f3db_mhz", 0x406f443841b98070),
            ("measure.pm_deg", 0x404dd7cf45d0a85a),
        ],
    ),
    (
        "finfet7 ota manual",
        &[
            ("area", 0x402d01b024f6598e),
            ("wirelength", 0x401773b645a1cac1),
            ("sims.corners", 0x0),
            ("sims.ports", 0x9d),
            ("sims.selection", 0x647),
            ("sims.tuning", 0x24c),
            ("slots", 0x18),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("realization", 0xf354d1858ab03743),
            ("measure.current_ua", 0x4085baf936368980),
            ("measure.gain_db", 0x4040c033cda2e32e),
            ("measure.ugf_ghz", 0x4028bf7707a795e0),
            ("measure.f3db_mhz", 0x4074007b7fc8c6f3),
            ("measure.pm_deg", 0x404ceea0852e352e),
        ],
    ),
    (
        "finfet7 strongarm optimized",
        &[
            ("area", 0x4005fe33269df97a),
            ("wirelength", 0x40211e353f7ced91),
            ("sims.corners", 0x0),
            ("sims.ports", 0x115),
            ("sims.selection", 0x1b4),
            ("sims.tuning", 0x111),
            ("slots", 0x24),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("gds.len", 0x4d9a),
            ("gds.fnv", 0x14518e53b97565e0),
            ("realization", 0x62bd2ce1f17f4b9b),
            ("measure.delay_ps", 0x4023ee4e5ec2b634),
            ("measure.power_uw", 0x4030faf2f8e24cc1),
        ],
    ),
    (
        "finfet7 strongarm conventional",
        &[
            ("area", 0x4019ab851eb851eb),
            ("wirelength", 0x4029d916872b020c),
            ("slots", 0x20),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("realization", 0x1b8731577e617715),
            ("measure.delay_ps", 0x40296fdab44c8a60),
            ("measure.power_uw", 0x402fd7b2b8f2e34a),
        ],
    ),
    (
        "finfet7 strongarm manual",
        &[
            ("area", 0x4006b08787485e3d),
            ("wirelength", 0x401f072b020c49ba),
            ("sims.corners", 0x0),
            ("sims.ports", 0x157),
            ("sims.selection", 0x1bb),
            ("sims.tuning", 0x1fc),
            ("slots", 0x26),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("realization", 0x861fda5c541c7a2c),
            ("measure.delay_ps", 0x4022ce52fe2f82c3),
            ("measure.power_uw", 0x40309ff0dd687821),
        ],
    ),
    (
        "finfet7 vco optimized",
        &[
            ("area", 0x4019052c59fb1e19),
            ("wirelength", 0x403f6872b020c49c),
            ("sims.corners", 0x0),
            ("sims.ports", 0x420),
            ("sims.selection", 0x8c),
            ("sims.tuning", 0xf3),
            ("slots", 0x8c),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("gds.len", 0xa692),
            ("gds.fnv", 0x7649b5bd928c37bd),
            ("realization", 0x299cd13ad6f7ed2c),
        ],
    ),
    (
        "finfet7 vco conventional",
        &[
            ("area", 0x4020f75d9a0f0a5f),
            ("wirelength", 0x40503a5e353f7cee),
            ("slots", 0x7b),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("realization", 0xed6cbca87f0aaa9c),
        ],
    ),
    (
        "finfet7 vco manual",
        &[
            ("area", 0x40196aaef2c73259),
            ("wirelength", 0x40410c49ba5e353f),
            ("sims.corners", 0x0),
            ("sims.ports", 0x520),
            ("sims.selection", 0x8f),
            ("sims.tuning", 0x14a),
            ("slots", 0x94),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("realization", 0xa79861cd367962de),
        ],
    ),
    (
        "sky130ish cs_amp optimized",
        &[
            ("area", 0x403e28f5c28f5c29),
            ("wirelength", 0x40003b645a1cac08),
            ("sims.corners", 0x0),
            ("sims.ports", 0x24),
            ("sims.selection", 0x274),
            ("sims.tuning", 0xb4),
            ("slots", 0x4),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("gds.len", 0x2dda),
            ("gds.fnv", 0x80568659dee3e609),
            ("realization", 0x2e9945c303e8674),
            ("measure.gain_db", 0x4041fda3c5fd62db),
            ("measure.ugf_ghz", 0x401a8e37b576a54d),
            ("measure.power_uw", 0x4073ede0d25ea877),
            ("measure.current_ua", 0x406624c0e9be824b),
        ],
    ),
    (
        "sky130ish ota optimized",
        &[
            ("area", 0x40844410ff972474),
            ("wirelength", 0x4039bef9db22d0e5),
            ("sims.corners", 0x0),
            ("sims.ports", 0x7f),
            ("sims.selection", 0x640),
            ("sims.tuning", 0x13b),
            ("slots", 0x18),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("gds.len", 0xc1f8),
            ("gds.fnv", 0xd792e2bcdeef79e2),
            ("realization", 0xd5767bb4a14b9fa1),
            ("measure.current_ua", 0x40859a7da74649c0),
            ("measure.gain_db", 0x40447b304de6f0f1),
            ("measure.ugf_ghz", 0x400755887357a0dc),
            ("measure.f3db_mhz", 0x404278a0b3f9d846),
            ("measure.pm_deg", 0x404ce3350b13db64),
        ],
    ),
    (
        "sky130ish strongarm optimized",
        &[
            ("area", 0x4058049b52007dd4),
            ("wirelength", 0x404066e978d4fdf4),
            ("sims.corners", 0x0),
            ("sims.ports", 0x115),
            ("sims.selection", 0x1b4),
            ("sims.tuning", 0x111),
            ("slots", 0x24),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("gds.len", 0x391a),
            ("gds.fnv", 0xfd3408cb14972c49),
            ("realization", 0xe1c3be1de7b63347),
            ("measure.delay_ps", 0x405368ca2d42fbff),
            ("measure.power_uw", 0x40788a4d42360a35),
        ],
    ),
    (
        "sky130ish vco optimized",
        &[
            ("area", 0x4066ce718a86d71f),
            ("wirelength", 0x40630e3d70a3d70a),
            ("sims.corners", 0x0),
            ("sims.ports", 0x420),
            ("sims.selection", 0x8c),
            ("sims.tuning", 0xf3),
            ("slots", 0x76),
            ("degraded", 0x0),
            ("degradations", 0x0),
            ("gds.len", 0x8012),
            ("gds.fnv", 0x8b043b7d85b61dbb),
            ("realization", 0x4f7889631f9bc04),
        ],
    ),
];

/// FNV-1a over `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A digest of the realization that reads the same whatever order its maps
/// iterate in: the layouts in instance order, the wires in net order, then
/// the supply resistance.
fn realization_digest(spec: &CircuitSpec, out: &FlowOutcome) -> u64 {
    let real = &out.realization;
    let mut text = String::new();
    for inst in &spec.instances {
        if let Some(layout) = real.layouts.get(&inst.name) {
            writeln!(text, "{} {layout:?}", inst.name).unwrap();
        }
    }
    let mut nets: Vec<&String> = real.net_wires.keys().collect();
    nets.sort();
    for net in nets {
        let w = &real.net_wires[net];
        writeln!(text, "{net} {:x} {:x}", w.r_ohm.to_bits(), w.c_f.to_bits()).unwrap();
    }
    writeln!(text, "supply {:x}", real.supply_r_ohm.to_bits()).unwrap();
    fnv64(text.as_bytes())
}

/// The pinned quantities of one flow outcome.
fn quantities(
    tech: &Technology,
    lib: &Library,
    circuit: &str,
    spec: &CircuitSpec,
    out: &FlowOutcome,
) -> Vec<(String, u64)> {
    let mut q = vec![
        ("area".to_string(), out.area_um2.to_bits()),
        ("wirelength".to_string(), out.wirelength_um.to_bits()),
    ];
    let mut sims: Vec<(&str, usize)> = out.sims.iter().map(|(k, v)| (*k, *v)).collect();
    sims.sort_unstable();
    q.extend(
        sims.into_iter()
            .map(|(k, v)| (format!("sims.{k}"), v as u64)),
    );
    q.push(("slots".into(), out.detailed.occupied_slots() as u64));
    q.push((
        "degraded".into(),
        u64::from(out.resilience.health == Health::Degraded),
    ));
    q.push((
        "degradations".into(),
        out.resilience.degradations.len() as u64,
    ));
    if let Some(gds) = &out.gds {
        q.push(("gds.len".into(), gds.bytes.len() as u64));
        q.push(("gds.fnv".into(), fnv64(&gds.bytes)));
    }
    q.push(("realization".into(), realization_digest(spec, out)));
    let r = &out.realization;
    let measured: Vec<(&str, f64)> = match circuit {
        "cs_amp" => {
            let m = CsAmp::measure(tech, lib, r).unwrap();
            vec![
                ("gain_db", m.gain_db),
                ("ugf_ghz", m.ugf_ghz),
                ("power_uw", m.power_uw),
                ("current_ua", m.current_ua),
            ]
        }
        "ota" => {
            let m = FiveTOta::measure(tech, lib, r).unwrap();
            vec![
                ("current_ua", m.current_ua),
                ("gain_db", m.gain_db),
                ("ugf_ghz", m.ugf_ghz),
                ("f3db_mhz", m.f3db_mhz),
                ("pm_deg", m.phase_margin_deg),
            ]
        }
        "strongarm" => {
            let m = StrongArm::measure(tech, lib, r).unwrap();
            vec![("delay_ps", m.delay_ps), ("power_uw", m.power_uw)]
        }
        _ => Vec::new(),
    };
    q.extend(
        measured
            .into_iter()
            .map(|(k, v)| (format!("measure.{k}"), v.to_bits())),
    );
    q
}

#[test]
fn flows_are_bit_identical_to_their_pins() {
    let lib = Library::standard();
    let mut got: Vec<(String, Vec<(String, u64)>)> = Vec::new();
    for (deck, tech) in [
        ("finfet7", Technology::finfet7()),
        ("sky130ish", Technology::sky130ish()),
    ] {
        let vco = RoVco::small();
        let cases = [
            ("cs_amp", CsAmp::spec(), CsAmp::biases(&tech, &lib)),
            ("ota", FiveTOta::spec(), FiveTOta::biases(&tech, &lib)),
            (
                "strongarm",
                StrongArm::spec(),
                StrongArm::biases(&tech, &lib),
            ),
            ("vco", vco.spec(), vco.biases(&tech, &lib)),
        ];
        for (circuit, spec, biases) in &cases {
            let biases = biases.as_ref().unwrap();
            let gds = FlowOptions {
                gds: GdsPolicy::On,
                ..FlowOptions::default()
            };
            let mut runs = vec![(
                "optimized",
                optimized_flow_with(&tech, &lib, spec, biases, 42, gds),
            )];
            if deck == "finfet7" {
                runs.push(("conventional", conventional_flow(&tech, &lib, spec, 42)));
                runs.push(("manual", manual_flow(&tech, &lib, spec, biases, 42)));
            }
            for (flow, out) in runs {
                let q = quantities(&tech, &lib, circuit, spec, &out.unwrap());
                got.push((format!("{deck} {circuit} {flow}"), q));
            }
        }
    }
    let mut table = String::new();
    for (label, q) in &got {
        writeln!(table, "    (\n        {label:?},\n        &[").unwrap();
        for (quantity, value) in q {
            writeln!(table, "            ({quantity:?}, 0x{value:x}),").unwrap();
        }
        writeln!(table, "        ],\n    ),").unwrap();
    }
    let same = got.len() == PINS.len()
        && got.iter().zip(PINS).all(|((label, q), (pl, pq))| {
            label == pl
                && q.len() == pq.len()
                && q.iter()
                    .zip(*pq)
                    .all(|((k, v), (pk, pv))| k == pk && v == pv)
        });
    assert!(same, "flows moved off their pins; the values now:\n{table}");
}
