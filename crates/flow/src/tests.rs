//! Unit tests of the schematic gate ([`crate::schem`]) and of the
//! variation types ([`crate::corners`]). They sit at the crate root so
//! each keeps the `tests::<name>` path it had while the gate and the
//! variation types were crates of their own.

use std::collections::HashMap;

use prima_layout::{DeviceSpec, PrimitiveSpec};
use prima_pdk::{CornerSpec, Technology};
use prima_primitives::{Bias, Library, PrimitiveClass};
use prima_spice::devices::FetPolarity;

use crate::circuits::CircuitSpec;
use crate::corners::{corner_bias, instance_fingerprint, McYield, MismatchSampler};
use crate::schem::*;
use crate::PrimitiveInst;

// ---------------------------------------------------------------------
// The schematic gate
// ---------------------------------------------------------------------

fn env() -> (Technology, Library) {
    (Technology::finfet7(), Library::standard())
}

/// The two-stage amplifier every flow test uses.
fn cs_amp_circuit() -> CircuitSpec {
    CircuitSpec {
        name: "cs_amp_stage".to_string(),
        instances: vec![
            PrimitiveInst::new(
                "m1",
                "cs_amp",
                48,
                &[("in", "vin"), ("out", "vout"), ("vss", "vssn")],
            ),
            PrimitiveInst::new(
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
    let report = schem_preflight(&tech, &lib, &cs_amp_circuit(), None);
    assert!(report.is_passing(), "{report:?}");
    assert!(report.violations.is_empty(), "{report:?}");
}

#[test]
fn unknown_def_and_port_fire() {
    let (tech, lib) = env();
    let mut c = cs_amp_circuit();
    c.instances
        .push(PrimitiveInst::new("x1", "no_such_def", 8, &[]));
    c.instances[0].conn.push(("bogus".into(), "vout".into()));
    let report = schem_preflight(&tech, &lib, &c, None);
    assert!(report.has_rule(RULE_DEF));
    assert!(report.has_rule(RULE_PORT));
}

#[test]
fn duplicate_instance_name_fires() {
    let (tech, lib) = env();
    let mut c = cs_amp_circuit();
    let dup = c.instances[0].clone();
    c.instances.push(dup);
    let report = schem_preflight(&tech, &lib, &c, None);
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
    c.instances.push(PrimitiveInst::new(
        "sw",
        "bad_switch",
        8,
        &[("a", "vdd"), ("b", "vssn"), ("en", "vin")],
    ));
    let report = schem_preflight(&tech, &lib, &c, None);
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
    c.instances[0] = PrimitiveInst::new(
        "m1",
        "bad_amp",
        48,
        &[("in", "vin"), ("out", "vout"), ("vss", "vssn")],
    );
    let report = schem_preflight(&tech, &lib, &c, None);
    assert!(report.has_rule(RULE_FLOAT), "{report:?}");
}

#[test]
fn dangling_net_fires_on_typo() {
    let (tech, lib) = env();
    let mut c = cs_amp_circuit();
    // Typo the load's output net: both halves of the broken net dangle.
    c.instances[1].conn[0].1 = "vuot".to_string();
    let report = schem_preflight(&tech, &lib, &c, None);
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
    let report = schem_preflight(&tech, &lib, &c, None);
    assert!(report.has_rule(RULE_DANGLE), "{report:?}");
}

#[test]
fn size_without_factorization_fires() {
    let (tech, lib) = env();
    let mut c = cs_amp_circuit();
    c.instances[0].total_fins = 7; // prime, not in the nfin menu
    let report = schem_preflight(&tech, &lib, &c, None);
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
    let report = schem_preflight(&tech, &lib, &c, Some(&biases));
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
    let report = schem_preflight(&tech, &lib, &c, Some(&biases));
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
    let c = CircuitSpec {
        name: "t".to_string(),
        instances: vec![PrimitiveInst::new(
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
    let report = schem_preflight(&tech, &lib, &c, None);
    assert!(report.has_rule(RULE_CLASS), "{report:?}");
}

#[test]
fn symmetry_pair_mismatch_fires() {
    let (tech, lib) = env();
    let mut c = cs_amp_circuit();
    c.symmetry.push(("m1".to_string(), "m2".to_string())); // different defs
    let report = schem_preflight(&tech, &lib, &c, None);
    assert!(report.has_rule(RULE_SYM_PAIR), "{report:?}");
    c.symmetry[0].1 = "nope".to_string();
    let report = schem_preflight(&tech, &lib, &c, None);
    assert!(report.has_rule(RULE_SYM_PAIR), "{report:?}");
}

#[test]
fn symmetric_net_rules_fire() {
    let (tech, lib) = env();
    let mut c = cs_amp_circuit();
    c.symmetric_nets
        .push(("vout".to_string(), "ghost".to_string()));
    let report = schem_preflight(&tech, &lib, &c, None);
    assert!(report.has_rule(RULE_SYM_NET), "{report:?}");
}

#[test]
fn undeclared_mirror_pair_warns_but_passes() {
    let (tech, lib) = env();
    let c = CircuitSpec {
        name: "pseudo_diff".to_string(),
        instances: vec![
            PrimitiveInst::new(
                "a1",
                "cs_amp",
                48,
                &[("in", "vip"), ("out", "von"), ("vss", "vssn")],
            ),
            PrimitiveInst::new(
                "a2",
                "cs_amp",
                48,
                &[("in", "vin"), ("out", "vop"), ("vss", "vssn")],
            ),
            PrimitiveInst::new("c1", "cap_mom", 0, &[("a", "von"), ("b", "vssn")]),
            PrimitiveInst::new("c2", "cap_mom", 0, &[("a", "vop"), ("b", "vssn")]),
        ],
        symmetry: vec![],
        symmetric_nets: vec![
            ("vip".to_string(), "vin".to_string()),
            ("von".to_string(), "vop".to_string()),
        ],
    };
    let report = schem_preflight(&tech, &lib, &c, None);
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
        let c = CircuitSpec {
            name: format!("solo_{def_name}"),
            instances: vec![PrimitiveInst {
                name: "u0".to_string(),
                def: def_name.to_string(),
                total_fins: 16,
                conn,
            }],
            symmetry: vec![],
            symmetric_nets: vec![],
        };
        let report = schem_preflight(&tech, &lib, &c, None);
        assert!(
            !report.has_rule(RULE_CLASS),
            "{def_name} failed class recognition: {report:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Variation types
// ---------------------------------------------------------------------

#[test]
fn draws_are_order_invariant_and_seed_sensitive() {
    let s = MismatchSampler::new(42);
    let a = instance_fingerprint("m1", "dp", 960);
    let b = instance_fingerprint("m2", "dp", 960);
    let d_a = s.draw(a, 0);
    let d_b = s.draw(b, 0);
    // Re-draw in the opposite order: bit-identical.
    assert_eq!(s.draw(b, 0), d_b);
    assert_eq!(s.draw(a, 0), d_a);
    // Distinct instances, samples, and seeds decorrelate.
    assert_ne!(d_a, d_b);
    assert_ne!(s.draw(a, 1), d_a);
    assert_ne!(MismatchSampler::new(43).draw(a, 0), d_a);
}

#[test]
fn draws_are_standard_normal_ish() {
    let s = MismatchSampler::new(7);
    let fp = instance_fingerprint("m", "cs", 480);
    let n = 4000u32;
    let (mut sum, mut sum2) = (0.0, 0.0);
    for i in 0..n {
        let d = s.draw(fp, i);
        for z in [d.z_vth, d.z_mobility] {
            assert!(z.is_finite());
            sum += z;
            sum2 += z * z;
        }
    }
    let cnt = f64::from(n) * 2.0;
    let mean = sum / cnt;
    let var = sum2 / cnt - mean * mean;
    assert!(mean.abs() < 0.05, "mean {mean}");
    assert!((var - 1.0).abs() < 0.08, "var {var}");
}

#[test]
fn corner_bias_scales_rail_and_ports_only() {
    let mut bias = Bias {
        vdd: 0.8,
        port_v: HashMap::new(),
        port_load_c: HashMap::new(),
        currents: HashMap::new(),
        drain_load_ohm: 1234.0,
    };
    bias.port_v.insert("g".into(), 0.4);
    bias.currents.insert("tail".into(), 1e-4);
    let tech = Technology::finfet7();
    let vdd_low = CornerSpec {
        name: "vdd_low".into(),
        vdd_scale: 0.9,
        ..CornerSpec::tt()
    };
    let b = corner_bias(&tech, &bias, &vdd_low);
    assert!((b.vdd - 0.72).abs() < 1e-12);
    assert!((b.port_v["g"] - 0.36).abs() < 1e-12);
    assert_eq!(b.currents["tail"], 1e-4);
    assert_eq!(b.drain_load_ohm, 1234.0);
    assert_eq!(corner_bias(&tech, &bias, &CornerSpec::tt()), bias);
}

#[test]
fn corner_bias_tracks_thresholds_by_polarity() {
    // sky130ish: vth_n 0.48, vth_p 0.45, vdd 1.8. A low gate reference
    // is NMOS-referenced (tracks up at ss); a high one is
    // PMOS-referenced (tracks down); rails stay pinned.
    let tech = Technology::sky130ish();
    let ss = tech.corners.get("ss").cloned().unwrap();
    let mut bias = Bias {
        vdd: 1.8,
        port_v: HashMap::new(),
        port_load_c: HashMap::new(),
        currents: HashMap::new(),
        drain_load_ohm: 0.0,
    };
    bias.port_v.insert("vbn".into(), 0.60);
    bias.port_v.insert("vbp".into(), 1.20);
    bias.port_v.insert("gnd_ref".into(), 0.0);
    bias.port_v.insert("en".into(), 1.8);
    let b = corner_bias(&tech, &bias, &ss);
    assert!((b.port_v["vbn"] - (0.60 + ss.nmos_vth_shift_v)).abs() < 1e-12);
    assert!((b.port_v["vbp"] - (1.20 - ss.pmos_vth_shift_v)).abs() < 1e-12);
    assert_eq!(b.port_v["gnd_ref"], 0.0);
    assert_eq!(b.port_v["en"], 1.8);
}

#[test]
fn yield_fraction_handles_zero_samples() {
    let y = McYield {
        seed: 1,
        samples: 0,
        passed: 0,
    };
    assert_eq!(y.yield_fraction(), 1.0);
}
