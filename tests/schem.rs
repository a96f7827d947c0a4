//! Schematic static-analysis gate (`prima_flow::schem`) integration tests.
//!
//! Three layers, mirroring `erc.rs`:
//!
//! 1. The paper's four benchmark circuits pass the schem gate with zero
//!    diagnostics — both through `schem_preflight` directly and through
//!    the flows (which run the preflight first).
//! 2. Seeded-defect fixtures (supply short, floating gate, out-of-range
//!    bias, dangling net, unfactorable sizing, repeated symmetry pair)
//!    are each rejected with
//!    their exact `SCHEM.*` rule id — and rejected *fail-fast*: the flow
//!    errors out before the optimizer (and its simulation counter) is
//!    even constructed, in a tiny fraction of a cold run's wall time.
//! 3. A proptest that graph construction and the full lint suite are
//!    total and deterministic under shuffled instance insertion order.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::time::Instant;

use proptest::prelude::*;

use prima_flow::circuits::{CircuitSpec, CsAmp, FiveTOta, RoVco, StrongArm};
use prima_flow::schem::{
    ConnGraph, RULE_BIAS_V, RULE_DANGLE, RULE_FLOAT, RULE_SHORT, RULE_SIZE, RULE_SYM_PAIR,
};
use prima_flow::{conventional_flow, optimized_flow, schem_preflight, FlowError};
use prima_layout::{DeviceSpec, PrimitiveSpec};
use prima_pdk::Technology;
use prima_primitives::{Bias, Library};
use prima_spice::devices::FetPolarity;

fn env() -> (Technology, Library) {
    (Technology::finfet7(), Library::standard())
}

// ---------------------------------------------------------------------
// Clean circuits: the gate must stay silent on all four benchmarks.
// ---------------------------------------------------------------------

#[test]
fn all_four_benchmark_circuits_pass_with_zero_diagnostics() {
    let (tech, lib) = env();
    let vco = RoVco::small();
    let cases = vec![
        ("cs_amp", CsAmp::spec(), CsAmp::biases(&tech, &lib).unwrap()),
        (
            "ota5t",
            FiveTOta::spec(),
            FiveTOta::biases(&tech, &lib).unwrap(),
        ),
        (
            "strongarm",
            StrongArm::spec(),
            StrongArm::biases(&tech, &lib).unwrap(),
        ),
        ("vco", vco.spec(), vco.biases(&tech, &lib).unwrap()),
    ];
    for (name, spec, biases) in cases {
        let report = schem_preflight(&tech, &lib, &spec, Some(&biases));
        assert!(
            report.violations.is_empty(),
            "{name}: expected zero diagnostics, got {:?}",
            report.violations
        );
        assert!(report.nets_checked > 0, "{name}: graph was empty");
        for check in [
            "schem.bind",
            "schem.supply",
            "schem.float",
            "schem.dangle",
            "schem.size",
            "schem.bias",
            "schem.wire",
            "schem.topology",
            "schem.symmetry",
        ] {
            assert!(
                report.checks_run.iter().any(|c| c == check),
                "{name}: {check} missing from {:?}",
                report.checks_run
            );
        }
    }
}

#[test]
fn flows_carry_a_passing_schem_report() {
    let (tech, lib) = env();
    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&tech, &lib).unwrap();
    let out = optimized_flow(&tech, &lib, &spec, &biases, 11).unwrap();
    let report = out.schem.expect("schem preflight is on by default");
    assert!(report.is_passing() && report.violations.is_empty());

    // The conventional baseline always runs its preflight.
    let out = conventional_flow(&tech, &lib, &spec, 11).unwrap();
    let report = out.schem.expect("conventional schem preflight");
    assert!(report.is_passing() && report.violations.is_empty());
}

// ---------------------------------------------------------------------
// Seeded defects: exact rule ids, and fail-fast flow rejection.
// ---------------------------------------------------------------------

/// Asserts the optimized flow rejects `spec` through the preflight: a
/// `FlowError::Verify` naming the rule, long before a cold run's seconds
/// of simulation — no simulation runs because the preflight fires before
/// the optimizer (owner of the simulation counter) is constructed.
fn assert_flow_rejects(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    rule: &str,
) {
    let start = Instant::now();
    let err = optimized_flow(tech, lib, spec, biases, 11).unwrap_err();
    let elapsed = start.elapsed();
    match err {
        FlowError::Verify { first, .. } => {
            assert!(
                first.contains(rule),
                "expected first violation to carry {rule}, got: {first}"
            );
        }
        other => panic!("expected FlowError::Verify carrying {rule}, got {other}"),
    }
    // A cold optimized run takes seconds; preflight rejection is microseconds.
    // The generous bound keeps the assertion meaningful on loaded CI hosts.
    assert!(
        elapsed.as_millis() < 500,
        "rejection took {elapsed:?}; preflight must fire before any optimization"
    );
}

#[test]
fn supply_short_fixture_is_rejected_with_exact_rule() {
    let (tech, mut lib) = env();
    // A defective switch whose NMOS channel directly bridges its two
    // terminals; wiring them to vdd and vssn shorts the rails.
    let mut def = lib.get("switch").cloned().unwrap();
    def.name = "short_switch".to_string();
    def.spec = PrimitiveSpec::new(
        "short_switch",
        vec![DeviceSpec::new("MSW", FetPolarity::Nmos, "b", "en", "a")],
    );
    lib.upsert(def);
    let mut spec = CsAmp::spec();
    spec.instances.push(prima_flow::PrimitiveInst::new(
        "sw",
        "short_switch",
        8,
        &[("a", "vdd"), ("b", "vssn"), ("en", "vin")],
    ));
    let biases = CsAmp::biases(&tech, &lib).unwrap();

    let report = schem_preflight(&tech, &lib, &spec, Some(&biases));
    assert!(report.has_rule(RULE_SHORT), "{:?}", report.violations);
    assert!(!report.is_passing());
    assert_flow_rejects(&tech, &lib, &spec, &biases, RULE_SHORT);
}

#[test]
fn floating_gate_fixture_is_rejected_with_exact_rule() {
    let (tech, mut lib) = env();
    // An amplifier with a second branch whose gate net is internal and
    // undriven: no wire can ever reach it. Every declared port stays
    // bound in the template so the library survives the techlint gate
    // and the defect reaches schem's graph analysis.
    let mut def = lib.get("cs_amp").cloned().unwrap();
    def.name = "float_amp".to_string();
    def.spec = PrimitiveSpec::new(
        "float_amp",
        vec![
            DeviceSpec::new("M1", FetPolarity::Nmos, "out", "in", "vss"),
            DeviceSpec::new("M2", FetPolarity::Nmos, "out", "fg", "vss"),
        ],
    );
    lib.upsert(def);
    let mut spec = CsAmp::spec();
    spec.instances[0].def = "float_amp".to_string();
    let biases = CsAmp::biases(&tech, &lib).unwrap();

    let report = schem_preflight(&tech, &lib, &spec, Some(&biases));
    assert!(report.has_rule(RULE_FLOAT), "{:?}", report.violations);
    assert_flow_rejects(&tech, &lib, &spec, &biases, RULE_FLOAT);
}

#[test]
fn out_of_range_bias_fixture_is_rejected_with_exact_rule() {
    let (tech, lib) = env();
    let spec = CsAmp::spec();
    let mut biases = CsAmp::biases(&tech, &lib).unwrap();
    // 5 V on a sub-volt finFET gate.
    biases.get_mut("m1").unwrap().set_v("vin", 5.0);

    let report = schem_preflight(&tech, &lib, &spec, Some(&biases));
    assert!(report.has_rule(RULE_BIAS_V), "{:?}", report.violations);
    assert_flow_rejects(&tech, &lib, &spec, &biases, RULE_BIAS_V);
}

#[test]
fn dangling_net_fixture_is_rejected_with_exact_rule() {
    let (tech, lib) = env();
    let mut spec = CsAmp::spec();
    // Typo the load's output net: the amplifier output and the typo'd net
    // each end up with a single conducting terminal.
    for (port, net) in &mut spec.instances[1].conn {
        if port == "out" {
            *net = "vuot".to_string();
        }
    }
    let biases = CsAmp::biases(&tech, &lib).unwrap();

    let report = schem_preflight(&tech, &lib, &spec, Some(&biases));
    let dangles = report
        .violations
        .iter()
        .filter(|v| v.rule_id == RULE_DANGLE)
        .count();
    assert_eq!(dangles, 2, "{:?}", report.violations);
    assert_flow_rejects(&tech, &lib, &spec, &biases, RULE_DANGLE);
}

#[test]
fn unfactorable_sizing_fixture_is_rejected_not_silently_skipped() {
    let (tech, lib) = env();
    let mut spec = CsAmp::spec();
    // 7 total fins admits no nfin*nf*m factorization over the standard
    // space; before the preflight this silently degraded the instance to
    // an ideal device instead of failing.
    spec.instances[0].total_fins = 7;
    let biases = CsAmp::biases(&tech, &lib).unwrap();

    let report = schem_preflight(&tech, &lib, &spec, Some(&biases));
    assert!(report.has_rule(RULE_SIZE), "{:?}", report.violations);
    assert_flow_rejects(&tech, &lib, &spec, &biases, RULE_SIZE);
}

// ---------------------------------------------------------------------
// Determinism: graph construction and the lint suite are total and
// insertion-order independent.
// ---------------------------------------------------------------------

/// An instance mirrors one partner. A StrongARM spec that names the pair
/// `(swxa, swxb)` a second time, as given or reversed, is rejected with
/// `SCHEM.SYM.PAIR` on the repeated instance, before the placer could be
/// asked to mirror one block against two partners.
#[test]
fn repeated_symmetry_pair_fixture_is_rejected_with_exact_rule() {
    let (tech, lib) = env();
    let biases = StrongArm::biases(&tech, &lib).unwrap();
    for (a, b) in [("swxa", "swxb"), ("swxb", "swxa")] {
        let mut spec = StrongArm::spec();
        spec.symmetry.push((a.to_string(), b.to_string()));
        let report = schem_preflight(&tech, &lib, &spec, Some(&biases));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.rule_id == RULE_SYM_PAIR && v.scope.as_deref() == Some(a)),
            "({a}, {b}): {report:?}"
        );
        assert_flow_rejects(&tech, &lib, &spec, &biases, RULE_SYM_PAIR);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shuffling instance insertion order never changes the connectivity
    /// graph or the finalized diagnostics — for the clean OTA and for a
    /// defect-seeded variant of it.
    #[test]
    fn gate_is_deterministic_under_shuffled_instances(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let (tech, lib) = env();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        fn shuffle<T>(v: &mut [T], rng: &mut impl Rng) {
            for i in (1..v.len()).rev() {
                let j = rng.gen_range(0..=i);
                v.swap(i, j);
            }
        }

        for defective in [false, true] {
            let mut spec = FiveTOta::spec();
            if defective {
                // Disconnect one load drain: dangling-net defect.
                for (port, net) in &mut spec.instances[2].conn {
                    if port == "out" {
                        *net = "nowhere".to_string();
                    }
                }
            }
            let mut shuffled = spec.clone();
            shuffle(&mut shuffled.instances, &mut rng);

            let g_ref = ConnGraph::build(&lib, &spec);
            let g_shuf = ConnGraph::build(&lib, &shuffled);
            prop_assert_eq!(g_ref.signature(), g_shuf.signature());

            let r_ref = schem_preflight(&tech, &lib, &spec, None);
            let r_shuf = schem_preflight(&tech, &lib, &shuffled, None);
            prop_assert_eq!(r_ref.violations, r_shuf.violations);
            prop_assert_eq!(r_ref.nets_checked, r_shuf.nets_checked);
        }
    }
}
