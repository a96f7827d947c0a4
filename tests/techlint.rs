//! Integration tests for the techlint zeroth gate
//! ([`prima_flow::techlint_preflight`]): every bundled deck lints clean,
//! seeded deck defects are rejected with their exact `TECH.*`/`LIB.*` rule
//! ids before a single simulation runs, lint results are stable under the
//! order-free parts of deck construction, and — the portability claim —
//! all four benchmark circuits complete the optimized flow on the
//! SKY130-flavored deck with every gate (techlint → schem → verify → erc)
//! enforced and clean.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use prima_cache::Fingerprintable;
use prima_flow::circuits::{CsAmp, FiveTOta, RoVco, StrongArm};
use prima_flow::{optimized_flow_with, techlint_preflight, FlowError, FlowOptions};
use prima_pdk::Technology;
use prima_primitives::Library;

/// All bundled decks pass the full preflight (deck self-consistency and
/// library feasibility) with both check families on record.
#[test]
fn bundled_decks_are_clean_through_preflight() {
    let lib = Library::standard();
    for tech in [
        Technology::finfet7(),
        Technology::bulk16(),
        Technology::sky130ish(),
    ] {
        let report = techlint_preflight(&tech, &lib);
        assert!(
            report.is_passing(),
            "{}: {:#?}",
            tech.name,
            report.violations
        );
        assert_eq!(report.checks_run, vec!["techlint.deck", "techlint.library"]);
    }
}

/// Applies `break_deck` to a clean deck and asserts the analyzer rejects
/// it with exactly `rule_id`, and that the optimized flow refuses the deck
/// in preflight — before the optimizer is constructed, so zero layouts are
/// generated and zero simulations run.
fn assert_defect_caught(rule_id: &str, break_deck: impl Fn(&mut Technology)) {
    let lib = Library::standard();
    let mut tech = Technology::sky130ish();
    break_deck(&mut tech);

    let report = techlint_preflight(&tech, &lib);
    assert!(!report.is_passing(), "{rule_id}: deck unexpectedly clean");
    assert!(
        report.has_rule(rule_id),
        "{rule_id} not reported; got {:?}",
        report
            .violations
            .iter()
            .map(|v| v.rule_id.as_str())
            .collect::<Vec<_>>()
    );

    // The flow-level gate carries the same id out as a typed error.
    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&Technology::sky130ish(), &lib).unwrap();
    match optimized_flow_with(&tech, &lib, &spec, &biases, 7, FlowOptions::default()) {
        Err(FlowError::Verify { first, .. }) => {
            assert!(
                first.contains(rule_id),
                "flow error cites {first:?}, expected {rule_id}"
            );
        }
        Err(other) => panic!("{rule_id}: expected Verify error, got {other:?}"),
        Ok(_) => panic!("{rule_id}: flow completed on a broken deck"),
    }
}

#[test]
fn truncated_em_via_table_is_rejected() {
    assert_defect_caught("TECH.EM.VIA", |tech| {
        tech.electrical.em_ma_per_cut.pop();
    });
}

#[test]
fn truncated_via_stack_is_rejected() {
    assert_defect_caught("TECH.VIA.COUNT", |tech| {
        tech.via_r.pop();
        tech.electrical.em_ma_per_cut.pop();
    });
}

#[test]
fn oversized_via_enclosure_is_rejected() {
    assert_defect_caught("TECH.VIA.FIT", |tech| {
        tech.rules.vias[1].enclosure = 500;
    });
}

#[test]
fn metal_width_above_pitch_is_rejected() {
    assert_defect_caught("TECH.METAL.WIDTH", |tech| {
        tech.metals[2].min_width = tech.metals[2].pitch * 2;
    });
}

#[test]
fn off_grid_deck_is_rejected() {
    assert_defect_caught("TECH.GRID.DIV", |tech| {
        tech.rules.grid_nm = 7;
    });
}

#[test]
fn renamed_rule_row_is_rejected() {
    assert_defect_caught("TECH.RULES.NAME", |tech| {
        tech.rules.metal[1].layer = "MET1".into();
    });
}

#[test]
fn starved_metal_space_is_rejected_as_library_infeasible() {
    // A legal-looking deck whose bottom-layer spacing leaves no room
    // between adjacent contact stubs: every deck section stays
    // self-consistent (pitch is widened to keep width + space on-track),
    // but no primitive can ever render on it — a LIB.* finding, proven
    // analytically without rendering a single cell.
    assert_defect_caught("LIB.FIT", |tech| {
        tech.rules.metal[0].min_space = 300;
        tech.metals[0].pitch = 480;
    });
}

/// Cross-deck drift invalidates caches: evaluation-cache keys embed the
/// deck's content fingerprint, which differs between the two production
/// decks and feeds every field, so even an electrical-only retune moves
/// it.
#[test]
fn drift_between_bundled_decks_is_cache_invalidating() {
    assert_ne!(
        Technology::finfet7().fingerprint(),
        Technology::sky130ish().fingerprint()
    );
    let mut retuned = Technology::sky130ish();
    retuned.electrical.em_ma_per_um *= 1.25;
    assert_ne!(Technology::sky130ish().fingerprint(), retuned.fingerprint());
}

/// The acceptance bar for the second technology: all four benchmark
/// circuits complete the optimized flow on the SKY130-flavored deck with
/// every static gate enforced and every report clean.
#[test]
fn all_four_circuits_complete_optimized_flow_on_sky130ish() {
    let tech = Technology::sky130ish();
    let lib = Library::standard();
    let options = FlowOptions::default();
    let vco = RoVco::small();
    let runs = [
        (CsAmp::spec(), CsAmp::biases(&tech, &lib).unwrap()),
        (FiveTOta::spec(), FiveTOta::biases(&tech, &lib).unwrap()),
        (StrongArm::spec(), StrongArm::biases(&tech, &lib).unwrap()),
        (vco.spec(), vco.biases(&tech, &lib).unwrap()),
    ];
    for (spec, biases) in runs {
        let outcome = optimized_flow_with(&tech, &lib, &spec, &biases, 13, options.clone())
            .unwrap_or_else(|e| panic!("{} failed on sky130ish: {e:?}", spec.name));
        for (gate, report) in [
            ("techlint", &outcome.techlint),
            ("schem", &outcome.schem),
            ("verify", &outcome.verify),
            ("erc", &outcome.erc),
        ] {
            let report = report
                .as_ref()
                .unwrap_or_else(|| panic!("{}: {gate} gate did not run", spec.name));
            assert!(
                report.is_passing(),
                "{}: {gate} gate failed: {:#?}",
                spec.name,
                report.violations
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lint results are invariant under deck construction order: the
    /// FEOL rule rows and placement-grid rows are keyed by layer name, so
    /// any permutation of those sections must produce the identical
    /// report — same verdict, same violations in the same canonical
    /// order. Checked on both a clean deck and a seeded off-grid deck.
    #[test]
    fn lint_is_invariant_under_section_construction_order(
        seed in any::<u64>(),
        off_grid in any::<bool>(),
    ) {
        use rand::{Rng, SeedableRng};
        fn shuffle<T>(items: &mut [T], rng: &mut rand::StdRng) {
            for i in (1..items.len()).rev() {
                let j = rng.gen_range(0..=i);
                items.swap(i, j);
            }
        }

        let lib = Library::standard();
        let mut base = Technology::sky130ish();
        if off_grid {
            base.rules.grid_nm = 7;
        }
        let want = techlint_preflight(&base, &lib);

        let mut rng = rand::StdRng::seed_from_u64(seed);
        let mut shuffled = base.clone();
        shuffle(&mut shuffled.rules.feol, &mut rng);
        shuffle(&mut shuffled.rules.grids, &mut rng);
        let got = techlint_preflight(&shuffled, &lib);

        prop_assert_eq!(want.is_passing(), got.is_passing());
        prop_assert_eq!(want.violations, got.violations);
    }

    /// Any deck whose wire resistance rises somewhere up the stack — a
    /// physically backwards table, however slight — trips the
    /// monotonicity lint.
    #[test]
    fn perturbed_monotonic_deck_trips_mono_lint(
        layer in 1usize..6,
        factor in 1.01f64..50.0,
    ) {
        let mut tech = Technology::finfet7();
        tech.metals[layer].r_ohm_per_um = tech.metals[layer - 1].r_ohm_per_um * factor;
        let report = techlint_preflight(&tech, &Library::standard());
        prop_assert!(report.has_rule("TECH.MONO.R"));
        prop_assert!(!report.is_passing());
    }
}
