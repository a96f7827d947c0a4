//! Unit tests of the library feasibility proofs (`LIB.*`) in
//! `techlint/library.rs`.

mod tests {
    use prima_pdk::Technology;
    use prima_primitives::Library;

    use crate::techlint::check_library;

    #[test]
    fn standard_library_is_feasible_on_all_bundled_decks() {
        let lib = Library::standard();
        for tech in [
            Technology::finfet7(),
            Technology::bulk16(),
            Technology::sky130ish(),
        ] {
            let report = check_library(&tech, &lib);
            assert!(
                report.is_passing(),
                "{}: {:#?}",
                tech.name,
                report.violations
            );
        }
    }

    #[test]
    fn single_layer_deck_fails_pins() {
        let mut tech = Technology::finfet7();
        tech.metals.truncate(1);
        let report = check_library(&tech, &Library::standard());
        assert!(report.has_rule(crate::techlint::RULE_LIB_PINS));
        // Geometry checks must not run (they would dereference layer 2).
        assert!(!report.has_rule(crate::techlint::RULE_LIB_DRC));
    }

    #[test]
    fn fat_stub_layer_fails_fit_with_the_offending_nfin() {
        let mut tech = Technology::sky130ish();
        // A bottom layer wider than a gate pitch can never place two
        // adjacent contact stubs.
        tech.metals[0].min_width = tech.fin.poly_pitch;
        let report = check_library(&tech, &Library::standard());
        assert!(
            report.has_rule(crate::techlint::RULE_LIB_FIT),
            "{:#?}",
            report.violations
        );
    }

    #[test]
    fn starved_row_overhead_fails_fit_for_multirow_cells() {
        let mut tech = Technology::finfet7();
        tech.fin.cell_height_overhead = 2 * tech.fin.diff_extension; // zero poly gap
        let report = check_library(&tech, &Library::standard());
        assert!(report.has_rule(crate::techlint::RULE_LIB_FIT));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.rule_id == crate::techlint::RULE_LIB_FIT && v.message.contains("m>=2")),
            "{:#?}",
            report.violations
        );
    }

    #[test]
    fn unknown_port_net_is_reported() {
        let mut lib = Library::standard();
        let mut def = lib.get("dp").cloned().expect("dp in standard library");
        def.ports.push("phantom".into());
        lib.upsert(def);
        let report = check_library(&Technology::finfet7(), &lib);
        assert!(report.has_rule(crate::techlint::RULE_LIB_PORTS));
    }

    #[test]
    fn corner_configs_cover_every_pattern() {
        // The spot-proof must exercise all three placement patterns; the
        // scope string encodes which one produced a finding.
        let mut tech = Technology::finfet7();
        // Break M1 spacing so every rendered corner fails.
        tech.rules.metal[0].min_space = tech.fin.poly_pitch;
        let report = check_library(&tech, &Library::standard());
        // The seeded defect trips the analytic stub-spacing proof before
        // any rendering happens — exactly the point of the static pass.
        assert!(report.has_rule(crate::techlint::RULE_LIB_FIT));
    }
}
