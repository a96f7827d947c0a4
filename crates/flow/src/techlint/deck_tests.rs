//! Unit tests of the deck self-consistency lints (`TECH.*`) in
//! `techlint/deck.rs`.

mod tests {
    use prima_pdk::{GdsLayerMap, RouteDir, Technology};

    use crate::techlint::check_tech;

    #[test]
    fn bundled_decks_have_no_deck_errors() {
        for tech in [
            Technology::finfet7(),
            Technology::bulk16(),
            Technology::sky130ish(),
        ] {
            let report = check_tech(&tech);
            assert!(
                report.is_passing(),
                "{}: {:#?}",
                tech.name,
                report.violations
            );
        }
    }

    #[test]
    fn missing_tt_corner_is_rejected() {
        let mut tech = Technology::finfet7();
        tech.corners.corners.retain(|c| c.name != "tt");
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_CORNER_TT));
        assert!(!report.is_passing());
    }

    #[test]
    fn non_identity_tt_is_rejected() {
        let mut tech = Technology::finfet7();
        tech.corners.corners[0].vdd_scale = 1.05;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_CORNER_TT));
    }

    #[test]
    fn duplicate_corner_names_are_rejected() {
        let mut tech = Technology::finfet7();
        let dup = tech.corners.corners[1].clone();
        tech.corners.corners.push(dup);
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_CORNER_DUP));
    }

    #[test]
    fn out_of_bounds_corner_is_rejected() {
        let mut tech = Technology::finfet7();
        tech.corners.corners[1].nmos_vth_shift_v = 1.0;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_CORNER_RANGE));

        let mut tech = Technology::sky130ish();
        tech.corners.corners[5].vdd_scale = 0.55;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_CORNER_RANGE));

        let mut tech = Technology::bulk16();
        tech.corners.corners[8].temp_c = Some(400.0);
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_CORNER_RANGE));
    }

    #[test]
    fn empty_corner_table_is_fine() {
        let mut tech = Technology::finfet7();
        tech.corners = prima_pdk::CornerSet::default();
        let report = check_tech(&tech);
        assert!(report.is_passing(), "{:#?}", report.violations);
    }

    #[test]
    fn missing_layer_map_entry_is_rejected() {
        let mut tech = Technology::finfet7();
        tech.gds.entries.retain(|e| e.name != "poly");
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_GDS_COVERAGE));
        assert!(!report.is_passing());
    }

    #[test]
    fn empty_layer_map_is_rejected() {
        // A deck built without a layer map.
        let mut tech = Technology::sky130ish();
        tech.gds = GdsLayerMap::default();
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_GDS_COVERAGE));
    }

    #[test]
    fn colliding_layer_numbers_are_rejected() {
        let mut tech = Technology::finfet7();
        let (l, d) = (tech.gds.entries[0].layer, tech.gds.entries[0].datatype);
        tech.gds.entries[1].layer = l;
        tech.gds.entries[1].datatype = d;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_GDS_DUP));
    }

    #[test]
    fn bad_gds_units_are_rejected() {
        let mut tech = Technology::bulk16();
        tech.gds.unit_in_m = 0.0;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_GDS_UNITS));
    }

    #[test]
    fn empty_stack_is_terminal() {
        let mut tech = Technology::finfet7();
        tech.metals.clear();
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_STACK_EMPTY));
        assert!(!report.is_passing());
    }

    #[test]
    fn rising_resistance_trips_monotonicity() {
        let mut tech = Technology::finfet7();
        tech.metals[3].r_ohm_per_um = 500.0;
        let report = check_tech(&tech);
        assert!(
            report.has_rule(crate::techlint::RULE_MONO_R),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn rising_via_resistance_trips_monotonicity() {
        let mut tech = Technology::sky130ish();
        tech.via_r[2] = 99.0;
        assert!(check_tech(&tech).has_rule(crate::techlint::RULE_MONO_VIA));
    }

    #[test]
    fn truncated_em_table_is_reported() {
        let mut tech = Technology::bulk16();
        tech.electrical.em_ma_per_cut.pop();
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_EM_VIA));
        assert!(!report.is_passing());
    }

    #[test]
    fn truncated_via_stack_is_reported() {
        let mut tech = Technology::finfet7();
        tech.via_r.pop();
        assert!(check_tech(&tech).has_rule(crate::techlint::RULE_VIA_COUNT));
    }

    #[test]
    fn oversized_via_is_reported() {
        let mut tech = Technology::finfet7();
        tech.rules.vias[0].enclosure = 50;
        assert!(check_tech(&tech).has_rule(crate::techlint::RULE_VIA_FIT));
    }

    #[test]
    fn off_grid_rule_is_reported() {
        let mut tech = Technology::finfet7();
        tech.rules.grid_nm = 5;
        // finfet7 pitches (36, 54 …) are not all multiples of 5.
        assert!(check_tech(&tech).has_rule(crate::techlint::RULE_GRID_DIV));
    }

    #[test]
    fn width_exceeding_pitch_is_reported() {
        let mut tech = Technology::bulk16();
        tech.metals[1].min_width = tech.metals[1].pitch + 2;
        assert!(check_tech(&tech).has_rule(crate::techlint::RULE_METAL_WIDTH));
    }

    #[test]
    fn rule_row_name_drift_is_reported() {
        let mut tech = Technology::sky130ish();
        tech.rules.metal[0].layer = "MET1".into();
        assert!(check_tech(&tech).has_rule(crate::techlint::RULE_RULES_NAME));
    }

    #[test]
    fn missing_route_pair_is_reported() {
        let mut tech = Technology::finfet7();
        // Force everything above M2 vertical: no horizontal trunk layer.
        for m in tech.metals.iter_mut().skip(2) {
            m.dir = RouteDir::Vertical;
        }
        assert!(check_tech(&tech).has_rule(crate::techlint::RULE_ROUTE_PAIR));
    }

    #[test]
    fn direction_repeat_is_a_warning_only() {
        let mut tech = Technology::finfet7();
        tech.metals[4].dir = RouteDir::Horizontal; // M4 and M5 both horizontal
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_STACK_DIR));
        assert!(report.is_passing(), "{:?}", report.violations);
    }

    #[test]
    fn bad_supply_and_ir_are_reported() {
        let mut tech = Technology::finfet7();
        tech.vdd = 48.0;
        tech.electrical.ir_frac_vdd = 0.0;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_SUPPLY));
        assert!(report.has_rule(crate::techlint::RULE_IR_BUDGET));
    }

    #[test]
    fn bad_lde_and_variation_are_reported() {
        let mut tech = Technology::bulk16();
        tech.lde_n.sc_offset = 0.0;
        tech.variation.avth = -1.0;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::techlint::RULE_LDE_RANGE));
        assert!(report.has_rule(crate::techlint::RULE_VAR_RANGE));
    }

    #[test]
    fn merged_gates_are_reported() {
        let mut tech = Technology::sky130ish();
        tech.fin.gate_length = tech.fin.poly_pitch + 10;
        assert!(check_tech(&tech).has_rule(crate::techlint::RULE_FIN_GEOM));
    }
}
