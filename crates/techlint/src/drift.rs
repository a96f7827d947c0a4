//! Cross-deck drift analysis.
//!
//! When a tenant re-registers a technology (PDK refresh, recalibrated
//! models), two independent questions decide what survives:
//!
//! 1. **Does any cache entry survive?** The evaluation cache namespaces on
//!    the deck's content fingerprint, which feeds *every* field — so any
//!    change at all invalidates. [`TechDrift::cache_invalidating`] answers
//!    from the fingerprints, not the field diff, so it can never disagree
//!    with the cache.
//! 2. **Do generated layouts survive?** Only changes to geometry-bearing
//!    fields (fin grid, metal pitches/widths/directions, design rules)
//!    force regeneration; electrical recalibration (wire RC, via R, LDE,
//!    variation, model cards, EM/IR limits, supply) keeps drawn geometry
//!    legal and only requires re-simulation.
//!    [`TechDrift::layout_compatible`] classifies per field.

use prima_cache::Fingerprintable;
use prima_pdk::Technology;

/// One changed field between two decks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftEntry {
    /// Dotted field path, e.g. `"metals[2].pitch"`.
    pub field: String,
    /// Value in the first deck.
    pub before: String,
    /// Value in the second deck.
    pub after: String,
    /// `true` when existing layouts remain legal under the change
    /// (electrical-only drift); `false` when geometry must be regenerated.
    pub layout_compatible: bool,
}

/// Field-level diff of two [`Technology`] values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TechDrift {
    /// Every changed field, in declaration order.
    pub entries: Vec<DriftEntry>,
    /// Whether the content fingerprints differ (authoritative for caches).
    pub fingerprint_changed: bool,
}

impl TechDrift {
    /// `true` when the decks are byte-for-byte the same content.
    pub fn is_identical(&self) -> bool {
        self.entries.is_empty() && !self.fingerprint_changed
    }

    /// `true` when cached evaluation results keyed on the first deck must
    /// be discarded under the second.
    pub fn cache_invalidating(&self) -> bool {
        self.fingerprint_changed
    }

    /// `true` when layouts generated on the first deck remain legal on the
    /// second (possibly with different electrical behavior — re-simulate,
    /// don't regenerate).
    pub fn layout_compatible(&self) -> bool {
        self.entries.iter().all(|e| e.layout_compatible)
    }

    fn push<T: std::fmt::Debug + PartialEq>(
        &mut self,
        field: &str,
        before: &T,
        after: &T,
        layout_compatible: bool,
    ) {
        if before != after {
            self.entries.push(DriftEntry {
                field: field.to_string(),
                before: format!("{before:?}"),
                after: format!("{after:?}"),
                layout_compatible,
            });
        }
    }
}

/// Diffs two decks field by field and compares their content fingerprints.
pub fn diff_techs(before: &Technology, after: &Technology) -> TechDrift {
    let mut d = TechDrift {
        entries: Vec::new(),
        fingerprint_changed: before.fingerprint() != after.fingerprint(),
    };

    d.push("name", &before.name, &after.name, true);
    d.push("vdd", &before.vdd, &after.vdd, true);

    // Fin/poly grid: every field positions drawn shapes.
    let (fb, fa) = (&before.fin, &after.fin);
    d.push("fin.fin_pitch", &fb.fin_pitch, &fa.fin_pitch, false);
    d.push("fin.fin_width", &fb.fin_width, &fa.fin_width, false);
    d.push(
        "fin.weff_per_fin",
        &fb.weff_per_fin,
        &fa.weff_per_fin,
        false,
    );
    d.push("fin.poly_pitch", &fb.poly_pitch, &fa.poly_pitch, false);
    d.push("fin.gate_length", &fb.gate_length, &fa.gate_length, false);
    d.push(
        "fin.diff_extension",
        &fb.diff_extension,
        &fa.diff_extension,
        false,
    );
    d.push(
        "fin.cell_height_overhead",
        &fb.cell_height_overhead,
        &fa.cell_height_overhead,
        false,
    );
    d.push(
        "fin.cell_width_overhead",
        &fb.cell_width_overhead,
        &fa.cell_width_overhead,
        false,
    );

    // Metal stack: geometry fields break layouts, RC recalibration does not.
    if before.metals.len() != after.metals.len() {
        d.push(
            "metals.len",
            &before.metals.len(),
            &after.metals.len(),
            false,
        );
    } else {
        for (i, (mb, ma)) in before.metals.iter().zip(&after.metals).enumerate() {
            d.push(&format!("metals[{i}].name"), &mb.name, &ma.name, false);
            d.push(&format!("metals[{i}].dir"), &mb.dir, &ma.dir, false);
            d.push(&format!("metals[{i}].pitch"), &mb.pitch, &ma.pitch, false);
            d.push(
                &format!("metals[{i}].min_width"),
                &mb.min_width,
                &ma.min_width,
                false,
            );
            d.push(
                &format!("metals[{i}].r_ohm_per_um"),
                &mb.r_ohm_per_um,
                &ma.r_ohm_per_um,
                true,
            );
            d.push(
                &format!("metals[{i}].c_f_per_um"),
                &mb.c_f_per_um,
                &ma.c_f_per_um,
                true,
            );
        }
    }

    // Via electrical stack: a depth change is structural, values are not.
    if before.via_r.len() != after.via_r.len() {
        d.push("via_r.len", &before.via_r.len(), &after.via_r.len(), false);
    } else {
        for (i, (rb, ra)) in before.via_r.iter().zip(&after.via_r).enumerate() {
            d.push(&format!("via_r[{i}]"), rb, ra, true);
        }
    }
    d.push("via_c", &before.via_c, &after.via_c, true);

    // Model-side parameters: re-simulate, never regenerate.
    d.push("lde_n", &before.lde_n, &after.lde_n, true);
    d.push("lde_p", &before.lde_p, &after.lde_p, true);
    d.push("variation", &before.variation, &after.variation, true);
    d.push("nmos", &before.nmos, &after.nmos, true);
    d.push("pmos", &before.pmos, &after.pmos, true);
    d.push("electrical", &before.electrical, &after.electrical, true);

    // Design rules: any section change can outlaw existing geometry.
    let (rb, ra) = (&before.rules, &after.rules);
    d.push("rules.grid_nm", &rb.grid_nm, &ra.grid_nm, false);
    d.push("rules.feol", &rb.feol, &ra.feol, false);
    d.push("rules.metal", &rb.metal, &ra.metal, false);
    d.push("rules.vias", &rb.vias, &ra.vias, false);
    d.push("rules.grids", &rb.grids, &ra.grids, false);

    // Stream-out interop: a layer-map change redraws nothing — existing
    // layouts stay legal — but emitted GDS streams differ, and the
    // fingerprint (which feeds the map) invalidates caches.
    d.push("gds", &before.gds, &after.gds, true);

    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_decks_show_no_drift() {
        let d = diff_techs(&Technology::finfet7(), &Technology::finfet7());
        assert!(d.is_identical(), "{:#?}", d.entries);
        assert!(!d.cache_invalidating());
        assert!(d.layout_compatible());
    }

    #[test]
    fn electrical_recalibration_is_layout_compatible_but_cache_invalidating() {
        let before = Technology::sky130ish();
        let mut after = before.clone();
        after.via_r[1] *= 1.2;
        after.lde_n.kvth_lod *= 0.9;
        after.nmos.vth0 += 0.01;
        let d = diff_techs(&before, &after);
        assert!(!d.is_identical());
        assert!(d.cache_invalidating(), "fingerprint feeds every field");
        assert!(d.layout_compatible(), "{:#?}", d.entries);
        assert_eq!(d.entries.len(), 3);
    }

    #[test]
    fn pitch_change_breaks_layout_compatibility() {
        let before = Technology::finfet7();
        let mut after = before.clone();
        after.metals[2].pitch += 4;
        let d = diff_techs(&before, &after);
        assert!(!d.layout_compatible());
        assert!(d.cache_invalidating());
        assert!(d
            .entries
            .iter()
            .any(|e| e.field == "metals[2].pitch" && !e.layout_compatible));
    }

    #[test]
    fn stack_depth_change_is_structural() {
        let before = Technology::finfet7();
        let mut after = before.clone();
        after.metals.pop();
        after.via_r.pop();
        let d = diff_techs(&before, &after);
        assert!(!d.layout_compatible());
        assert!(d.entries.iter().any(|e| e.field == "metals.len"));
        assert!(d.entries.iter().any(|e| e.field == "via_r.len"));
    }

    #[test]
    fn rule_deck_edit_is_structural() {
        let before = Technology::bulk16();
        let mut after = before.clone();
        after.rules.metal[0].min_space += 2;
        let d = diff_techs(&before, &after);
        assert!(!d.layout_compatible());
        assert!(d.entries.iter().any(|e| e.field == "rules.metal"));
    }
}
