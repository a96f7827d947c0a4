//! Library feasibility proofs (`LIB.*`).
//!
//! The selector only ever picks cell configurations from
//! [`prima_core::selection::std_config_space`], which is a subset of
//! `STD_NFIN_CHOICES × ℕ(nf) × [1, STD_M_MAX] × PlacementPattern::ALL`.
//! The cell generator tiles a fixed unit at `poly_pitch` horizontally and
//! `nfin·fin_pitch + cell_height_overhead` vertically, so the geometry it
//! emits is **periodic in `nf` and `m`**: adding a finger column or a unit
//! row repeats shapes at a pitch that already exists in a 2-finger,
//! 2-row cell. A width/space/area/grid rule that holds for the smallest
//! tile therefore holds for every larger one, which lets a handful of
//! inequalities plus a rendered corner-config DRC pass stand in for
//! enumerating the (unbounded in `nf`) configuration space — with zero
//! simulations.
//!
//! Checks:
//!
//! * **`LIB.PINS`** — the deck has the layers and placement grids the
//!   generator dereferences (bottom stub layer + trunk layer, poly grid,
//!   bottom-metal grid).
//! * **`LIB.FIT`** — the analytic inequalities: stub pitch/spacing, stub
//!   width/area at every `nfin` choice, poly area, inter-row poly and
//!   diffusion clearances, trunk-track fit.
//! * **`LIB.PORTS`** — every declared port and tuning-terminal net exists
//!   in the primitive's device template.
//! * **`LIB.DRC`** — corner configurations of every primitive render and
//!   pass the deck's own DRC (smallest tile, a multi-row tile, and a
//!   no-dummy tile, per placement pattern).

use prima_core::diagnostics::{RuleKind, Severity, Violation};
use prima_core::selection::{STD_M_MAX, STD_NFIN_CHOICES};
use prima_layout::{render, CellConfig, PlacementPattern};
use prima_pdk::{Nm, Technology};
use prima_primitives::{Library, PrimitiveDef};
use prima_verify::drc::check_cell;

/// Corner configurations per placement pattern: the smallest tile (every
/// pitch the tiling ever uses appears here), a multi-row tile (exercises
/// the inter-row clearances), and a no-dummy tile (exercises row-edge
/// shapes). `(nfin, nf, m, dummies)`.
const CORNER_CONFIGS: [(u32, u32, u32, bool); 3] =
    [(2, 2, 1, true), (2, 3, 2, true), (3, 4, 2, false)];

/// Runs every library lint and returns the findings.
pub(crate) fn lint_library(tech: &Technology, lib: &Library) -> Vec<Violation> {
    let mut out = Vec::new();

    let deck_usable = lint_pins(tech, &mut out);
    if deck_usable {
        lint_fit(tech, &mut out);
    }
    // Geometry checks are only meaningful on a deck the generator can
    // address at all; on a broken deck the LIB.PINS findings carry the gate.
    let geometry_ok = deck_usable && out.is_empty();

    for def in lib.iter() {
        lint_ports(def, &mut out);
        if geometry_ok && !def.spec.devices.is_empty() {
            lint_rendered_corners(tech, def, &mut out);
        }
    }
    out
}

/// Structural prerequisites of the cell generator; returns `false` when
/// rendering would dereference a missing layer.
fn lint_pins(tech: &Technology, out: &mut Vec<Violation>) -> bool {
    let mut ok = true;
    if tech.metals.len() < 2 {
        out.push(Violation::new(
            crate::RULE_LIB_PINS,
            RuleKind::Missing,
            Severity::Error,
            None,
            format!(
                "cell generator needs a stub layer and a trunk layer; deck has {} metal(s)",
                tech.metals.len()
            ),
        ));
        ok = false;
    }
    if tech.rules.metal.len() < tech.metals.len().min(2) {
        out.push(Violation::new(
            crate::RULE_LIB_PINS,
            RuleKind::Missing,
            Severity::Error,
            None,
            format!(
                "rule deck covers {} metal layer(s) of the {} the generator uses",
                tech.rules.metal.len(),
                tech.metals.len().min(2)
            ),
        ));
        ok = false;
    }
    if tech.rules.grid("poly").is_none() {
        out.push(Violation::new(
            crate::RULE_LIB_PINS,
            RuleKind::Missing,
            Severity::Error,
            None,
            "no poly placement grid; gate columns cannot be legalized".into(),
        ));
        ok = false;
    }
    if let Some(bottom) = tech.metals.first() {
        if tech.rules.grid(&bottom.name).is_none() {
            out.push(Violation::new(
                crate::RULE_LIB_PINS,
                RuleKind::Missing,
                Severity::Error,
                Some(bottom.name.clone()),
                format!(
                    "no placement grid for bottom routing layer {:?}; \
                     contact stubs cannot be legalized",
                    bottom.name
                ),
            ));
            ok = false;
        }
    }
    if tech.rules.feol("poly").is_none() || tech.rules.feol("diff").is_none() {
        out.push(Violation::new(
            crate::RULE_LIB_PINS,
            RuleKind::Missing,
            Severity::Error,
            None,
            "FEOL rules for poly/diff missing; rendered cells cannot be checked".into(),
        ));
        ok = false;
    }
    ok
}

/// The analytic feasibility inequalities. Each is a statement about the
/// periodic tile, quantified over exactly the values the selector can pick;
/// together with the corner-config DRC they cover every
/// `std_config_space` point for any sizing.
fn lint_fit(tech: &Technology, out: &mut Vec<Violation>) {
    let fin = &tech.fin;
    let stub = &tech.metals[0];
    let stub_rule = &tech.rules.metal[0];
    let trunk = &tech.metals[1];
    let mut fit = |kind: RuleKind, scope: String, message: String| {
        out.push(Violation::new(
            crate::RULE_LIB_FIT,
            kind,
            Severity::Error,
            Some(scope),
            message,
        ));
    };

    // Contact stubs repeat once per gate column, i.e. at poly_pitch.
    if stub.min_width + stub_rule.min_space > fin.poly_pitch {
        fit(
            RuleKind::Spacing,
            format!("{}/stub", stub.name),
            format!(
                "stub width {} + space {} exceeds poly_pitch {}; adjacent \
                 contact stubs can never be legal",
                stub.min_width, stub_rule.min_space, fin.poly_pitch
            ),
        );
    }

    // Per-nfin stub geometry: the stub is min_width × (nfin·fin_pitch/2).
    // Binding at the smallest nfin; reported per choice so the failing
    // configuration point is named exactly.
    for &nfin in STD_NFIN_CHOICES {
        let stub_h: Nm = Nm::from(nfin) * fin.fin_pitch / 2;
        if stub_h < stub_rule.min_width {
            fit(
                RuleKind::Width,
                format!("nfin={nfin}"),
                format!(
                    "stub short side {stub_h} nm below {} min_width {} at nfin={nfin}",
                    stub.name, stub_rule.min_width
                ),
            );
        }
        if stub.min_width * stub_h < stub_rule.min_area_nm2 {
            fit(
                RuleKind::Area,
                format!("nfin={nfin}"),
                format!(
                    "stub area {} nm² below {} min_area {} at nfin={nfin}",
                    stub.min_width * stub_h,
                    stub.name,
                    stub_rule.min_area_nm2
                ),
            );
        }
        if let Some(poly) = tech.rules.feol("poly") {
            let poly_h = Nm::from(nfin) * fin.fin_pitch + 2 * fin.diff_extension;
            if fin.gate_length * poly_h < poly.min_area_nm2 {
                fit(
                    RuleKind::Area,
                    format!("nfin={nfin}"),
                    format!(
                        "gate area {} nm² below poly min_area {} at nfin={nfin}",
                        fin.gate_length * poly_h,
                        poly.min_area_nm2
                    ),
                );
            }
        }
    }

    // Multi-row cells (m >= 2 is always in the selector's range): poly of
    // one row ends diff_extension above the diffusion, the next row's
    // begins diff_extension below its own, so the drawn gap is the row
    // overhead minus two extensions.
    if STD_M_MAX >= 2 {
        let row_gap = fin.cell_height_overhead - 2 * fin.diff_extension;
        if let Some(poly) = tech.rules.feol("poly") {
            if row_gap < poly.min_space {
                fit(
                    RuleKind::Spacing,
                    "rows".into(),
                    format!(
                        "inter-row poly gap {row_gap} nm (overhead {} − 2×diff_extension {}) \
                         below poly min_space {}; every m>=2 configuration is illegal",
                        fin.cell_height_overhead, fin.diff_extension, poly.min_space
                    ),
                );
            }
        }
        if let Some(diff) = tech.rules.feol("diff") {
            if fin.cell_height_overhead < diff.min_space {
                fit(
                    RuleKind::Spacing,
                    "rows".into(),
                    format!(
                        "inter-row diffusion gap {} nm below diff min_space {}",
                        fin.cell_height_overhead, diff.min_space
                    ),
                );
            }
        }
    }

    // Mesh routing draws trunk straps in the row overhead above the fins;
    // at least the first trunk track must fit or no net can leave a row.
    if trunk.min_width > fin.cell_height_overhead / 2 {
        fit(
            RuleKind::Width,
            format!("{}/trunk", trunk.name),
            format!(
                "trunk layer {} min_width {} exceeds half the row overhead {}; \
                 no trunk strap fits",
                trunk.name,
                trunk.min_width,
                fin.cell_height_overhead / 2
            ),
        );
    }
}

/// Ports and tuning terminals must name nets the device template defines.
/// Passive templates (no devices) only need a non-empty port list — their
/// terminals are physical plates, not device nets.
fn lint_ports(def: &PrimitiveDef, out: &mut Vec<Violation>) {
    if def.ports.is_empty() {
        out.push(Violation::new(
            crate::RULE_LIB_PORTS,
            RuleKind::Dangling,
            Severity::Error,
            Some(def.name.clone()),
            format!("primitive {:?} declares no ports", def.name),
        ));
    }
    if def.spec.devices.is_empty() {
        return;
    }
    let nets = def.spec.nets();
    for port in &def.ports {
        if !nets.contains(port) {
            out.push(Violation::new(
                crate::RULE_LIB_PORTS,
                RuleKind::Dangling,
                Severity::Error,
                Some(def.name.clone()),
                format!(
                    "port {:?} of primitive {:?} is not a net of its device template",
                    port, def.name
                ),
            ));
        }
    }
    for terminal in &def.tuning {
        for net in &terminal.nets {
            if !nets.contains(net) {
                out.push(Violation::new(
                    crate::RULE_LIB_PORTS,
                    RuleKind::Dangling,
                    Severity::Error,
                    Some(format!("{}/{}", def.name, terminal.name)),
                    format!(
                        "tuning terminal {:?} of {:?} names unknown net {:?}",
                        terminal.name, def.name, net
                    ),
                ));
            }
        }
    }
}

/// Renders the corner configurations of one primitive and runs the deck's
/// own DRC on each. One `LIB.DRC` finding is emitted per distinct inner
/// rule id so the report stays readable when a deck breaks everything.
fn lint_rendered_corners(tech: &Technology, def: &PrimitiveDef, out: &mut Vec<Violation>) {
    for pattern in PlacementPattern::ALL {
        for (nfin, nf, m, dummies) in CORNER_CONFIGS {
            let cfg = CellConfig {
                nfin,
                nf,
                m,
                pattern,
                dummies,
                mesh: true,
            };
            let scope = format!("{}@nfin={nfin},nf={nf},m={m},{pattern}", def.name);
            match render(tech, &def.spec, &cfg) {
                Ok(geometry) => {
                    let inner = check_cell(&tech.rules, &geometry, &def.name);
                    let mut seen: Vec<&str> = Vec::new();
                    for v in &inner {
                        if v.severity != Severity::Error || seen.contains(&v.rule_id.as_str()) {
                            continue;
                        }
                        seen.push(&v.rule_id);
                        out.push(Violation::new(
                            crate::RULE_LIB_DRC,
                            v.kind,
                            Severity::Error,
                            Some(scope.clone()),
                            format!(
                                "corner config fails deck DRC: {} — {}",
                                v.rule_id, v.message
                            ),
                        ));
                    }
                }
                Err(e) => {
                    out.push(Violation::new(
                        crate::RULE_LIB_DRC,
                        RuleKind::Lint,
                        Severity::Error,
                        Some(scope),
                        format!("corner config failed to render: {e}"),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_library;

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
        assert!(report.has_rule(crate::RULE_LIB_PINS));
        // Geometry checks must not run (they would dereference layer 2).
        assert!(!report.has_rule(crate::RULE_LIB_DRC));
    }

    #[test]
    fn fat_stub_layer_fails_fit_with_the_offending_nfin() {
        let mut tech = Technology::sky130ish();
        // A bottom layer wider than a gate pitch can never place two
        // adjacent contact stubs.
        tech.metals[0].min_width = tech.fin.poly_pitch;
        let report = check_library(&tech, &Library::standard());
        assert!(
            report.has_rule(crate::RULE_LIB_FIT),
            "{:#?}",
            report.violations
        );
    }

    #[test]
    fn starved_row_overhead_fails_fit_for_multirow_cells() {
        let mut tech = Technology::finfet7();
        tech.fin.cell_height_overhead = 2 * tech.fin.diff_extension; // zero poly gap
        let report = check_library(&tech, &Library::standard());
        assert!(report.has_rule(crate::RULE_LIB_FIT));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.rule_id == crate::RULE_LIB_FIT && v.message.contains("m>=2")),
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
        assert!(report.has_rule(crate::RULE_LIB_PORTS));
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
        assert!(report.has_rule(crate::RULE_LIB_FIT));
    }
}
