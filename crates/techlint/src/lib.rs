//! # prima-techlint
//!
//! Static PDK-deck and library-feasibility analysis — the zeroth gate.
//!
//! A new `Technology` arrives as plain data, and every downstream stage
//! (cell generation, placement, routing, DRC, ERC, the simulators) trusts
//! that data to be self-consistent: rules derived from the same numbers the
//! generators consume, via stacks as deep as the metal stack, EM tables as
//! long as the via list. A deck that violates those invariants does not
//! fail loudly at registration — it panics three stages later inside a
//! router, or worse, silently produces layouts that can never pass sign-off.
//!
//! This crate front-loads all of that into a pure static pass, run before
//! schematic preflight and long before any SPICE evaluation:
//!
//! * **deck self-consistency** ([`check_tech`]) — stack monotonicity,
//!   width/space/pitch coherence, via-stack completeness and
//!   enclosure-fits-in-width, manufacturing-grid divisibility, EM/IR limit
//!   sanity, LDE/variation parameter ranges. Rule ids are stable
//!   `TECH.*` strings.
//! * **library feasibility** ([`check_library`]) — for every
//!   [`prima_primitives::PrimitiveDef`], a static proof that each
//!   `(nfin, nf, m, pattern)` point the selector can ever pick from
//!   `std_config_space` renders to DRC-clean geometry on the deck. The
//!   proof is analytic where the tiling is periodic (the inequalities are
//!   independent of `nf`/`m`, see [`library`]) plus a rendered corner-config
//!   DRC spot-check. No simulation is invoked. Rule ids are `LIB.*`.
//! * **cross-deck drift** ([`diff_techs`]) — a field-level diff of two
//!   decks classifying every change as layout-compatible (electrical-only:
//!   re-simulate, reuse geometry) or layout-breaking (regenerate), plus
//!   whether the content fingerprint — and therefore every cache
//!   namespace keyed on it — changed.
//!
//! The flow runs [`check_deck`] as a preflight gate; `prima-serve` runs it
//! at tenant-technology registration so a bad deck is rejected at the API
//! boundary, not inside a deadline-scheduled batch.
//!
//! ## Example
//!
//! ```
//! use prima_pdk::Technology;
//! use prima_primitives::Library;
//!
//! // Both bundled nodes and the SKY130-flavored fixture lint clean.
//! for tech in [Technology::finfet7(), Technology::bulk16(), Technology::sky130ish()] {
//!     let report = prima_techlint::check_deck(&tech, &Library::standard());
//!     assert!(report.is_passing(), "{tech_name}: {report:?}", tech_name = tech.name);
//! }
//!
//! // A truncated EM table is caught with a stable rule id.
//! let mut broken = Technology::finfet7();
//! broken.electrical.em_ma_per_cut.pop();
//! let report = prima_techlint::check_tech(&broken);
//! assert!(report.has_rule(prima_techlint::RULE_EM_VIA));
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use prima_core::diagnostics::{Severity, VerifyReport};
use prima_pdk::Technology;
use prima_primitives::Library;

pub mod deck;
pub mod drift;
pub mod library;

pub use drift::{diff_techs, DriftEntry, TechDrift};

// ---------------------------------------------------------------------------
// Stable rule identifiers. Tests and callers match on these exact strings;
// never rename one without migrating every fixture.

/// Deck has no metal layers at all.
pub const RULE_STACK_EMPTY: &str = "TECH.STACK.EMPTY";
/// Adjacent metal layers share a preferred routing direction (warning).
pub const RULE_STACK_DIR: &str = "TECH.STACK.DIR";
/// No horizontal/vertical routing-layer pair above M2 for the global router.
pub const RULE_ROUTE_PAIR: &str = "TECH.ROUTE.PAIR";
/// Duplicate drawn-layer name across the metal stack and FEOL rules.
pub const RULE_NAME_DUP: &str = "TECH.NAME.DUP";
/// Wire resistance increases going up the stack.
pub const RULE_MONO_R: &str = "TECH.MONO.R";
/// Wire capacitance decreases going up the stack (warning).
pub const RULE_MONO_C: &str = "TECH.MONO.C";
/// Via resistance increases going up the stack.
pub const RULE_MONO_VIA: &str = "TECH.MONO.VIA";
/// Non-positive or non-finite wire resistance/capacitance.
pub const RULE_METAL_RC: &str = "TECH.METAL.RC";
/// Metal min-width outside `(0, pitch]`.
pub const RULE_METAL_WIDTH: &str = "TECH.METAL.WIDTH";
/// Metal min-space non-positive, or width + space exceeds the track pitch.
pub const RULE_METAL_SPACE: &str = "TECH.METAL.SPACE";
/// Metal min-area non-positive or implausibly large for the min width.
pub const RULE_METAL_AREA: &str = "TECH.METAL.AREA";
/// Rule-deck section lengths disagree with the metal stack.
pub const RULE_RULES_COUNT: &str = "TECH.RULES.COUNT";
/// Rule-deck metal row named differently from its stack layer.
pub const RULE_RULES_NAME: &str = "TECH.RULES.NAME";
/// Via-resistance list shorter or longer than the stack's via levels.
pub const RULE_VIA_COUNT: &str = "TECH.VIA.COUNT";
/// Via cut plus enclosure does not fit in a min-width wire on both layers.
pub const RULE_VIA_FIT: &str = "TECH.VIA.FIT";
/// Non-positive or non-finite via resistance/capacitance.
pub const RULE_VIA_R: &str = "TECH.VIA.R";
/// A dimensional rule is not a multiple of the manufacturing grid.
pub const RULE_GRID_DIV: &str = "TECH.GRID.DIV";
/// Wire electromigration limit non-positive or non-finite.
pub const RULE_EM_WIRE: &str = "TECH.EM.WIRE";
/// Via EM table length disagrees with the via stack, or an entry is bad.
pub const RULE_EM_VIA: &str = "TECH.EM.VIA";
/// IR-drop budget fraction outside `(0, 0.5]`.
pub const RULE_IR_BUDGET: &str = "TECH.IR.BUDGET";
/// Supply voltage non-finite or outside the plausible `[0.2, 5.5]` V band.
pub const RULE_SUPPLY: &str = "TECH.SUPPLY";
/// Well-tap distance or symmetry tolerance out of range.
pub const RULE_TAP_RANGE: &str = "TECH.TAP.RANGE";
/// Fin/poly grid geometry inconsistent (zero pitches, gate > poly pitch …).
pub const RULE_FIN_GEOM: &str = "TECH.FIN.GEOM";
/// LDE coefficient non-finite or outside its physical range.
pub const RULE_LDE_RANGE: &str = "TECH.LDE.RANGE";
/// Variation (mismatch) parameter non-positive or outside its range.
pub const RULE_VAR_RANGE: &str = "TECH.VAR.RANGE";
/// A non-empty corner table lacks an identity `tt` corner (or its `tt` is
/// not the identity).
pub const RULE_CORNER_TT: &str = "TECH.CORNER.TT";
/// Two corners in the table share a name.
pub const RULE_CORNER_DUP: &str = "TECH.CORNER.DUP";
/// A corner perturbs outside the deck's declared bounds (or a bound /
/// perturbation is non-finite).
pub const RULE_CORNER_RANGE: &str = "TECH.CORNER.RANGE";
/// GDS layer-map unit sizes non-positive or non-finite.
pub const RULE_GDS_UNITS: &str = "TECH.GDS.UNITS";
/// A drawn/routable stack layer lacks a GDS layer-map entry; stream-out
/// of any design touching it would fail.
pub const RULE_GDS_COVERAGE: &str = "TECH.GDS.COVERAGE";
/// Two layer-map entries collide — a duplicated stack-layer name or a
/// shared GDS (layer, datatype) pair.
pub const RULE_GDS_DUP: &str = "TECH.GDS.DUP";

/// Deck lacks the routing layers / placement grids the cell generator needs.
pub const RULE_LIB_PINS: &str = "LIB.PINS";
/// Primitive port or tuning terminal references a net its spec never uses.
pub const RULE_LIB_PORTS: &str = "LIB.PORTS";
/// A `std_config_space` point provably renders geometry that breaks a rule.
pub const RULE_LIB_FIT: &str = "LIB.FIT";
/// Rendered corner configuration fails the deck's own DRC.
pub const RULE_LIB_DRC: &str = "LIB.DRC";

/// Lints one deck for self-consistency (`TECH.*` rules only).
pub fn check_tech(tech: &Technology) -> VerifyReport {
    let mut report = VerifyReport {
        circuit: tech.name.clone(),
        ..VerifyReport::default()
    };
    report.absorb("techlint.deck", deck::lint_deck(tech));
    report.finalize();
    report
}

/// Proves (or refutes) that every primitive in `lib` is manufacturable on
/// `tech` (`LIB.*` rules only). Purely static: renders geometry and runs
/// DRC, never a simulator.
pub fn check_library(tech: &Technology, lib: &Library) -> VerifyReport {
    let mut report = VerifyReport {
        circuit: tech.name.clone(),
        ..VerifyReport::default()
    };
    report.absorb("techlint.library", library::lint_library(tech, lib));
    report.finalize();
    report
}

/// The full preflight: deck self-consistency plus library feasibility in
/// one report. This is what the flow gate and `prima-serve` registration
/// run.
///
/// When the deck family itself has error-severity findings, the library
/// pass is skipped (and left out of `checks_run`): feasibility on a
/// self-inconsistent deck would only restate the deck defect as cascaded
/// `LIB.*` noise, burying the root-cause `TECH.*` id.
pub fn check_deck(tech: &Technology, lib: &Library) -> VerifyReport {
    let mut report = VerifyReport {
        circuit: tech.name.clone(),
        ..VerifyReport::default()
    };
    let deck_findings = deck::lint_deck(tech);
    let deck_broken = deck_findings.iter().any(|v| v.severity == Severity::Error);
    report.absorb("techlint.deck", deck_findings);
    if !deck_broken {
        report.absorb("techlint.library", library::lint_library(tech, lib));
    }
    report.finalize();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_decks_lint_clean() {
        for tech in [
            Technology::finfet7(),
            Technology::bulk16(),
            Technology::sky130ish(),
        ] {
            let report = check_deck(&tech, &Library::standard());
            assert!(
                report.is_passing(),
                "{}: {:#?}",
                tech.name,
                report.violations
            );
            assert_eq!(report.checks_run, vec!["techlint.deck", "techlint.library"]);
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let tech = Technology::sky130ish();
        let lib = Library::standard();
        assert_eq!(check_deck(&tech, &lib), check_deck(&tech, &lib));
    }
}
