//! Static PDK-deck and library-feasibility analysis — the zeroth gate,
//! run through [`crate::preflight::techlint_preflight`].
//!
//! A new `Technology` arrives as plain data, and every downstream stage
//! (cell generation, placement, routing, DRC, ERC, the simulators) trusts
//! that data to be self-consistent: rules derived from the same numbers the
//! generators consume, via stacks as deep as the metal stack, EM tables as
//! long as the via list. A deck that violates those invariants does not
//! fail loudly at registration — it panics three stages later inside a
//! router, or worse, silently produces layouts that can never pass sign-off.
//!
//! This module front-loads all of that into a pure static pass, run before
//! schematic preflight and long before any SPICE evaluation:
//!
//! * **deck self-consistency** ([`deck`]) — stack monotonicity,
//!   width/space/pitch coherence, via-stack completeness and
//!   enclosure-fits-in-width, manufacturing-grid divisibility, EM/IR limit
//!   sanity, LDE/variation parameter ranges. Rule ids are stable
//!   `TECH.*` strings.
//! * **library feasibility** ([`library`]) — for every
//!   [`prima_primitives::PrimitiveDef`], a static proof that each
//!   `(nfin, nf, m, pattern)` point the selector can ever pick from
//!   `std_config_space` renders to DRC-clean geometry on the deck. The
//!   proof is analytic where the tiling is periodic (the inequalities are
//!   independent of `nf`/`m`) plus a rendered corner-config DRC
//!   spot-check. No simulation is invoked. Rule ids are `LIB.*`.
//!
//! Both flows run the gate first; `prima-serve` runs it at
//! tenant-technology registration so a bad deck is rejected at the API
//! boundary, not inside a deadline-scheduled batch.

use prima_core::diagnostics::{Severity, VerifyReport};
use prima_pdk::Technology;
use prima_primitives::Library;

mod deck;
mod library;

// ---------------------------------------------------------------------------
// Stable rule identifiers. Tests and callers match on these exact strings;
// never rename one without migrating every fixture.

/// Deck has no metal layers at all.
pub(crate) const RULE_STACK_EMPTY: &str = "TECH.STACK.EMPTY";
/// Adjacent metal layers share a preferred routing direction (warning).
pub(crate) const RULE_STACK_DIR: &str = "TECH.STACK.DIR";
/// No horizontal/vertical routing-layer pair above M2 for the global router.
pub(crate) const RULE_ROUTE_PAIR: &str = "TECH.ROUTE.PAIR";
/// Duplicate drawn-layer name across the metal stack and FEOL rules.
pub(crate) const RULE_NAME_DUP: &str = "TECH.NAME.DUP";
/// Wire resistance increases going up the stack.
pub(crate) const RULE_MONO_R: &str = "TECH.MONO.R";
/// Wire capacitance decreases going up the stack (warning).
pub(crate) const RULE_MONO_C: &str = "TECH.MONO.C";
/// Via resistance increases going up the stack.
pub(crate) const RULE_MONO_VIA: &str = "TECH.MONO.VIA";
/// Non-positive or non-finite wire resistance/capacitance.
pub(crate) const RULE_METAL_RC: &str = "TECH.METAL.RC";
/// Metal min-width outside `(0, pitch]`.
pub(crate) const RULE_METAL_WIDTH: &str = "TECH.METAL.WIDTH";
/// Metal min-space non-positive, or width + space exceeds the track pitch.
pub(crate) const RULE_METAL_SPACE: &str = "TECH.METAL.SPACE";
/// Metal min-area non-positive or implausibly large for the min width.
pub(crate) const RULE_METAL_AREA: &str = "TECH.METAL.AREA";
/// Rule-deck section lengths disagree with the metal stack.
pub(crate) const RULE_RULES_COUNT: &str = "TECH.RULES.COUNT";
/// Rule-deck metal row named differently from its stack layer.
pub(crate) const RULE_RULES_NAME: &str = "TECH.RULES.NAME";
/// Via-resistance list shorter or longer than the stack's via levels.
pub(crate) const RULE_VIA_COUNT: &str = "TECH.VIA.COUNT";
/// Via cut plus enclosure does not fit in a min-width wire on both layers.
pub(crate) const RULE_VIA_FIT: &str = "TECH.VIA.FIT";
/// Non-positive or non-finite via resistance/capacitance.
pub(crate) const RULE_VIA_R: &str = "TECH.VIA.R";
/// A dimensional rule is not a multiple of the manufacturing grid.
pub(crate) const RULE_GRID_DIV: &str = "TECH.GRID.DIV";
/// Wire electromigration limit non-positive or non-finite.
pub(crate) const RULE_EM_WIRE: &str = "TECH.EM.WIRE";
/// Via EM table length disagrees with the via stack, or an entry is bad.
pub(crate) const RULE_EM_VIA: &str = "TECH.EM.VIA";
/// IR-drop budget fraction outside `(0, 0.5]`.
pub(crate) const RULE_IR_BUDGET: &str = "TECH.IR.BUDGET";
/// Supply voltage non-finite or outside the plausible `[0.2, 5.5]` V band.
pub(crate) const RULE_SUPPLY: &str = "TECH.SUPPLY";
/// Well-tap distance or symmetry tolerance out of range.
pub(crate) const RULE_TAP_RANGE: &str = "TECH.TAP.RANGE";
/// Fin/poly grid geometry inconsistent (zero pitches, gate > poly pitch …).
pub(crate) const RULE_FIN_GEOM: &str = "TECH.FIN.GEOM";
/// LDE coefficient non-finite or outside its physical range.
pub(crate) const RULE_LDE_RANGE: &str = "TECH.LDE.RANGE";
/// Variation (mismatch) parameter non-positive or outside its range.
pub(crate) const RULE_VAR_RANGE: &str = "TECH.VAR.RANGE";
/// A non-empty corner table lacks an identity `tt` corner (or its `tt` is
/// not the identity).
pub(crate) const RULE_CORNER_TT: &str = "TECH.CORNER.TT";
/// Two corners in the table share a name.
pub(crate) const RULE_CORNER_DUP: &str = "TECH.CORNER.DUP";
/// A corner perturbs outside the deck's declared bounds (or a bound /
/// perturbation is non-finite).
pub(crate) const RULE_CORNER_RANGE: &str = "TECH.CORNER.RANGE";
/// GDS layer-map unit sizes non-positive or non-finite.
pub(crate) const RULE_GDS_UNITS: &str = "TECH.GDS.UNITS";
/// A drawn/routable stack layer lacks a GDS layer-map entry; stream-out
/// of any design touching it would fail.
pub(crate) const RULE_GDS_COVERAGE: &str = "TECH.GDS.COVERAGE";
/// Two layer-map entries collide — a duplicated stack-layer name or a
/// shared GDS (layer, datatype) pair.
pub(crate) const RULE_GDS_DUP: &str = "TECH.GDS.DUP";

/// Deck lacks the routing layers / placement grids the cell generator needs.
pub(crate) const RULE_LIB_PINS: &str = "LIB.PINS";
/// Primitive port or tuning terminal references a net its spec never uses.
pub(crate) const RULE_LIB_PORTS: &str = "LIB.PORTS";
/// A `std_config_space` point provably renders geometry that breaks a rule.
pub(crate) const RULE_LIB_FIT: &str = "LIB.FIT";
/// Rendered corner configuration fails the deck's own DRC.
pub(crate) const RULE_LIB_DRC: &str = "LIB.DRC";

/// The full lint: deck self-consistency plus library feasibility in one
/// report.
///
/// When the deck family itself has error-severity findings, the library
/// pass is skipped (and left out of `checks_run`): feasibility on a
/// self-inconsistent deck would only restate the deck defect as cascaded
/// `LIB.*` noise, burying the root-cause `TECH.*` id.
pub(crate) fn check_deck(tech: &Technology, lib: &Library) -> VerifyReport {
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

/// The deck family alone (`TECH.*` rules only).
#[cfg(test)]
pub(crate) fn check_tech(tech: &Technology) -> VerifyReport {
    let mut report = VerifyReport {
        circuit: tech.name.clone(),
        ..VerifyReport::default()
    };
    report.absorb("techlint.deck", deck::lint_deck(tech));
    report.finalize();
    report
}

/// The library family alone (`LIB.*` rules only), even on a broken deck.
#[cfg(test)]
pub(crate) fn check_library(tech: &Technology, lib: &Library) -> VerifyReport {
    let mut report = VerifyReport {
        circuit: tech.name.clone(),
        ..VerifyReport::default()
    };
    report.absorb("techlint.library", library::lint_library(tech, lib));
    report.finalize();
    report
}
