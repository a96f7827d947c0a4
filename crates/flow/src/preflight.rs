//! The schematic preflight: the flow's first gate, run before the
//! optimizer is even constructed.
//!
//! A malformed circuit request — a typo'd net, an unknown primitive, a
//! sizing with no legal factorization, a bias outside the technology's
//! ranges — previously surfaced seconds into a cold run (or, for an empty
//! configuration space, not at all: the instance silently degraded to an
//! ideal device). [`schem_preflight`] expands the request into
//! [`crate::schem`]'s device-level connectivity graph and runs the full
//! `SCHEM.*` lint suite in microseconds, so the flows can reject it with
//! exact rule ids before any layout is generated or testbench simulated.
//!
//! Before even that, [`techlint_preflight`] lints the *deck itself*
//! (`TECH.*`/`LIB.*` rules): a technology whose rule tables drifted from
//! its metal stack, or on which some library primitive can never render
//! DRC-clean, is rejected once per flow instead of panicking inside a
//! router three stages later. The full gate order is
//! techlint → schem → layout → verify → erc.

use prima_core::diagnostics::VerifyReport;
use prima_pdk::Technology;
use prima_primitives::Library;

pub use crate::schem::schem_preflight;

/// Runs the static technology/library analyzer (the crate's private
/// `techlint` module) — the true zeroth gate, before the schematic
/// preflight, and the analyzer's one public entry. Purely data-driven (deck self-consistency plus a
/// feasibility proof for every library primitive on this deck); it
/// performs zero simulations, and `report -- techlint` measures about
/// 1.8 ms per deck on a 2-vCPU host.
///
/// When the deck itself has error-severity findings, the library half is
/// skipped (and left out of `checks_run`), so the root-cause `TECH.*` id
/// is not buried under cascaded `LIB.*` findings.
///
/// # Example
///
/// ```
/// use prima_flow::techlint_preflight;
/// use prima_pdk::Technology;
/// use prima_primitives::Library;
///
/// // Both bundled nodes and the SKY130-flavored fixture lint clean.
/// let lib = Library::standard();
/// for tech in [Technology::finfet7(), Technology::bulk16(), Technology::sky130ish()] {
///     let report = techlint_preflight(&tech, &lib);
///     assert!(report.is_passing(), "{}: {report:?}", tech.name);
/// }
///
/// // A truncated EM table is caught with a stable rule id.
/// let mut broken = Technology::finfet7();
/// broken.electrical.em_ma_per_cut.pop();
/// assert!(techlint_preflight(&broken, &lib).has_rule("TECH.EM.VIA"));
/// ```
pub fn techlint_preflight(tech: &Technology, lib: &Library) -> VerifyReport {
    crate::techlint::check_deck(tech, lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{CsAmp, FiveTOta, RoVco, StrongArm};

    #[test]
    fn bundled_decks_pass_techlint_preflight() {
        let lib = Library::standard();
        for tech in [
            Technology::finfet7(),
            Technology::bulk16(),
            Technology::sky130ish(),
        ] {
            let report = techlint_preflight(&tech, &lib);
            assert!(
                report.is_passing(),
                "{}: {:?}",
                tech.name,
                report.violations
            );
        }
    }

    #[test]
    fn broken_deck_fails_techlint_preflight() {
        let mut tech = Technology::finfet7();
        tech.electrical.em_ma_per_cut.truncate(2);
        let report = techlint_preflight(&tech, &Library::standard());
        assert!(report.has_rule("TECH.EM.VIA"));
        assert!(!report.is_passing());
    }

    #[test]
    fn all_benchmark_circuits_preflight_clean() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let vco = RoVco::small();
        for (spec, biases) in [
            (CsAmp::spec(), CsAmp::biases(&tech, &lib).unwrap()),
            (FiveTOta::spec(), FiveTOta::biases(&tech, &lib).unwrap()),
            (StrongArm::spec(), StrongArm::biases(&tech, &lib).unwrap()),
            (vco.spec(), vco.biases(&tech, &lib).unwrap()),
        ] {
            let report = schem_preflight(&tech, &lib, &spec, Some(&biases));
            assert!(
                report.violations.is_empty(),
                "{} expected clean, got {:?}",
                spec.name,
                report.violations
            );
        }
    }
}
