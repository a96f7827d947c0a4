//! Resilience integration tests: the optimized flow must survive injected
//! faults — failed candidate evaluations, candidate panics, and forced
//! detail-routing failures — completing every benchmark circuit with
//! passing gates and an honest [`ResilienceReport`], while a zero-fault
//! plan reproduces the plain flow bit for bit.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use prima_core::{EvalLedger, RepairCursor};
use prima_flow::circuits::{CircuitSpec, CsAmp, FiveTOta, RoVco, StrongArm};
use prima_flow::{optimized_flow, optimized_flow_resilient, FaultPlan, FlowOptions, Health};
use prima_pdk::Technology;
use prima_primitives::{Bias, Library};
use proptest::prelude::*;

const SEED: u64 = 11;

fn benchmark_circuits(
    tech: &Technology,
    lib: &Library,
) -> Vec<(&'static str, CircuitSpec, HashMap<String, Bias>)> {
    let vco = RoVco::small();
    vec![
        ("cs_amp", CsAmp::spec(), CsAmp::biases(tech, lib).unwrap()),
        (
            "ota5t",
            FiveTOta::spec(),
            FiveTOta::biases(tech, lib).unwrap(),
        ),
        (
            "strongarm",
            StrongArm::spec(),
            StrongArm::biases(tech, lib).unwrap(),
        ),
        ("vco", vco.spec(), vco.biases(tech, lib).unwrap()),
    ]
}

/// The acceptance scenario: with ~30% of candidate evaluations failing and
/// one forced detail-route failure per circuit, all four benchmark
/// circuits still complete end-to-end with passing gates, and the
/// resilience report enumerates what was absorbed.
#[test]
fn faulted_flows_complete_with_clean_gates_on_all_four_circuits() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    for (name, spec, biases) in benchmark_circuits(&tech, &lib) {
        // Discover a net the detail router actually routes, so the forced
        // failure is guaranteed to be hit (and retried).
        let base = optimized_flow(&tech, &lib, &spec, &biases, SEED)
            .unwrap_or_else(|e| panic!("{name}: baseline flow failed: {e}"));
        let routed_net = base
            .detailed
            .assignments
            .first()
            .map(|a| a.net.clone())
            .unwrap_or_else(|| panic!("{name}: baseline routed nothing"));

        let plan = FaultPlan::new(23)
            .with_eval_fail_rate(0.30)
            .with_route_fault(&routed_net, 1);
        let outcome = optimized_flow_resilient(
            &tech,
            &lib,
            &spec,
            &biases,
            SEED,
            FlowOptions::default(),
            &plan,
        )
        .unwrap_or_else(|e| panic!("{name}: faulted flow failed: {e}"));

        let verify = outcome.verify.expect("gates are on by default");
        assert!(
            verify.is_passing(),
            "{name}: verify gate dirty under faults"
        );
        let erc = outcome.erc.expect("gates are on by default");
        assert!(erc.is_passing(), "{name}: erc gate dirty under faults");

        let r = &outcome.resilience;
        assert_eq!(r.health, Health::Degraded, "{name}: expected Degraded");
        assert!(r.candidates_lost > 0, "{name}: no candidates ledgered");
        assert!(
            r.route_retries >= 1,
            "{name}: forced route fault on {routed_net} was never retried"
        );
        assert!(
            r.degradations
                .iter()
                .any(|d| d.stage == "routing" && d.scope == routed_net),
            "{name}: routing degradation for {routed_net} not reported"
        );
    }
}

/// A candidate that panics mid-evaluation is isolated, ledgered as a
/// panic, and the flow still completes with passing gates.
#[test]
fn candidate_panic_is_isolated_and_ledgered() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&tech, &lib).unwrap();
    let plan = FaultPlan::new(5)
        .with_eval_panic("cs_amp", 0)
        .with_eval_panic("csrc_pmos", 1);
    let outcome = optimized_flow_resilient(
        &tech,
        &lib,
        &spec,
        &biases,
        SEED,
        FlowOptions::default(),
        &plan,
    )
    .expect("flow survives candidate panics");
    let r = &outcome.resilience;
    assert_eq!(r.health, Health::Degraded);
    assert!(r.candidate_panics >= 1, "panic not ledgered as a panic");
    assert!(r.candidates_lost >= r.candidate_panics);
    assert!(outcome.verify.expect("gate on").is_passing());
}

/// A zero-fault plan must be invisible: the resilient entry point produces
/// bit-identical output to the plain optimized flow and reports Clean.
#[test]
fn zero_fault_plan_is_bit_identical_to_the_plain_flow() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    for (name, spec, biases) in benchmark_circuits(&tech, &lib) {
        let plain = optimized_flow(&tech, &lib, &spec, &biases, SEED).unwrap();
        let plan = FaultPlan::none();
        assert!(plan.is_zero());
        let resilient = optimized_flow_resilient(
            &tech,
            &lib,
            &spec,
            &biases,
            SEED,
            FlowOptions::default(),
            &plan,
        )
        .unwrap();

        assert_eq!(
            plain.area_um2.to_bits(),
            resilient.area_um2.to_bits(),
            "{name}: area differs"
        );
        assert_eq!(
            plain.wirelength_um.to_bits(),
            resilient.wirelength_um.to_bits(),
            "{name}: wirelength differs"
        );
        assert_eq!(plain.detailed, resilient.detailed, "{name}: tracks differ");
        assert_eq!(
            plain.realization.layouts, resilient.realization.layouts,
            "{name}: layouts differ"
        );
        assert_eq!(
            plain.realization.net_wires, resilient.realization.net_wires,
            "{name}: net wires differ"
        );
        assert_eq!(resilient.resilience.health, Health::Clean, "{name}");
        assert!(resilient.resilience.is_clean(), "{name}");
    }
}

proptest! {
    /// The repair cursor terminates within the candidate count and never
    /// returns a rank the ledger has recorded as failed, for any failure
    /// pattern.
    #[test]
    fn repair_cursor_terminates_and_skips_failed(
        n in 1usize..12,
        failed_mask in proptest::collection::vec(any::<bool>(), 0..12),
        extra_calls in 0usize..4,
    ) {
        let candidates: Vec<(String, usize)> =
            (0..n).map(|i| ("dp".to_string(), i)).collect();
        let mut ledger = EvalLedger::new();
        for (i, &f) in failed_mask.iter().take(n).enumerate() {
            if f {
                ledger.record("dp", i, false, "injected".to_string());
            }
        }
        let mut cursor = RepairCursor::new(1);
        let mut seen = vec![cursor.current(0)];
        // At most n-1 demotions can succeed; after exhaustion every further
        // call must keep returning None (structural termination).
        for _ in 0..(n + extra_calls) {
            match cursor.demote(0, &candidates, &ledger) {
                Some(rank) => {
                    prop_assert!(rank < n);
                    prop_assert!(!ledger.is_failed("dp", rank),
                        "re-selected ledger-failed candidate {rank}");
                    prop_assert!(!seen.contains(&rank), "revisited rank {rank}");
                    prop_assert!(rank > *seen.last().unwrap(), "rank went backwards");
                    seen.push(rank);
                }
                None => {
                    // Pinned past the end: stays exhausted forever.
                    prop_assert!(cursor.demote(0, &candidates, &ledger).is_none());
                }
            }
        }
        prop_assert!(seen.len() <= n);
    }
}
