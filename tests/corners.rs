//! Acceptance tests for PVT corner sweeps and seeded Monte-Carlo
//! mismatch as first-class flow scenarios.
//!
//! The contract under test: all four benchmark circuits complete the
//! optimized flow with a five-corner set enabled on finfet7 and sky130ish
//! with every gate clean and worst-case margins reported; a seeded
//! corner-killer fixture resolves `Degraded` (not `Err`) with an exact
//! `CORNER.*` id; warm corner sweeps hit the evaluation cache; zero-corner
//! runs are bit-identical to the plain flow; the mismatch sampler is
//! bit-identical under shuffled instance insertion order; and
//! corner-perturbed technology fingerprints never collide.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use prima_core::Health;
use prima_flow::circuits::{CircuitSpec, CsAmp, FiveTOta, RoVco, StrongArm};
use prima_flow::{
    instance_fingerprint, optimized_flow, optimized_flow_with, CachePolicy, CornerOptions,
    CornerPolicy, FlowError, FlowOptions, FlowOutcome, MismatchSampler, VerifyPolicy, MC_SEED,
};
use prima_pdk::{CornerBounds, CornerSpec, Technology};
use prima_primitives::{Bias, Library};
use proptest::prelude::*;

const SEED: u64 = 11;
const FIVE: [&str; 5] = ["tt", "ss", "ff", "sf", "fs"];

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

/// A five-corner sweep (no Monte-Carlo) with verification gates on.
fn sweep_options(mc_samples: u32) -> FlowOptions {
    FlowOptions {
        verify: VerifyPolicy::On,
        corners: CornerPolicy::Sweep(CornerOptions {
            corners: Some(FIVE.iter().map(|s| s.to_string()).collect()),
            mc_samples,
            ..CornerOptions::default()
        }),
        ..FlowOptions::default()
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("prima-corners-{}-{tag}.bin", std::process::id()))
}

// ---------------------------------------------------------------------------
// Five-corner sweeps complete cleanly on both technologies
// ---------------------------------------------------------------------------

fn assert_clean_sweep(tech: &Technology, mc_samples: u32) {
    let lib = Library::standard();
    for (name, spec, biases) in benchmark_circuits(tech, &lib) {
        let out = optimized_flow_with(tech, &lib, &spec, &biases, SEED, sweep_options(mc_samples))
            .unwrap_or_else(|e| panic!("{}/{name}: corner sweep failed: {e}", tech.name));
        let corners = out
            .corners
            .as_ref()
            .unwrap_or_else(|| panic!("{}/{name}: no corner report", tech.name));
        // Every corner gate must end up clean. In-budget candidate
        // fallbacks are documented degradations (matching the nominal
        // gate-repair convention), but nothing may exhaust its budget.
        assert!(
            corners.diagnostics.is_empty(),
            "{}/{name}: corner diagnostics: {:#?}",
            tech.name,
            corners.diagnostics
        );
        if corners.fallbacks == 0 {
            assert_eq!(
                out.resilience.health,
                Health::Clean,
                "{}/{name}: degraded without a fallback: {:?}",
                tech.name,
                out.resilience.degradations
            );
        } else {
            assert!(
                out.resilience
                    .degradations
                    .iter()
                    .all(|d| d.stage == "corners"),
                "{}/{name}: non-corner degradation: {:?}",
                tech.name,
                out.resilience.degradations
            );
        }
        assert_eq!(corners.corners, FIVE, "{}/{name}", tech.name);
        assert!(
            corners.all_pass(),
            "{}/{name}: corner failures: {:#?}",
            tech.name,
            corners.instances
        );
        assert!(!corners.instances.is_empty(), "{}/{name}", tech.name);
        for inst in &corners.instances {
            assert_eq!(
                inst.measures.len(),
                FIVE.len(),
                "{}: {}",
                name,
                inst.instance
            );
            assert!(
                inst.worst_margin.is_finite() && inst.worst_margin >= 0.0,
                "{}/{name}/{}: worst margin {} at {:?}",
                tech.name,
                inst.instance,
                inst.worst_margin,
                inst.worst_corner
            );
            assert!(!inst.worst_corner.is_empty());
        }
        assert!(corners.worst_margin.is_finite() && corners.worst_margin >= 0.0);
        assert!(
            corners.sims > 0,
            "{}/{name}: corner sims not counted",
            tech.name
        );
        assert_eq!(out.sims.get("corners"), Some(&corners.sims));
        if mc_samples > 0 {
            let mc = corners.mc.expect("yield estimate");
            assert_eq!(mc.samples, mc_samples);
            assert!(mc.passed <= mc.samples);
            assert!(mc.yield_fraction() >= 0.0 && mc.yield_fraction() <= 1.0);
        } else {
            assert!(corners.mc.is_none());
        }
    }
}

#[test]
fn five_corner_sweep_is_clean_on_finfet7_with_yield() {
    assert_clean_sweep(&Technology::finfet7(), 4);
}

#[test]
fn five_corner_sweep_is_clean_on_sky130ish() {
    assert_clean_sweep(&Technology::sky130ish(), 0);
}

// ---------------------------------------------------------------------------
// Corner-killer fixture: Degraded, never Err
// ---------------------------------------------------------------------------

/// A deck whose declared bounds admit a supply-collapse corner. With a
/// corner-repair budget of 2 every candidate tried fails it, the budget
/// exhausts, and the flow must resolve `Degraded` with the exact
/// `CORNER.EXHAUSTED` id — not an error. The fixture relies on that
/// budget: at the default of 4 the repair reaches a candidate that passes.
fn killer_tech() -> Technology {
    let mut tech = Technology::finfet7();
    tech.corners.bounds = CornerBounds {
        vdd_scale: (0.05, 1.15),
        ..tech.corners.bounds.clone()
    };
    tech.corners.corners.push(CornerSpec {
        name: "vdd_collapse".to_string(),
        vdd_scale: 0.15,
        ..CornerSpec::tt()
    });
    tech
}

#[test]
fn corner_killer_degrades_with_exact_id() {
    let tech = killer_tech();
    let lib = Library::standard();
    let biases = CsAmp::biases(&tech, &lib).unwrap();
    let options = FlowOptions {
        verify: VerifyPolicy::On,
        corners: CornerPolicy::Sweep(CornerOptions {
            corners: Some(vec!["vdd_collapse".to_string()]),
            repair_attempts: 2,
            mc_samples: 0,
        }),
        ..FlowOptions::default()
    };
    let out = optimized_flow_with(&tech, &lib, &CsAmp::spec(), &biases, SEED, options)
        .expect("corner killer must degrade, not error");
    assert_eq!(out.resilience.health, Health::Degraded);
    let corners = out.corners.expect("corner report");
    assert!(
        corners
            .diagnostics
            .iter()
            .any(|v| v.rule_id == "CORNER.EXHAUSTED"),
        "expected CORNER.EXHAUSTED, got {:#?}",
        corners.diagnostics
    );
    assert!(
        out.resilience
            .degradations
            .iter()
            .any(|d| d.stage == "corners"),
        "corner degradation not mirrored into resilience: {:#?}",
        out.resilience.degradations
    );
    // The failing corner is reported with a non-passing measure.
    assert!(!corners.all_pass());
}

/// Asking for a corner the deck does not declare degrades with
/// `CORNER.UNKNOWN` and sweeps the rest.
#[test]
fn unknown_corner_name_degrades_and_continues() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let biases = CsAmp::biases(&tech, &lib).unwrap();
    let options = FlowOptions {
        corners: CornerPolicy::Sweep(CornerOptions {
            corners: Some(vec!["tt".to_string(), "zz_bogus".to_string()]),
            mc_samples: 0,
            ..CornerOptions::default()
        }),
        ..FlowOptions::default()
    };
    let out = optimized_flow_with(&tech, &lib, &CsAmp::spec(), &biases, SEED, options).unwrap();
    let corners = out.corners.expect("corner report");
    assert_eq!(corners.corners, vec!["tt".to_string()]);
    assert!(corners
        .diagnostics
        .iter()
        .any(|v| v.rule_id == "CORNER.UNKNOWN"));
    assert_eq!(out.resilience.health, Health::Degraded);
}

// ---------------------------------------------------------------------------
// Cache behavior: warm corner sweeps hit; nominal entries never aliased
// ---------------------------------------------------------------------------

#[test]
fn warm_corner_sweep_hits_cache_and_replays_report() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let biases = CsAmp::biases(&tech, &lib).unwrap();
    let path = temp_path("warm");
    let _ = fs::remove_file(&path);
    let options = || FlowOptions {
        cache: CachePolicy::Persistent(path.clone()),
        ..sweep_options(2)
    };
    let cold = optimized_flow_with(&tech, &lib, &CsAmp::spec(), &biases, SEED, options()).unwrap();
    let warm = optimized_flow_with(&tech, &lib, &CsAmp::spec(), &biases, SEED, options()).unwrap();
    let _ = fs::remove_file(&path);

    let stats = warm.cache.expect("warm cache stats");
    assert!(
        stats.hit_rate() >= 0.9,
        "warm corner sweep hit rate {:.3} < 0.9 ({} hits / {} misses)",
        stats.hit_rate(),
        stats.hits,
        stats.misses
    );
    // The warm sweep replays the cold one's corner verdicts bit for bit
    // (sim counts legitimately differ: the warm run hits the cache).
    let (c, w) = (cold.corners.expect("cold"), warm.corners.expect("warm"));
    let strip_sims = |mut r: prima_flow::CornerReport| {
        r.sims = 0;
        r
    };
    assert_eq!(
        strip_sims(c.clone()),
        strip_sims(w.clone()),
        "corner report not replayed from cache"
    );
    // Corner evaluations hit the cache, so the warm run re-simulates
    // (almost) nothing in the corner phase.
    assert!(
        w.sims * 10 <= c.sims.max(1),
        "warm corner sims {} vs cold {}",
        w.sims,
        c.sims
    );
}

#[test]
fn corner_runs_leave_nominal_results_unchanged() {
    // A sweep must not perturb the nominal selection when every corner
    // passes: physical results match the plain flow bit for bit.
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let biases = CsAmp::biases(&tech, &lib).unwrap();
    let plain = optimized_flow(&tech, &lib, &CsAmp::spec(), &biases, SEED).unwrap();
    let swept =
        optimized_flow_with(&tech, &lib, &CsAmp::spec(), &biases, SEED, sweep_options(0)).unwrap();
    assert_bit_identical("cs_amp", "swept vs plain", &swept, &plain);
}

// ---------------------------------------------------------------------------
// Zero-cost opt-out: CornerPolicy::Off is bit-identical to the plain flow
// ---------------------------------------------------------------------------

/// Bit-level equality of everything physical in a `FlowOutcome`.
fn assert_bit_identical(name: &str, what: &str, a: &FlowOutcome, b: &FlowOutcome) {
    assert_eq!(
        a.area_um2.to_bits(),
        b.area_um2.to_bits(),
        "{name}: {what}: area differs"
    );
    assert_eq!(
        a.wirelength_um.to_bits(),
        b.wirelength_um.to_bits(),
        "{name}: {what}: wirelength differs"
    );
    assert_eq!(
        a.detailed, b.detailed,
        "{name}: {what}: detailed routing differs"
    );
    assert_eq!(
        a.realization.layouts, b.realization.layouts,
        "{name}: {what}: layouts differ"
    );
    assert_eq!(
        a.realization.net_wires, b.realization.net_wires,
        "{name}: {what}: net wires differ"
    );
}

#[test]
fn corner_policy_off_is_bit_identical_to_plain_flow_on_all_circuits() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    for (name, spec, biases) in benchmark_circuits(&tech, &lib) {
        let plain = optimized_flow(&tech, &lib, &spec, &biases, SEED)
            .unwrap_or_else(|e| panic!("{name}: plain flow failed: {e}"));
        let off = optimized_flow_with(
            &tech,
            &lib,
            &spec,
            &biases,
            SEED,
            FlowOptions {
                corners: CornerPolicy::Off,
                ..FlowOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{name}: off-policy flow failed: {e}"));
        assert_bit_identical(name, "off vs plain", &off, &plain);
        assert!(off.corners.is_none(), "{name}: report without a sweep");
        assert_eq!(off.sims, plain.sims, "{name}: sims differ");
        assert_eq!(off.sims.get("corners"), Some(&0));
    }
}

// ---------------------------------------------------------------------------
// Determinism: seeded yield replays; deadlines cancel corner loops
// ---------------------------------------------------------------------------

#[test]
fn seeded_yield_replays_exactly() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let biases = CsAmp::biases(&tech, &lib).unwrap();
    let run = || {
        optimized_flow_with(&tech, &lib, &CsAmp::spec(), &biases, SEED, sweep_options(3))
            .unwrap()
            .corners
            .expect("corner report")
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed, different variation report");
    assert_eq!(a.mc.expect("yield").seed, MC_SEED);
}

#[test]
fn expired_deadline_cancels_a_corner_sweep() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let biases = CsAmp::biases(&tech, &lib).unwrap();
    let options = FlowOptions {
        deadline: Some(Duration::from_millis(1)),
        ..sweep_options(4)
    };
    match optimized_flow_with(&tech, &lib, &CsAmp::spec(), &biases, SEED, options) {
        Err(FlowError::Cancelled(_)) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Fingerprint-aliasing regression guard
// ---------------------------------------------------------------------------

/// Corner-perturbed decks must produce technology fingerprints distinct
/// from nominal and from each other, across the full table on all three
/// technologies (`tt` is the intentional identity and is excluded).
#[test]
fn corner_fingerprints_never_collide() {
    use prima_cache::Fingerprintable;
    let mut seen = Vec::new();
    for tech in [
        Technology::finfet7(),
        Technology::bulk16(),
        Technology::sky130ish(),
    ] {
        seen.push((format!("{}/nominal", tech.name), tech.fingerprint()));
        for c in &tech.corners.corners {
            if c.is_identity() {
                // tt == nominal by design: warm sweeps reuse nominal
                // entries for the tt point.
                assert_eq!(
                    tech.apply_corner(c).fingerprint(),
                    tech.fingerprint(),
                    "{}: tt must alias nominal",
                    tech.name
                );
                continue;
            }
            seen.push((
                format!("{}/{}", tech.name, c.name),
                tech.apply_corner(c).fingerprint(),
            ));
        }
    }
    for (i, (name_a, fp_a)) in seen.iter().enumerate() {
        for (name_b, fp_b) in &seen[i + 1..] {
            assert_ne!(fp_a, fp_b, "fingerprint collision: {name_a} vs {name_b}");
        }
    }
}

// ---------------------------------------------------------------------------
// Monte-Carlo sampler: order invariance (proptest)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For a fixed seed, the draws an instance receives are bit-identical
    /// no matter what order instances are inserted or sampled in.
    #[test]
    fn mc_draws_are_order_invariant(
        seed in any::<u64>(),
        perm_seed in any::<u64>(),
        samples in 1u32..4,
    ) {
        // Fisher–Yates permutation of the instance visit order, driven by
        // a drawn seed (the vendored proptest has no shuffle strategy).
        let mut order: Vec<usize> = (0..8).collect();
        let mut state = perm_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let sampler = MismatchSampler::new(seed);
        let instances: Vec<_> = (0..8)
            .map(|i| (format!("m{i}"), instance_fingerprint(&format!("m{i}"), "dp", 960)))
            .collect();
        // Reference pass: natural order.
        let mut reference = HashMap::new();
        for (name, fp) in &instances {
            for s in 0..samples {
                reference.insert((name.clone(), s), sampler.draw(*fp, s));
            }
        }
        // Shuffled pass: same draws, bit for bit.
        for &i in &order {
            let (name, fp) = &instances[i];
            for s in (0..samples).rev() {
                let d = sampler.draw(*fp, s);
                let r = reference[&(name.clone(), s)];
                prop_assert_eq!(d.z_vth.to_bits(), r.z_vth.to_bits());
                prop_assert_eq!(d.z_mobility.to_bits(), r.z_mobility.to_bits());
            }
        }
    }
}
