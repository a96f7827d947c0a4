//! Evaluation-cache integration tests: the determinism suite required by
//! the cache subsystem. A warm persistent cache must reproduce the cold
//! run's `FlowOutcome` bit for bit on all four benchmark circuits while
//! performing ≥90% fewer candidate evaluations; editing one primitive's
//! spec must re-evaluate only the dirtied candidates; a corrupted cache
//! file must degrade to a cold start with a `CACHE.CORRUPT` diagnostic,
//! never an error; and `EvalKey` serialization must round-trip and be
//! stable across a store save/load cycle.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use prima_cache::{CacheStats, EvalCache, EvalKey, Fingerprint, KEY_BYTES};
use prima_core::Severity;
use prima_flow::circuits::{CircuitSpec, CsAmp, FiveTOta, RoVco, StrongArm};
use prima_flow::{
    optimized_flow, optimized_flow_with, CachePolicy, FlowOptions, FlowOutcome, VerifyPolicy,
};
use prima_pdk::Technology;
use prima_primitives::{Bias, Library};
use proptest::prelude::*;

const SEED: u64 = 11;

static TEMP_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A unique, collision-free scratch path for one test's cache file.
fn temp_path(tag: &str) -> PathBuf {
    let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "prima-cache-it-{}-{tag}-{n}.bin",
        std::process::id()
    ))
}

fn cached(path: &std::path::Path) -> FlowOptions {
    FlowOptions {
        verify: VerifyPolicy::On,
        cache: CachePolicy::Persistent(path.to_path_buf()),
        ..FlowOptions::default()
    }
}

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

fn total_sims(outcome: &FlowOutcome) -> usize {
    outcome.sims.values().sum()
}

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

/// The acceptance scenario: on every benchmark circuit, a warm persistent
/// cache reproduces both the uncached and the cold-cached outcome bit for
/// bit, while re-running ≥90% fewer candidate evaluations (measured both
/// as cache misses and as testbench simulation counts).
#[test]
fn warm_cache_is_bit_identical_and_skips_reevaluation_on_all_circuits() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    for (name, spec, biases) in benchmark_circuits(&tech, &lib) {
        let path = temp_path(name);

        let plain = optimized_flow(&tech, &lib, &spec, &biases, SEED)
            .unwrap_or_else(|e| panic!("{name}: uncached flow failed: {e}"));
        assert!(plain.cache.is_none(), "{name}: cache stats with cache off");

        let cold = optimized_flow_with(&tech, &lib, &spec, &biases, SEED, cached(&path))
            .unwrap_or_else(|e| panic!("{name}: cold cached flow failed: {e}"));
        let warm = optimized_flow_with(&tech, &lib, &spec, &biases, SEED, cached(&path))
            .unwrap_or_else(|e| panic!("{name}: warm cached flow failed: {e}"));
        let _ = fs::remove_file(&path);

        // Caching must be an invisible accelerator: same layouts to the bit.
        assert_bit_identical(name, "cold vs uncached", &cold, &plain);
        assert_bit_identical(name, "warm vs cold", &warm, &cold);

        let cold_stats: CacheStats = cold.cache.expect("cold stats");
        let warm_stats: CacheStats = warm.cache.expect("warm stats");
        assert!(cold_stats.misses > 0, "{name}: cold run recorded no misses");
        assert!(
            cold.cache_diagnostics.is_empty(),
            "{name}: cold run raised cache diagnostics: {:?}",
            cold.cache_diagnostics
        );
        assert!(
            warm.cache_diagnostics.is_empty(),
            "{name}: warm run raised cache diagnostics: {:?}",
            warm.cache_diagnostics
        );

        // ≥90% fewer evaluations, by both meters.
        assert!(
            warm_stats.misses * 10 <= cold_stats.misses,
            "{name}: warm misses {} vs cold {} (<90% reduction)",
            warm_stats.misses,
            cold_stats.misses
        );
        assert!(
            warm_stats.hit_rate() >= 0.9,
            "{name}: warm hit rate {:.3} below 0.9",
            warm_stats.hit_rate()
        );
        let (cold_sims, warm_sims) = (total_sims(&cold), total_sims(&warm));
        assert!(
            warm_sims * 10 <= cold_sims,
            "{name}: warm ran {warm_sims} sims vs cold {cold_sims} (<90% reduction)"
        );
    }
}

/// Incremental mode: editing one primitive's spec dirties only that
/// primitive's candidates. The warm run after the edit re-evaluates
/// something (the dirtied def) but far from everything (the untouched
/// defs keep hitting).
#[test]
fn editing_one_primitive_reevaluates_only_dirtied_candidates() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let path = temp_path("incremental");
    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&tech, &lib).unwrap();

    let cold =
        optimized_flow_with(&tech, &lib, &spec, &biases, SEED, cached(&path)).expect("cold flow");
    let cold_stats = cold.cache.expect("cold stats");

    // Edit the current-source load's spec: bump one metric weight. Content
    // addressing makes every evaluation of this def miss while the
    // amplifier def's evaluations keep hitting.
    let mut edited = Library::standard();
    let mut def = edited
        .get("csrc_pmos")
        .expect("csrc_pmos in library")
        .clone();
    assert!(!def.metrics.is_empty());
    def.metrics[0].weight *= 2.0;
    edited.upsert(def);

    let warm = optimized_flow_with(&tech, &edited, &spec, &biases, SEED, cached(&path))
        .expect("incremental flow");
    let _ = fs::remove_file(&path);
    let warm_stats = warm.cache.expect("warm stats");

    assert!(
        warm_stats.misses > 0,
        "edited primitive produced no re-evaluations"
    );
    assert!(
        warm_stats.hits > 0,
        "untouched primitives should still hit the cache"
    );
    assert!(
        warm_stats.misses < cold_stats.misses,
        "incremental run re-evaluated everything: {} vs cold {}",
        warm_stats.misses,
        cold_stats.misses
    );
}

/// Satellite: a bit-flipped cache file degrades to a (partial) cold start
/// with a `Severity::Degraded` `CACHE.CORRUPT` diagnostic — never an
/// error, never a panic — and the outcome is still bit-identical.
#[test]
fn corrupt_cache_file_degrades_to_cold_start_with_diagnostic() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let path = temp_path("corrupt");
    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&tech, &lib).unwrap();

    let cold =
        optimized_flow_with(&tech, &lib, &spec, &biases, SEED, cached(&path)).expect("cold flow");

    // Flip one bit in the record region (past the 36-byte header): the
    // per-record checksum catches it and the loader drops the tail.
    let mut bytes = fs::read(&path).expect("cache file written");
    assert!(bytes.len() > 64, "cache file suspiciously small");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).expect("rewrite corrupted file");

    let warm = optimized_flow_with(&tech, &lib, &spec, &biases, SEED, cached(&path))
        .expect("flow over corrupt cache must still complete");
    let _ = fs::remove_file(&path);

    assert_bit_identical("cs_amp", "warm-over-corrupt vs cold", &warm, &cold);

    let corrupt: Vec<_> = warm
        .cache_diagnostics
        .iter()
        .filter(|v| v.rule_id == "CACHE.CORRUPT")
        .collect();
    assert!(
        !corrupt.is_empty(),
        "no CACHE.CORRUPT diagnostic; got {:?}",
        warm.cache_diagnostics
    );
    assert!(
        corrupt.iter().all(|v| v.severity == Severity::Degraded),
        "cache corruption must be Degraded, not Error"
    );
    let stats = warm.cache.expect("warm stats");
    assert!(
        stats.corrupt_records > 0,
        "corrupt record counter not bumped"
    );
    // Degradations are also visible on the resilience report.
    assert!(
        warm.resilience
            .degradations
            .iter()
            .any(|d| d.stage == "cache"),
        "cache incident missing from resilience report"
    );
}

fn key_from(lanes: &[u64; 10], version: u32) -> EvalKey {
    EvalKey {
        tech: Fingerprint(lanes[0], lanes[1]),
        def: Fingerprint(lanes[2], lanes[3]),
        view: Fingerprint(lanes[4], lanes[5]),
        bias: Fingerprint(lanes[6], lanes[7]),
        wires: Fingerprint(lanes[8], lanes[9]),
        testbench_version: version,
    }
}

proptest! {
    /// `EvalKey` serialization round-trips for arbitrary fingerprints.
    #[test]
    fn eval_key_serialization_round_trips(
        lanes in proptest::collection::vec(any::<u64>(), 10),
        version in any::<u32>(),
    ) {
        let mut arr = [0u64; 10];
        arr.copy_from_slice(&lanes);
        let key = key_from(&arr, version);
        let bytes = key.to_bytes();
        prop_assert_eq!(bytes.len(), KEY_BYTES);
        prop_assert_eq!(EvalKey::from_bytes(&bytes), key);
    }

    /// Stored entries survive a save/load cycle: after reopening the
    /// store from disk, every key resolves to bit-identical metric values.
    #[test]
    fn store_entries_survive_save_and_load(
        seeds in proptest::collection::vec(any::<u64>(), 1..6),
        values in proptest::collection::vec(any::<f64>(), 1..5),
    ) {
        let path = temp_path("prop");
        let tech_fp = Fingerprint(0xfeed, 0xbeef);
        let policy = CachePolicy::Persistent(path.clone());

        let mut expected: Vec<(EvalKey, HashMap<String, f64>)> = Vec::new();
        {
            let cache = EvalCache::open(policy.clone(), tech_fp, 1);
            for (i, &seed) in seeds.iter().enumerate() {
                let lanes = [
                    seed, seed ^ 1, seed ^ 2, seed ^ 3, seed ^ 4,
                    seed ^ 5, seed ^ 6, seed ^ 7, seed ^ 8, seed ^ 9,
                ];
                let key = key_from(&lanes, i as u32);
                let vals: HashMap<String, f64> = values
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| (format!("m{j}"), v + i as f64))
                    .collect();
                cache.store(key, &vals);
                expected.push((key, vals));
            }
            prop_assert!(cache.save().is_ok());
        }

        let reopened = EvalCache::open(policy, tech_fp, 1);
        prop_assert!(reopened.events().is_empty(), "clean reload raised events");
        for (key, vals) in &expected {
            let got = reopened.lookup(key);
            prop_assert!(got.is_some(), "key lost across save/load");
            let got = got.unwrap();
            prop_assert_eq!(got.len(), vals.len());
            for (name, v) in vals {
                prop_assert_eq!(got[name].to_bits(), v.to_bits());
            }
        }
        let _ = fs::remove_file(&path);
    }
}
