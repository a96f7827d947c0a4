//! Serving integration tests: the acceptance suite for the batch
//! evaluation service (prima-serve). Overload sheds by priority and never
//! queues without bound; deadline-expired requests return within 2× their
//! deadline; retries are classified by error kind (transient shapes retry,
//! deterministic static-gate rejections never do); a 100-request
//! mixed-tenant soak over a 4-worker pool loses zero responses; and
//! cancelling a flow at an arbitrary candidate boundary leaves a shared
//! evaluation cache consistent — a later uncancelled run is bit-identical
//! to a cold fresh-cache run.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prima_cache::{CancelToken, EvalCache, Fingerprintable};
use prima_core::{FaultPlan, ServeOutcome};
use prima_flow::circuits::{CircuitSpec, CsAmp, FiveTOta, RoVco};
use prima_flow::{
    optimized_flow_with, CachePolicy, FlowError, FlowOptions, FlowOutcome, VerifyPolicy,
};
use prima_pdk::Technology;
use prima_primitives::{Bias, Library, TESTBENCH_VERSION};
use prima_serve::{is_retryable, BatchServer, Priority, ServeConfig, ServeError, ServeRequest};
use proptest::prelude::*;

fn server(config: ServeConfig) -> BatchServer {
    BatchServer::try_new(Technology::finfet7(), Library::standard(), config).unwrap()
}

fn cs_amp(tenant: &str) -> ServeRequest {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    ServeRequest::new(tenant, CsAmp::spec(), CsAmp::biases(&tech, &lib).unwrap())
}

fn ota(tenant: &str) -> ServeRequest {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    ServeRequest::new(
        tenant,
        FiveTOta::spec(),
        FiveTOta::biases(&tech, &lib).unwrap(),
    )
}

/// Admission control: a full queue sheds strictly-lower-priority work
/// (which still gets a response) and refuses the rest — the queue never
/// grows past its bound.
#[test]
fn overload_sheds_by_priority_and_rejects_at_capacity() {
    let srv = server(ServeConfig {
        workers: 0, // the queue never drains: admission is deterministic
        queue_capacity: 3,
        ..ServeConfig::default()
    });
    let mut tickets = Vec::new();
    for _ in 0..3 {
        let mut req = cs_amp("tenant-low");
        req.priority = Priority::Low;
        tickets.push(srv.submit(req).unwrap());
    }
    // Queue full. Equal priority cannot preempt: rejected.
    let mut peer = cs_amp("tenant-low");
    peer.priority = Priority::Low;
    assert!(matches!(
        srv.submit(peer),
        Err(ServeError::Overloaded { capacity: 3 })
    ));
    // Higher priority preempts the oldest Low request.
    let mut vip = cs_amp("tenant-vip");
    vip.priority = Priority::High;
    let vip_ticket = srv.submit(vip).unwrap();
    let shed = tickets.remove(0).wait();
    assert_eq!(shed.outcome, ServeOutcome::Degraded);
    assert_eq!(shed.attempts, 0);
    assert!(
        shed.detail.contains("shed under overload"),
        "{}",
        shed.detail
    );

    let report = srv.finish();
    // Every submission resolved: 1 admission rejection, 1 shed, and the
    // rest flushed at shutdown (zero workers) — nothing lost.
    assert_eq!(report.total(), 5);
    assert_eq!(report.shed, 1);
    assert!(report.rejected >= 1);
    drop(vip_ticket);
}

/// A request that expires mid-service returns within twice its deadline —
/// cancellation checkpoints are dense enough that the worker notices the
/// expiry almost immediately. A cold RO-VCO on a fresh tenant simulates
/// for seconds, so the deadline trips inside the flow's own checkpoints.
#[test]
fn deadline_expiry_returns_within_twice_the_deadline() {
    let srv = server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let deadline = Duration::from_millis(120);
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let vco = RoVco::small();
    let mut req = ServeRequest::new("acme", vco.spec(), vco.biases(&tech, &lib).unwrap());
    req.deadline = Some(deadline);
    let submitted = Instant::now();
    let report = srv.submit(req).unwrap().wait();
    let elapsed = submitted.elapsed();
    assert_eq!(report.outcome, ServeOutcome::DeadlineExceeded);
    assert!(
        elapsed < deadline * 2,
        "expired request resolved after {elapsed:?} (deadline {deadline:?})"
    );
    drop(srv.finish());
}

/// Retry classification: transient fault shapes retry and then succeed;
/// deterministic static-gate rejections resolve on the first attempt.
#[test]
fn retries_are_classified_by_error_kind() {
    // The classifier itself.
    assert!(is_retryable(&FlowError::RepairExhausted {
        circuit: "c".into(),
        stage: "detail routing".into(),
        attempts: 3,
        last: "congested".into(),
    }));
    assert!(!is_retryable(&FlowError::Verify {
        circuit: "c".into(),
        violations: 2,
        first: "SCHEM.SIZE".into(),
    }));

    let srv = server(ServeConfig {
        workers: 2,
        verify: VerifyPolicy::On,
        ..ServeConfig::default()
    });
    // Transient: more route faults than one attempt's budget absorbs.
    let mut transient = cs_amp("acme");
    transient.plan = FaultPlan::none().with_route_fault("vout", 10);
    // Deterministic: a sizing no standard configuration realizes.
    let mut broken = cs_amp("acme");
    broken.circuit.instances[0].total_fins = 1;

    let t1 = srv.submit(transient).unwrap();
    let t2 = srv.submit(broken).unwrap();
    let transient_report = t1.wait();
    let broken_report = t2.wait();

    assert!(
        transient_report.has_result(),
        "transient failure must recover via retry: {:?} ({})",
        transient_report.outcome,
        transient_report.detail
    );
    assert_eq!(
        transient_report.attempts, 2,
        "one retry after the faulted attempt"
    );
    assert_eq!(broken_report.outcome, ServeOutcome::Failed);
    assert_eq!(
        broken_report.attempts, 1,
        "deterministic gate rejection must not retry"
    );
    let report = srv.finish();
    assert_eq!(report.retries, 1);
}

/// The acceptance soak: 100 mixed-tenant requests over a 4-worker pool.
/// Zero lost responses; every request resolves to exactly one of
/// Completed / Degraded / Rejected / DeadlineExceeded; repeated-tenant
/// requests run warm against their shared cache namespace.
#[test]
fn hundred_request_mixed_tenant_soak_loses_nothing() {
    let srv = server(ServeConfig {
        workers: 4,
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    let tenants = ["acme", "globex", "initech"];
    let mut tickets = Vec::with_capacity(100);
    for i in 0..100u64 {
        let tenant = tenants[(i % 3) as usize];
        // Mostly the amplifier (repeated → warm hits); every ninth request
        // is the OTA for circuit diversity.
        let mut req = if i % 9 == 4 {
            ota(tenant)
        } else {
            cs_amp(tenant)
        };
        req.seed = 7;
        match i % 10 {
            // A slice of requests with an already-spent budget: these must
            // resolve DeadlineExceeded without running.
            3 => req.deadline = Some(Duration::ZERO),
            // A slice with a transient route fault absorbed by in-flow
            // repair: these complete degraded.
            7 => req.plan = FaultPlan::none().with_route_fault("vout", 1),
            _ => {}
        }
        tickets.push(srv.submit_blocking(req).unwrap());
    }

    let mut ids = std::collections::HashSet::new();
    for ticket in tickets {
        let r = ticket.wait();
        assert!(
            ids.insert(r.request_id),
            "request {} resolved twice",
            r.request_id
        );
        assert!(
            matches!(
                r.outcome,
                ServeOutcome::Completed
                    | ServeOutcome::Degraded
                    | ServeOutcome::Rejected
                    | ServeOutcome::DeadlineExceeded
            ),
            "request {} resolved outside the acceptance outcomes: {:?} ({})",
            r.request_id,
            r.outcome,
            r.detail
        );
    }
    assert_eq!(ids.len(), 100, "zero lost responses");

    let report = srv.finish();
    assert_eq!(report.total(), 100);
    assert_eq!(report.count(ServeOutcome::DeadlineExceeded), 10);
    assert!(report.count(ServeOutcome::Completed) >= 70);
    // Three tenants, two circuits each → at most six namespaces; repeated
    // identical requests must hit their tenant's warm namespace hard.
    assert!(report.cache_namespaces <= 6);
    let lookups = report.cache.hits + report.cache.misses;
    assert!(lookups > 0);
    let hit_rate = report.cache.hits as f64 / lookups as f64;
    assert!(
        hit_rate >= 0.9,
        "repeated-tenant requests should be ≥90% warm, got {:.1}%",
        hit_rate * 100.0
    );
}

/// Bit-level equality of everything physical in a `FlowOutcome`.
fn assert_bit_identical(what: &str, a: &FlowOutcome, b: &FlowOutcome) {
    assert_eq!(
        a.area_um2.to_bits(),
        b.area_um2.to_bits(),
        "{what}: area differs"
    );
    assert_eq!(
        a.wirelength_um.to_bits(),
        b.wirelength_um.to_bits(),
        "{what}: wirelength differs"
    );
    assert_eq!(a.detailed, b.detailed, "{what}: detailed routing differs");
    assert_eq!(
        a.realization.layouts, b.realization.layouts,
        "{what}: layouts differ"
    );
    assert_eq!(
        a.realization.net_wires, b.realization.net_wires,
        "{what}: net wires differ"
    );
}

fn shared_cache(tech: &Technology) -> Arc<EvalCache> {
    Arc::new(EvalCache::open(
        CachePolicy::MemoryOnly,
        tech.fingerprint(),
        TESTBENCH_VERSION,
    ))
}

fn flow_with_cache(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    cache: &Arc<EvalCache>,
    cancel: Option<CancelToken>,
) -> Result<FlowOutcome, FlowError> {
    let options = FlowOptions {
        verify: VerifyPolicy::On,
        cache: CachePolicy::Shared(Arc::clone(cache)),
        cancel,
        ..FlowOptions::default()
    };
    optimized_flow_with(tech, lib, spec, biases, 11, options)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cancelling mid-flow at a random candidate/Newton boundary leaves a
    /// shared cache consistent: nothing partial or faulted is stored, so a
    /// later uncancelled run over the same store is bit-identical to a
    /// cold fresh-cache run — and at least as warm.
    #[test]
    fn cancellation_at_random_boundary_keeps_shared_cache_consistent(k in 0u64..400) {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let spec = CsAmp::spec();
        let biases = CsAmp::biases(&tech, &lib).unwrap();

        let shared = shared_cache(&tech);
        // Trip the token after k cooperative checks: somewhere between the
        // very first candidate boundary and deep inside Newton iterations.
        let token = CancelToken::cancel_after_checks(k);
        match flow_with_cache(&tech, &lib, &spec, &biases, &shared, Some(token)) {
            Err(FlowError::Cancelled(_)) => {}
            Ok(_) => {} // k large enough that the flow finished first
            Err(other) => {
                return Err(TestCaseError::Fail(format!(
                    "cancelled run failed with a non-cancellation error: {other}"
                )));
            }
        }

        // The same store, uncancelled, must reproduce a cold fresh-cache
        // run bit for bit: only complete Ok evaluations were ever cached.
        let before_warm = shared.stats();
        let after = flow_with_cache(&tech, &lib, &spec, &biases, &shared, None)
            .map_err(|e| TestCaseError::Fail(format!("uncancelled warm run failed: {e}")))?;
        let cold_store = shared_cache(&tech);
        let cold = flow_with_cache(&tech, &lib, &spec, &biases, &cold_store, None)
            .map_err(|e| TestCaseError::Fail(format!("cold run failed: {e}")))?;
        assert_bit_identical("warm-after-cancel vs cold", &after, &cold);

        // And the aborted run's completed evaluations were not wasted.
        // Cache counters are cumulative per store, so compare the warm
        // run's own misses (delta over the post-cancel snapshot) against
        // the cold run: the warm run must miss no more often.
        let warm_stats = after.cache.expect("warm stats");
        let cold_stats = cold.cache.expect("cold stats");
        let warm_run_misses = warm_stats.misses - before_warm.misses;
        prop_assert!(
            warm_run_misses <= cold_stats.misses,
            "cancelled run poisoned the store: warm run had {} misses vs cold {}",
            warm_run_misses,
            cold_stats.misses
        );
    }
}
