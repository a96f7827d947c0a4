//! # prima-serve
//!
//! A long-lived batch evaluation service over the resilient optimized flow:
//! many tenants submit circuit requests, a fixed worker pool executes them,
//! and **every submission resolves to exactly one outcome** — the
//! zero-lost-responses invariant.
//!
//! The request state machine:
//!
//! ```text
//!             submit
//!               │
//!     queue full?──────────────► Rejected  (admission control; also
//!               │                           shed victims → Degraded)
//!            queued
//!               │  deadline expired while waiting
//!               ├──────────────► DeadlineExceeded
//!            running (the flow, once)
//!               ├──────────────► Completed          (clean flow)
//!               ├──────────────► Degraded           (repaired-after-faults)
//!               ├──────────────► DeadlineExceeded   (token tripped mid-flow)
//!               └──────────────► Failed             (any other flow error)
//! ```
//!
//! Key properties:
//!
//! * **Admission control** — the queue is bounded; an overflowing submit
//!   either sheds a strictly-lower-priority queued request (which resolves
//!   [`ServeOutcome::Degraded`] with a shed reason) or is refused with
//!   [`ServeError::Overloaded`] (recorded as [`ServeOutcome::Rejected`]).
//!   Nothing ever queues without bound.
//! * **Deadlines as cancellation** — each request gets a [`CancelToken`]
//!   carrying its wall-clock deadline at submit time; the token is checked
//!   cooperatively at candidate, Newton-iteration, and route boundaries
//!   deep inside the flow, so an expired request unwinds within
//!   microseconds of its deadline.
//! * **One run per request** — the flow is deterministic (seeded
//!   placement, sweeps collected in input order), so re-running a failed
//!   request would only reproduce its error. Faults the flow can absorb
//!   are repaired inside it; any other error resolves
//!   [`ServeOutcome::Failed`] with the error's text.
//! * **Shared cache, isolated tenants** — all requests share one
//!   [`CacheHub`]; each `(tenant, technology, testbench)` namespace is its
//!   own LRU store, so one tenant's churn cannot evict another's warm set.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prima_cache::{CacheHub, CacheStats, CancelReason, CancelToken, Fingerprintable, Namespace};
use prima_core::{FaultPlan, Health, RequestReport, ServeOutcome, ServeReport, SolverLimits};
use prima_flow::circuits::CircuitSpec;
use prima_flow::{
    optimized_flow_resilient, techlint_preflight, CachePolicy, FlowError, FlowOptions, GdsPolicy,
    VerifyPolicy,
};
use prima_pdk::Technology;
use prima_primitives::{Bias, Library, TESTBENCH_VERSION};

pub use prima_core::{RequestReport as Report, ServeOutcome as Outcome};

/// Poison-tolerant lock: a worker that panicked mid-request cannot also
/// wedge every other worker (the shared state it guards stays consistent —
/// queues and report vectors are only mutated in small, complete steps).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Scheduling priority; under overload, lower priorities are shed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Shed first under overload.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Preempts queued `Low`/`Normal` requests when the queue is full.
    High,
}

/// Server-side knobs. The defaults suit tests and small batches; a real
/// deployment would size `workers` to cores and `queue_capacity` to its
/// latency budget.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing flows. `0` is allowed (nothing executes
    /// until [`BatchServer::finish`]) — useful for admission-control tests.
    pub workers: usize,
    /// Bounded queue depth (waiting requests only; in-flight ones have
    /// already left the queue). Admission control triggers at this bound;
    /// `0` is treated as `1`.
    pub queue_capacity: usize,
    /// Solver iteration limits: no fields, and nothing reads them. Served
    /// flows run under the solvers' constant bounds.
    pub solver: SolverLimits,
    /// Static-gate policy: one variant, and nothing reads it. Served flows
    /// run all four gates, like every flow.
    pub verify: VerifyPolicy,
    /// When set, cache namespaces persist as sidecar files under this
    /// directory; otherwise they live in memory.
    pub cache_dir: Option<PathBuf>,
    /// Stream finished layouts out as binary GDS-II and attach the bytes
    /// to each completed request's report (an optional artifact; off by
    /// default so responses stay small).
    pub gds: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 32,
            solver: SolverLimits::default(),
            verify: VerifyPolicy::default(),
            cache_dir: None,
            gds: false,
        }
    }
}

/// One tenant's unit of work.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Tenant identity; selects the cache namespace.
    pub tenant: String,
    /// The circuit to lay out.
    pub circuit: CircuitSpec,
    /// Per-instance bias records.
    pub biases: HashMap<String, Bias>,
    /// Placement seed.
    pub seed: u64,
    /// Scheduling priority under overload.
    pub priority: Priority,
    /// Wall-clock budget, measured from submit (queue time included);
    /// `None` runs without one.
    pub deadline: Option<Duration>,
    /// Fault-injection plan for the request's flow. Faults its repair
    /// loops absorb resolve [`ServeOutcome::Degraded`]; faults that outlast
    /// a repair budget resolve [`ServeOutcome::Failed`].
    pub plan: FaultPlan,
}

impl ServeRequest {
    /// A request with default seed and priority and no deadline.
    pub fn new(tenant: &str, circuit: CircuitSpec, biases: HashMap<String, Bias>) -> Self {
        ServeRequest {
            tenant: tenant.to_string(),
            circuit,
            biases,
            seed: 7,
            priority: Priority::default(),
            deadline: None,
            plan: FaultPlan::default(),
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue is full and the request had no shedding priority
    /// over anything queued. The refusal is recorded as a
    /// [`ServeOutcome::Rejected`] response — refused requests are answered,
    /// not lost.
    Overloaded {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// The technology/library pair failed the static techlint analysis at
    /// registration ([`BatchServer::try_new`]): the deck is inconsistent or
    /// some library primitive can never render legally on it. Every batch
    /// submitted against it would fail identically, so the tenant deck is
    /// refused at the API boundary instead.
    BadTechnology {
        /// Deck (technology) name that was rejected.
        deck: String,
        /// Number of error-severity lint findings.
        violations: usize,
        /// First finding in canonical order, with its `TECH.*`/`LIB.*` id.
        first: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "overloaded: queue at capacity ({capacity})")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BadTechnology {
                deck,
                violations,
                first,
            } => {
                write!(
                    f,
                    "technology {deck:?} failed techlint with {violations} violation(s); first: {first}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A submitted request's response slot.
struct SlotInner {
    result: Mutex<Option<RequestReport>>,
    ready: Condvar,
}

#[derive(Clone)]
struct Slot(Arc<SlotInner>);

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("resolved", &lock(&self.0.result).is_some())
            .finish()
    }
}

impl Slot {
    fn new() -> Self {
        Slot(Arc::new(SlotInner {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }))
    }

    fn resolve(&self, report: RequestReport) {
        let mut guard = lock(&self.0.result);
        // First resolution wins; a request resolves exactly once.
        if guard.is_none() {
            *guard = Some(report);
            self.0.ready.notify_all();
        }
    }

    fn wait(&self) -> RequestReport {
        let mut guard = lock(&self.0.result);
        loop {
            if let Some(report) = guard.take() {
                return report;
            }
            guard = self
                .0
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Handle to one submitted request.
#[derive(Debug)]
pub struct Ticket {
    /// Service-assigned id (matches the eventual [`RequestReport`]).
    pub request_id: u64,
    slot: Slot,
}

impl Ticket {
    /// Blocks until the request resolves.
    pub fn wait(self) -> RequestReport {
        self.slot.wait()
    }
}

/// A queued request.
struct Queued {
    id: u64,
    req: ServeRequest,
    token: CancelToken,
    enqueued: Instant,
    slot: Slot,
}

struct QueueState {
    queue: VecDeque<Queued>,
    shutdown: bool,
}

struct Inner {
    tech: Technology,
    lib: Library,
    config: ServeConfig,
    hub: CacheHub,
    state: Mutex<QueueState>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
    /// Signalled when a queue slot frees up (for [`BatchServer::submit_blocking`]).
    space: Condvar,
    next_id: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    resolved: Mutex<Vec<RequestReport>>,
}

impl Inner {
    /// Resolves a request: exactly one report, recorded in completion order
    /// and delivered to the ticket. The GDS bytes go to the ticket only, so
    /// the batch record does not hold every payload until `finish()`.
    fn resolve(&self, slot: &Slot, mut report: RequestReport) {
        let gds = report.gds.take();
        lock(&self.resolved).push(report.clone());
        report.gds = gds;
        slot.resolve(report);
    }
}

/// The batch evaluation service (see module docs).
pub struct BatchServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchServer {
    /// Starts the worker pool after statically linting the deck: the
    /// registration-time gate, which every server runs. A technology whose rule tables drifted from
    /// its stack — or on which some library primitive can never render a
    /// legal cell — is refused here with the exact `TECH.*`/`LIB.*` rule
    /// id, before any tenant burns queue capacity (and deadline budget) on
    /// batches that would all fail the same way.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadTechnology`] when [`techlint_preflight`] reports
    /// any error-severity finding.
    pub fn try_new(
        tech: Technology,
        lib: Library,
        mut config: ServeConfig,
    ) -> Result<Self, ServeError> {
        let report = techlint_preflight(&tech, &lib);
        if !report.is_passing() {
            return Err(ServeError::BadTechnology {
                deck: tech.name.clone(),
                violations: report.error_count(),
                first: report
                    .violations
                    .iter()
                    .find(|v| v.severity == prima_core::Severity::Error)
                    .map(|v| v.to_string())
                    .unwrap_or_default(),
            });
        }
        config.queue_capacity = config.queue_capacity.max(1);
        let hub = match &config.cache_dir {
            Some(dir) => CacheHub::persistent(dir.clone()),
            None => CacheHub::in_memory(),
        };
        let workers_n = config.workers;
        let inner = Arc::new(Inner {
            tech,
            lib,
            config,
            hub,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            next_id: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            resolved: Mutex::new(Vec::new()),
        });
        let workers = (0..workers_n)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(BatchServer { inner, workers })
    }

    /// Non-blocking submit with admission control. When the queue is full,
    /// the lowest-priority queued request strictly below this one's priority
    /// is shed (resolving [`ServeOutcome::Degraded`] with the shed reason)
    /// to make room; with no such victim the submission is refused with
    /// [`ServeError::Overloaded`] and recorded as [`ServeOutcome::Rejected`].
    pub fn submit(&self, req: ServeRequest) -> Result<Ticket, ServeError> {
        let inner = &self.inner;
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let mut st = lock(&inner.state);
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if st.queue.len() >= inner.config.queue_capacity {
            // Shed lowest-priority first (oldest among equals).
            let victim_ix = st
                .queue
                .iter()
                .enumerate()
                .filter(|(_, q)| q.req.priority < req.priority)
                .min_by_key(|(ix, q)| (q.req.priority, *ix))
                .map(|(ix, _)| ix);
            match victim_ix.and_then(|ix| st.queue.remove(ix)) {
                Some(victim) => {
                    inner.shed.fetch_add(1, Ordering::SeqCst);
                    inner.resolve(
                        &victim.slot,
                        base_report(
                            &victim,
                            ServeOutcome::Degraded,
                            format!(
                                "shed under overload: queue full, preempted by \
                                 higher-priority request {id}"
                            ),
                            0,
                            victim.enqueued.elapsed(),
                            Duration::ZERO,
                            None,
                        ),
                    );
                }
                None => {
                    let capacity = inner.config.queue_capacity;
                    inner.rejected.fetch_add(1, Ordering::SeqCst);
                    let rejected = RequestReport {
                        request_id: id,
                        tenant: req.tenant.clone(),
                        circuit: req.circuit.name.clone(),
                        outcome: ServeOutcome::Rejected,
                        detail: format!("admission refused: queue at capacity ({capacity})"),
                        attempts: 0,
                        queue_ms: 0.0,
                        service_ms: 0.0,
                        health: None,
                        gds: None,
                    };
                    lock(&inner.resolved).push(rejected);
                    return Err(ServeError::Overloaded { capacity });
                }
            }
        }
        let ticket = enqueue(&mut st, id, req);
        drop(st);
        inner.work.notify_one();
        Ok(ticket)
    }

    /// Blocking submit: waits for queue space instead of shedding or
    /// rejecting. Errors only when the server is shutting down.
    pub fn submit_blocking(&self, req: ServeRequest) -> Result<Ticket, ServeError> {
        let inner = &self.inner;
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let mut st = lock(&inner.state);
        while st.queue.len() >= inner.config.queue_capacity && !st.shutdown {
            st = inner.space.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        let ticket = enqueue(&mut st, id, req);
        drop(st);
        inner.work.notify_one();
        Ok(ticket)
    }

    /// Per-namespace cache counters (sorted; for exhibits and monitoring).
    pub fn cache_stats_by_namespace(&self) -> Vec<(Namespace, CacheStats)> {
        self.inner.hub.stats_by_namespace()
    }

    /// Drains the queue, stops the workers, snapshots persistent cache
    /// namespaces, and returns the batch report. Requests still queued when
    /// no worker will ever run them (a zero-worker server) resolve as
    /// [`ServeOutcome::Rejected`] — never silently dropped.
    pub fn finish(mut self) -> ServeReport {
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        self.inner.space.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // A zero-worker server (or one whose workers all panicked) may
        // still hold queued requests; answer them.
        let leftovers: Vec<Queued> = {
            let mut st = lock(&self.inner.state);
            st.queue.drain(..).collect()
        };
        for q in leftovers {
            self.inner.rejected.fetch_add(1, Ordering::SeqCst);
            self.inner.resolve(
                &q.slot,
                base_report(
                    &q,
                    ServeOutcome::Rejected,
                    "server shut down before the request ran".to_string(),
                    0,
                    q.enqueued.elapsed(),
                    Duration::ZERO,
                    None,
                ),
            );
        }
        self.inner.hub.save_all();
        let requests = {
            let mut resolved = lock(&self.inner.resolved);
            std::mem::take(&mut *resolved)
        };
        ServeReport {
            requests,
            rejected: self.inner.rejected.load(Ordering::SeqCst),
            shed: self.inner.shed.load(Ordering::SeqCst),
            retries: 0,
            cache: self.inner.hub.aggregate_stats(),
            cache_namespaces: self.inner.hub.namespace_count(),
        }
    }
}

impl Drop for BatchServer {
    fn drop(&mut self) {
        // finish() drains `workers`; a dropped-without-finish server still
        // stops its threads instead of leaking them.
        if self.workers.is_empty() {
            return;
        }
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        self.inner.space.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Creates the request's token (deadline attached at submit, so queue time
/// counts against the budget) and enqueues it. Caller holds the state lock.
fn enqueue(st: &mut QueueState, id: u64, req: ServeRequest) -> Ticket {
    let token = match req.deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    let slot = Slot::new();
    st.queue.push_back(Queued {
        id,
        req,
        token,
        enqueued: Instant::now(),
        slot: slot.clone(),
    });
    Ticket {
        request_id: id,
        slot,
    }
}

/// Index of the next request to run: highest priority, FIFO within equals.
fn pick_next(queue: &VecDeque<Queued>) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .max_by_key(|(ix, q)| (q.req.priority, std::cmp::Reverse(*ix)))
        .map(|(ix, _)| ix)
}

fn worker_loop(inner: &Inner) {
    loop {
        let queued = {
            let mut st = lock(&inner.state);
            loop {
                if let Some(q) = pick_next(&st.queue).and_then(|ix| st.queue.remove(ix)) {
                    break q;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        inner.space.notify_one();
        let slot = queued.slot.clone();
        let report = run_request(inner, queued);
        inner.resolve(&slot, report);
    }
}

/// The skeleton every resolution shares.
#[allow(clippy::too_many_arguments)]
fn base_report(
    q: &Queued,
    outcome: ServeOutcome,
    detail: String,
    attempts: u32,
    queued_for: Duration,
    serviced_for: Duration,
    health: Option<Health>,
) -> RequestReport {
    RequestReport {
        request_id: q.id,
        tenant: q.req.tenant.clone(),
        circuit: q.req.circuit.name.clone(),
        outcome,
        detail,
        attempts,
        queue_ms: queued_for.as_secs_f64() * 1e3,
        service_ms: serviced_for.as_secs_f64() * 1e3,
        health,
        gds: None,
    }
}

/// The outcome a tripped token maps to: deadlines are a first-class
/// verdict; explicit cancels and test trip wires resolve as failures.
fn cancelled_outcome(reason: CancelReason) -> ServeOutcome {
    match reason {
        CancelReason::Deadline => ServeOutcome::DeadlineExceeded,
        CancelReason::Explicit | CancelReason::Trip => ServeOutcome::Failed,
    }
}

/// Runs one request to resolution: the queue-expiry check, then the
/// resilient flow, once.
fn run_request(inner: &Inner, q: Queued) -> RequestReport {
    let queued_for = q.enqueued.elapsed();
    // Expired while waiting: resolve without spending a single simulation.
    if let Err(c) = q.token.check() {
        return base_report(
            &q,
            cancelled_outcome(c.reason),
            format!("expired in queue: {c}"),
            0,
            queued_for,
            Duration::ZERO,
            None,
        );
    }
    let ns = Namespace {
        tenant: q.req.tenant.clone(),
        tech_fp: inner.tech.fingerprint(),
        testbench_version: TESTBENCH_VERSION,
    };
    let options = FlowOptions {
        cache: CachePolicy::Shared(inner.hub.namespace(&ns)),
        cancel: Some(q.token.clone()),
        gds: if inner.config.gds {
            GdsPolicy::On
        } else {
            GdsPolicy::Off
        },
        ..FlowOptions::default()
    };
    let started = Instant::now();
    let result = optimized_flow_resilient(
        &inner.tech,
        &inner.lib,
        &q.req.circuit,
        &q.req.biases,
        q.req.seed,
        options,
        &q.req.plan,
    );
    let (outcome, detail, health) = match &result {
        Ok(out) => {
            let health = out.resilience.health;
            let (outcome, detail) = match health {
                Health::Clean => (ServeOutcome::Completed, String::new()),
                Health::Degraded => (
                    ServeOutcome::Degraded,
                    format!(
                        "completed with {} degradation(s)",
                        out.resilience.degradations.len()
                    ),
                ),
            };
            (outcome, detail, Some(health))
        }
        Err(FlowError::Cancelled(c)) => (cancelled_outcome(c.reason), c.to_string(), None),
        Err(e) => (ServeOutcome::Failed, e.to_string(), None),
    };
    let mut report = base_report(
        &q,
        outcome,
        detail,
        1,
        queued_for,
        started.elapsed(),
        health,
    );
    report.gds = result.ok().and_then(|out| out.gds).map(|a| a.bytes);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_flow::circuits::CsAmp;

    fn cs_amp_request(tenant: &str) -> ServeRequest {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let spec = CsAmp::spec();
        let biases = CsAmp::biases(&tech, &lib).unwrap();
        ServeRequest::new(tenant, spec, biases)
    }

    fn server(config: ServeConfig) -> BatchServer {
        BatchServer::try_new(Technology::finfet7(), Library::standard(), config).unwrap()
    }

    #[test]
    fn registration_lints_the_deck() {
        // All bundled decks register cleanly…
        for tech in [
            Technology::finfet7(),
            Technology::bulk16(),
            Technology::sky130ish(),
        ] {
            let srv = BatchServer::try_new(
                tech,
                Library::standard(),
                ServeConfig {
                    workers: 0,
                    ..ServeConfig::default()
                },
            )
            .expect("bundled deck must register");
            let _ = srv.finish();
        }
        // …while a deck whose EM table drifted from its via stack is
        // refused at the boundary with the exact rule id, no worker spawned.
        let mut broken = Technology::sky130ish();
        broken.electrical.em_ma_per_cut.pop();
        match BatchServer::try_new(broken, Library::standard(), ServeConfig::default()) {
            Err(ServeError::BadTechnology { deck, first, .. }) => {
                assert_eq!(deck, "sky130ish");
                assert!(first.contains("TECH.EM.VIA"), "{first}");
            }
            Err(other) => panic!("expected BadTechnology, got {other}"),
            Ok(_) => panic!("expected BadTechnology, got a running server"),
        }
    }

    #[test]
    fn single_request_completes() {
        let srv = server(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let ticket = srv.submit(cs_amp_request("acme")).unwrap();
        let report = ticket.wait();
        assert_eq!(report.outcome, ServeOutcome::Completed);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.health, Some(Health::Clean));
        let batch = srv.finish();
        assert_eq!(batch.total(), 1);
        assert_eq!(batch.count(ServeOutcome::Completed), 1);
        assert_eq!(batch.cache_namespaces, 1);
    }

    #[test]
    fn admission_control_rejects_at_capacity() {
        // Zero workers: the queue never drains, so admission is
        // deterministic.
        let srv = server(ServeConfig {
            workers: 0,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        assert!(srv.submit(cs_amp_request("a")).is_ok());
        assert!(srv.submit(cs_amp_request("a")).is_ok());
        match srv.submit(cs_amp_request("a")) {
            Err(ServeError::Overloaded { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let batch = srv.finish();
        // Three responses for three submissions: one rejected at admission,
        // two rejected at shutdown (no worker ever ran them).
        assert_eq!(batch.total(), 3);
        assert_eq!(batch.count(ServeOutcome::Rejected), 3);
        assert_eq!(batch.rejected, 3);
    }

    #[test]
    fn zero_queue_capacity_admits_and_reports_one() {
        let srv = server(ServeConfig {
            workers: 0,
            queue_capacity: 0,
            ..ServeConfig::default()
        });
        assert!(srv.submit(cs_amp_request("a")).is_ok());
        match srv.submit(cs_amp_request("a")) {
            Err(ServeError::Overloaded { capacity }) => assert_eq!(capacity, 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let batch = srv.finish();
        assert!(
            batch
                .requests
                .iter()
                .any(|r| r.detail == "admission refused: queue at capacity (1)"),
            "{:?}",
            batch.requests
        );
    }

    #[test]
    fn overload_sheds_lowest_priority_first() {
        let srv = server(ServeConfig {
            workers: 0,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        let mut low = cs_amp_request("a");
        low.priority = Priority::Low;
        let mut normal = cs_amp_request("a");
        normal.priority = Priority::Normal;
        let mut high = cs_amp_request("a");
        high.priority = Priority::High;

        let low_ticket = srv.submit(low).unwrap();
        assert!(srv.submit(normal).is_ok());
        // Queue full; the high-priority submission preempts the Low one.
        assert!(srv.submit(high).is_ok());
        let shed = low_ticket.wait();
        assert_eq!(shed.outcome, ServeOutcome::Degraded);
        assert_eq!(shed.attempts, 0);
        assert!(!shed.has_result(), "a shed notice is not a layout");
        assert!(
            shed.detail.contains("shed under overload"),
            "{}",
            shed.detail
        );
        let batch = srv.finish();
        assert_eq!(batch.shed, 1);
        assert_eq!(batch.total(), 3);
    }

    #[test]
    fn deadline_expired_in_queue_resolves_without_running() {
        let srv = server(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut req = cs_amp_request("acme");
        req.deadline = Some(Duration::ZERO);
        let report = srv.submit(req).unwrap().wait();
        assert_eq!(report.outcome, ServeOutcome::DeadlineExceeded);
        assert_eq!(report.attempts, 0);
        assert_eq!(report.service_ms, 0.0);
        let batch = srv.finish();
        assert_eq!(batch.count(ServeOutcome::DeadlineExceeded), 1);
    }

    #[test]
    fn unrepresentable_deadline_runs_without_one() {
        let srv = server(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut req = cs_amp_request("acme");
        req.deadline = Some(Duration::MAX);
        let report = srv.submit(req).unwrap().wait();
        assert_eq!(report.outcome, ServeOutcome::Completed, "{}", report.detail);
        drop(srv.finish());
    }

    #[test]
    fn route_faults_past_the_repair_budget_fail_in_one_run() {
        let srv = server(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut req = cs_amp_request("acme");
        // More injected route failures than the flow's route budget: the
        // request's one run exhausts repair, and nothing runs it again.
        req.plan = FaultPlan::none().with_route_fault("vout", 10);
        let report = srv.submit(req).unwrap().wait();
        assert_eq!(report.outcome, ServeOutcome::Failed, "{}", report.detail);
        assert!(
            report
                .detail
                .starts_with("repair exhausted: cs_amp detail routing failed after 3 attempt(s)"),
            "{}",
            report.detail
        );
        assert_eq!(report.attempts, 1);
        let batch = srv.finish();
        assert_eq!(batch.retries, 0);
    }

    #[test]
    fn static_gate_rejection_never_retries() {
        let srv = server(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut req = cs_amp_request("acme");
        // A sizing no standard configuration can realize trips the
        // schematic preflight (`SCHEM.SIZE`) deterministically.
        req.circuit.instances[0].total_fins = 1;
        let report = srv.submit(req).unwrap().wait();
        assert_eq!(report.outcome, ServeOutcome::Failed);
        assert_eq!(report.attempts, 1, "deterministic rejection must not retry");
        let batch = srv.finish();
        assert_eq!(batch.retries, 0);
    }

    #[test]
    fn repeated_tenant_requests_hit_the_shared_namespace() {
        let srv = server(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let a = srv.submit(cs_amp_request("acme")).unwrap();
        assert_eq!(a.wait().outcome, ServeOutcome::Completed);
        let b = srv.submit(cs_amp_request("acme")).unwrap();
        assert_eq!(b.wait().outcome, ServeOutcome::Completed);
        let stats = srv.cache_stats_by_namespace();
        assert_eq!(stats.len(), 1);
        assert!(
            stats[0].1.hits > 0,
            "second identical request must hit the warm namespace"
        );
        // A different tenant opens a second, cold namespace.
        let c = srv.submit(cs_amp_request("globex")).unwrap();
        assert_eq!(c.wait().outcome, ServeOutcome::Completed);
        let batch = srv.finish();
        assert_eq!(batch.cache_namespaces, 2);
        assert!(batch.cache.hits > 0);
    }

    #[test]
    fn blocking_submit_waits_for_space() {
        let srv = server(ServeConfig {
            workers: 2,
            queue_capacity: 1,
            ..ServeConfig::default()
        });
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                let mut req = cs_amp_request("acme");
                req.seed = 7 + (i % 2);
                srv.submit_blocking(req).unwrap()
            })
            .collect();
        for t in tickets {
            let r = t.wait();
            assert_eq!(r.outcome, ServeOutcome::Completed, "{}", r.detail);
        }
        let batch = srv.finish();
        assert_eq!(batch.total(), 6);
        assert_eq!(batch.count(ServeOutcome::Completed), 6);
    }
}
