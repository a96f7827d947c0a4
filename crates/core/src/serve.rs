//! Serving vocabulary: per-request and per-batch outcome reports.
//!
//! The `prima-serve` crate runs batches of flow requests through a worker
//! pool with admission control, deadlines, and load shedding.
//! These are the types its responses are made of; they live in core so
//! that flows, benches, and tests can speak about serving outcomes without
//! depending on the service implementation.

use crate::resilience::Health;
use prima_cache::CacheStats;

/// How one request resolved. Every submitted request resolves to **exactly
/// one** of these — the zero-lost-responses invariant the serve tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeOutcome {
    /// The flow finished clean within the deadline.
    Completed,
    /// A result was produced but with reduced fidelity or guarantees:
    /// repaired-after-faults flows, or requests shed under overload that
    /// return a shed notice instead of a layout.
    Degraded,
    /// Admission control refused the request up front (queue full).
    Rejected,
    /// The wall-clock deadline expired before a result was produced.
    DeadlineExceeded,
    /// The request's flow run ended in an error other than an expired
    /// deadline (an explicit cancel included); the detail carries the
    /// error's text. Nothing runs the request again.
    Failed,
}

impl std::fmt::Display for ServeOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ServeOutcome::Completed => "completed",
            ServeOutcome::Degraded => "degraded",
            ServeOutcome::Rejected => "rejected",
            ServeOutcome::DeadlineExceeded => "deadline-exceeded",
            ServeOutcome::Failed => "failed",
        };
        write!(f, "{s}")
    }
}

/// One request's resolution, as returned to its submitter.
#[derive(Debug, Clone)]
pub struct RequestReport {
    /// Service-assigned request id (unique within one server's lifetime).
    pub request_id: u64,
    /// The tenant the request ran under.
    pub tenant: String,
    /// Circuit name, for reporting.
    pub circuit: String,
    /// How the request resolved.
    pub outcome: ServeOutcome,
    /// Human-readable detail: the final error, the shed reason, or empty
    /// for a clean completion.
    pub detail: String,
    /// Flow runs: 1 when the request ran, 0 when it never did (rejected,
    /// shed, or expired in the queue). A request runs its flow at most
    /// once.
    pub attempts: u32,
    /// Time spent queued before a worker picked the request up.
    pub queue_ms: f64,
    /// Time spent executing (0 when the request never ran).
    pub service_ms: f64,
    /// Resilience health of the successful flow, when one ran to the end.
    pub health: Option<Health>,
    /// Serialized GDS-II stream of the finished layout, when the server
    /// was configured to stream out and the flow completed. Raw bytes —
    /// this crate stays format-agnostic; prima-gds re-parses them. Only the
    /// submitter's copy carries them: the record in
    /// [`ServeReport::requests`] is always `None` here.
    pub gds: Option<Vec<u8>>,
}

impl RequestReport {
    /// Whether the submitter got a usable layout (possibly degraded).
    pub fn has_result(&self) -> bool {
        matches!(
            self.outcome,
            ServeOutcome::Completed | ServeOutcome::Degraded
        ) && self.attempts > 0
    }
}

/// Batch-level accounting across one server's lifetime (or one drain).
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Every resolved request, in completion order, without its GDS bytes
    /// (those go to the submitter only).
    pub requests: Vec<RequestReport>,
    /// Requests refused by admission control (also present in `requests`
    /// with [`ServeOutcome::Rejected`]).
    pub rejected: u64,
    /// Requests shed by priority under overload.
    pub shed: u64,
    /// Flow runs beyond each request's first. Always 0: a served request
    /// runs its flow once.
    pub retries: u64,
    /// Aggregate cache counters across every tenant namespace.
    pub cache: CacheStats,
    /// Number of distinct cache namespaces touched.
    pub cache_namespaces: usize,
}

impl ServeReport {
    /// Count of requests that resolved to `outcome`.
    pub fn count(&self, outcome: ServeOutcome) -> usize {
        self.requests
            .iter()
            .filter(|r| r.outcome == outcome)
            .count()
    }

    /// Total responses produced. Zero lost responses means this equals the
    /// number of submissions the caller made.
    pub fn total(&self) -> usize {
        self.requests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(outcome: ServeOutcome, attempts: u32) -> RequestReport {
        RequestReport {
            request_id: 1,
            tenant: "t".into(),
            circuit: "c".into(),
            outcome,
            detail: String::new(),
            attempts,
            queue_ms: 0.0,
            service_ms: 0.0,
            health: None,
            gds: None,
        }
    }

    #[test]
    fn outcome_counting() {
        let mut r = ServeReport::default();
        r.requests.push(report(ServeOutcome::Completed, 1));
        r.requests.push(report(ServeOutcome::Completed, 1));
        r.requests.push(report(ServeOutcome::Rejected, 0));
        assert_eq!(r.count(ServeOutcome::Completed), 2);
        assert_eq!(r.count(ServeOutcome::Rejected), 1);
        assert_eq!(r.count(ServeOutcome::Failed), 0);
        assert_eq!(r.total(), 3);
    }

    #[test]
    fn has_result_requires_an_attempt() {
        assert!(report(ServeOutcome::Completed, 1).has_result());
        assert!(report(ServeOutcome::Degraded, 1).has_result());
        // A shed request reports Degraded but never ran: no result.
        assert!(!report(ServeOutcome::Degraded, 0).has_result());
        assert!(!report(ServeOutcome::Rejected, 0).has_result());
        assert!(!report(ServeOutcome::DeadlineExceeded, 1).has_result());
    }

    #[test]
    fn outcomes_display() {
        assert_eq!(
            ServeOutcome::DeadlineExceeded.to_string(),
            "deadline-exceeded"
        );
        assert_eq!(ServeOutcome::Completed.to_string(), "completed");
    }
}
