//! Cooperative cancellation for long-running evaluations.
//!
//! A [`CancelToken`] is a cheaply-cloneable handle shared between a
//! controller (the serving layer, a test harness, a user) and the deep
//! compute loops (Newton iterations, candidate evaluation, detail
//! routing). The loops call [`CancelToken::check`] at natural boundaries;
//! the controller flips the token — explicitly via [`CancelToken::cancel`]
//! or implicitly by attaching a wall-clock deadline — and the next check
//! returns [`Cancelled`], unwinding the computation as an ordinary error.
//!
//! Cancellation is *cooperative*: nothing is interrupted mid-instruction,
//! so data structures shared across requests (notably the evaluation
//! cache, which only ever stores completed `Ok` results) stay consistent
//! by construction.
//!
//! This lives in `prima-cache` because it is the std-only crate at the
//! bottom of the workspace graph: spice, route, core, and flow all need
//! to check the same token without new cross-dependencies. `prima-core`
//! re-exports it as part of the serving vocabulary.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a computation was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Explicit,
    /// The token's wall-clock deadline passed.
    Deadline,
    /// The deterministic test trip wire ([`CancelToken::cancel_after_checks`])
    /// counted down to zero.
    Trip,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Explicit => write!(f, "cancelled"),
            CancelReason::Deadline => write!(f, "deadline exceeded"),
            CancelReason::Trip => write!(f, "cancellation trip wire"),
        }
    }
}

/// The error a cancelled computation unwinds with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// What tripped the token.
    pub reason: CancelReason,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for Cancelled {}

/// Countdown value meaning "trip wire disarmed".
const TRIP_DISARMED: u64 = u64::MAX;

/// Deadline encoding meaning "no deadline attached".
const NO_DEADLINE: u64 = u64::MAX;

struct Inner {
    cancelled: AtomicBool,
    /// Latched reason; only meaningful once `cancelled` is set. Encoded as
    /// 0 = Explicit, 1 = Deadline, 2 = Trip.
    reason: AtomicU64,
    /// Anchor instant the deadline is encoded against (construction time).
    anchor: Instant,
    /// Deadline as nanoseconds after `anchor`; [`NO_DEADLINE`] when none is
    /// attached. Atomic so [`CancelToken::tighten_deadline`] can shrink it
    /// on a token that is already shared across threads.
    deadline_nanos: AtomicU64,
    /// Remaining `check` calls before the test trip wire fires.
    trip_after: AtomicU64,
}

/// Shared cancellation handle (see module docs).
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.deadline())
            .finish()
    }
}

/// Tokens compare by identity: two handles are equal iff they control the
/// same underlying flag. (Required so `FlowOptions` can stay `PartialEq`.)
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for CancelToken {}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    fn with_deadline_opt(deadline: Option<Instant>) -> Self {
        let anchor = Instant::now();
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                reason: AtomicU64::new(0),
                anchor,
                deadline_nanos: AtomicU64::new(
                    deadline.map_or(NO_DEADLINE, |d| Self::encode(anchor, d)),
                ),
                trip_after: AtomicU64::new(TRIP_DISARMED),
            }),
        }
    }

    /// Encodes an absolute deadline as nanoseconds after `anchor`, saturating
    /// just below the [`NO_DEADLINE`] sentinel (~584 years out).
    fn encode(anchor: Instant, deadline: Instant) -> u64 {
        let nanos = deadline.saturating_duration_since(anchor).as_nanos();
        nanos.min(u128::from(NO_DEADLINE - 1)) as u64
    }

    /// The absolute deadline currently attached, if any.
    fn deadline(&self) -> Option<Instant> {
        let nanos = self.inner.deadline_nanos.load(Ordering::SeqCst);
        (nanos != NO_DEADLINE).then(|| self.inner.anchor + Duration::from_nanos(nanos))
    }

    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::with_deadline_opt(None)
    }

    /// A token that auto-cancels once `budget` of wall-clock time elapses
    /// (measured from now).
    pub fn with_deadline(budget: Duration) -> Self {
        Self::with_deadline_opt(Some(Instant::now() + budget))
    }

    /// Deterministic test hook: a token whose `n`-th [`CancelToken::check`]
    /// call trips it, independent of wall-clock time. `n == 0` trips on the
    /// very first check.
    pub fn cancel_after_checks(n: u64) -> Self {
        let token = Self::new();
        token.inner.trip_after.store(n, Ordering::Relaxed);
        token
    }

    /// Flips the token; every subsequent [`CancelToken::check`] fails.
    pub fn cancel(&self) {
        self.latch(CancelReason::Explicit);
    }

    /// Moves the deadline *earlier*, to at most `budget` from now. A token
    /// with no deadline (or a later one) adopts the new bound; an existing
    /// earlier deadline is kept. Used by the flow to merge a caller-supplied
    /// token with a per-request wall-clock budget — note the tightening is
    /// visible to every clone of the token.
    pub fn tighten_deadline(&self, budget: Duration) {
        let target = Self::encode(self.inner.anchor, Instant::now() + budget);
        self.inner
            .deadline_nanos
            .fetch_min(target, Ordering::SeqCst);
    }

    fn latch(&self, reason: CancelReason) {
        // First latch wins so the reported reason is stable.
        if !self.inner.cancelled.swap(true, Ordering::SeqCst) {
            let code = match reason {
                CancelReason::Explicit => 0,
                CancelReason::Deadline => 1,
                CancelReason::Trip => 2,
            };
            self.inner.reason.store(code, Ordering::SeqCst);
        }
    }

    fn latched_reason(&self) -> CancelReason {
        match self.inner.reason.load(Ordering::SeqCst) {
            1 => CancelReason::Deadline,
            2 => CancelReason::Trip,
            _ => CancelReason::Explicit,
        }
    }

    /// `true` once the token has been cancelled (without arming the trip
    /// wire or evaluating the deadline).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Wall-clock time left before the deadline (`None` when no deadline is
    /// attached; `Some(ZERO)` once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The cooperative checkpoint. Cheap enough for inner loops: one atomic
    /// load on the happy path (plus a clock read only when a deadline is
    /// attached).
    pub fn check(&self) -> Result<(), Cancelled> {
        // Test trip wire: counts *checks*, giving proptests a deterministic
        // cancellation point independent of machine speed.
        if self.inner.trip_after.load(Ordering::Relaxed) != TRIP_DISARMED
            && self.inner.trip_after.fetch_sub(1, Ordering::Relaxed) == 0
        {
            self.latch(CancelReason::Trip);
        }
        if !self.is_cancelled() {
            if let Some(deadline) = self.deadline() {
                if Instant::now() >= deadline {
                    self.latch(CancelReason::Deadline);
                }
            }
        }
        if self.is_cancelled() {
            Err(Cancelled {
                reason: self.latched_reason(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes_checks() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        for _ in 0..100 {
            assert!(t.check().is_ok());
        }
    }

    #[test]
    fn explicit_cancel_fails_all_later_checks() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        let err = clone.check().unwrap_err();
        assert_eq!(err.reason, CancelReason::Explicit);
    }

    #[test]
    fn deadline_in_past_trips_on_check() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        // is_cancelled alone does not evaluate the deadline...
        assert!(!t.is_cancelled());
        // ...but check() does, and latches.
        let err = t.check().unwrap_err();
        assert_eq!(err.reason, CancelReason::Deadline);
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn trip_wire_counts_checks_deterministically() {
        let t = CancelToken::cancel_after_checks(3);
        assert!(t.check().is_ok());
        assert!(t.check().is_ok());
        assert!(t.check().is_ok());
        let err = t.check().unwrap_err();
        assert_eq!(err.reason, CancelReason::Trip);
        // Stays tripped.
        assert!(t.check().is_err());
    }

    #[test]
    fn trip_zero_fires_on_first_check() {
        let t = CancelToken::cancel_after_checks(0);
        assert!(t.check().is_err());
    }

    #[test]
    fn tighten_deadline_only_shrinks() {
        // No deadline → adopts the budget.
        let t = CancelToken::new();
        assert_eq!(t.remaining(), None);
        t.tighten_deadline(Duration::from_secs(3600));
        let r = t.remaining().unwrap_or(Duration::ZERO);
        assert!(r > Duration::from_secs(3000), "budget adopted, got {r:?}");
        // Tightening to zero trips the next check with a Deadline reason,
        // on every clone.
        let clone = t.clone();
        t.tighten_deadline(Duration::ZERO);
        let err = clone.check().unwrap_err();
        assert_eq!(err.reason, CancelReason::Deadline);
        // Attempting to *loosen* is a no-op.
        let s = CancelToken::with_deadline(Duration::ZERO);
        s.tighten_deadline(Duration::from_secs(3600));
        assert!(s.check().is_err());
    }

    #[test]
    fn equality_is_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
