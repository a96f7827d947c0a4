//! Fault injection and graceful-degradation bookkeeping for the flow.
//!
//! A production layout flow runs hundreds of candidate evaluations through
//! the simulator and a routing stage behind them; any of those can fail
//! (Newton non-convergence, router congestion, a winner flunking a
//! sign-off gate). This module holds the pieces that make every recovery
//! path deterministic and testable:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — a seeded, deterministic harness
//!   that forces candidate-evaluation failures (non-convergence or
//!   panics) and detail-route congestion on chosen nets, so CI can
//!   exercise the repair machinery without flaky timing tricks.
//! * [`EvalLedger`] — the record of every candidate evaluation that
//!   failed or panicked during Algorithm 1; the repair loop consults it
//!   so a candidate that already failed is never re-selected.
//! * [`RepairCursor`] — pure per-bin fallback bookkeeping used when a
//!   selected winner later fails a gate: advance to the next-best
//!   surviving candidate of the same aspect-ratio bin.
//! * [`RepairBudgets`] — explicit per-stage attempt limits so degradation
//!   is bounded, never a busy loop.
//! * [`ResilienceReport`] / [`Health`] — what the flow hands back: every
//!   degradation taken, retries spent, candidates lost, and a final
//!   health verdict.

use std::fmt;

/// Deterministic 64-bit FNV-1a over a seed, a name, and an index; the
/// basis of reproducible fault selection (no RNG state to carry around).
fn fault_hash(seed: u64, name: &str, index: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^= index;
    h = h.wrapping_mul(0x100000001b3);
    // Final avalanche so low bits are usable as a uniform fraction.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^ (h >> 33)
}

/// A fault forced into one candidate evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalFault {
    /// The evaluation reports Newton non-convergence (a typed error).
    NonConvergence,
    /// The evaluation panics mid-flight (tests `par_map`'s per-item catch).
    Panic,
}

/// Source of injected faults. The flow carries one of these through every
/// stage; the default implementation injects nothing, so production runs
/// pay only a virtual call per candidate.
pub trait FaultInjector: Sync {
    /// Fault to apply to candidate `candidate` of primitive `def`, if any.
    fn eval_fault(&self, def: &str, candidate: usize) -> Option<EvalFault> {
        let _ = (def, candidate);
        None
    }

    /// Number of detail-route attempts to force-fail for `net`.
    fn route_failures(&self, net: &str) -> u32 {
        let _ = net;
        0
    }
}

/// The no-op injector production flows run with.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// A deterministic, seeded fault schedule.
///
/// Which candidate evaluations fail is a pure function of
/// `(seed, def, candidate)`, so a plan reproduces exactly across runs and
/// machines; a zero plan (`FaultPlan::none()`) injects nothing at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into the per-candidate hash.
    pub seed: u64,
    /// Fraction of candidate evaluations forced into non-convergence,
    /// in `[0, 1]`.
    pub eval_fail_rate: f64,
    /// Specific candidate evaluations forced to panic:
    /// `(primitive def name, candidate index)`.
    pub eval_panics: Vec<(String, usize)>,
    /// Nets whose first `n` detail-route attempts are forced to report
    /// congestion: `(net, n)`.
    pub route_faults: Vec<(String, u32)>,
}

impl FaultPlan {
    /// A plan that injects nothing (the control arm).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A seeded plan with no faults configured yet.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the candidate-evaluation failure fraction.
    #[must_use]
    pub fn with_eval_fail_rate(mut self, rate: f64) -> Self {
        self.eval_fail_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Forces candidate `candidate` of `def` to panic during evaluation.
    #[must_use]
    pub fn with_eval_panic(mut self, def: &str, candidate: usize) -> Self {
        self.eval_panics.push((def.to_string(), candidate));
        self
    }

    /// Forces the first `failures` detail-route attempts of `net` to fail.
    #[must_use]
    pub fn with_route_fault(mut self, net: &str, failures: u32) -> Self {
        self.route_faults.push((net.to_string(), failures));
        self
    }

    /// `true` when the plan injects nothing.
    pub fn is_zero(&self) -> bool {
        self.eval_fail_rate <= 0.0 && self.eval_panics.is_empty() && self.route_faults.is_empty()
    }
}

impl FaultInjector for FaultPlan {
    fn eval_fault(&self, def: &str, candidate: usize) -> Option<EvalFault> {
        if self
            .eval_panics
            .iter()
            .any(|(d, c)| d == def && *c == candidate)
        {
            return Some(EvalFault::Panic);
        }
        if self.eval_fail_rate > 0.0 {
            let h = fault_hash(self.seed, def, candidate as u64);
            // Uniform fraction from the top 53 bits.
            let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
            if frac < self.eval_fail_rate {
                return Some(EvalFault::NonConvergence);
            }
        }
        None
    }

    fn route_failures(&self, net: &str) -> u32 {
        self.route_faults
            .iter()
            .filter(|(n, _)| n == net)
            .map(|&(_, c)| c)
            .sum()
    }
}

/// One candidate evaluation that failed during Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Primitive definition the candidate belonged to.
    pub def: String,
    /// Candidate index within the enumerated configuration list.
    pub candidate: usize,
    /// `true` when the evaluation panicked (vs. returning a typed error).
    pub panicked: bool,
    /// The failure, formatted.
    pub reason: String,
}

/// The record of failed candidate evaluations. Selection writes to it;
/// the repair loop reads it so no failed candidate is ever re-selected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalLedger {
    entries: Vec<LedgerEntry>,
}

impl EvalLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        EvalLedger::default()
    }

    /// Records one failed candidate evaluation.
    pub fn record(&mut self, def: &str, candidate: usize, panicked: bool, reason: String) {
        self.entries.push(LedgerEntry {
            def: def.to_string(),
            candidate,
            panicked,
            reason,
        });
    }

    /// `true` when candidate `candidate` of `def` is recorded as failed.
    pub fn is_failed(&self, def: &str, candidate: usize) -> bool {
        self.entries
            .iter()
            .any(|e| e.def == def && e.candidate == candidate)
    }

    /// Every recorded failure, in discovery order.
    pub fn failures(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Total candidates lost (failed or panicked).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing failed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many recorded failures were panics.
    pub fn panics(&self) -> usize {
        self.entries.iter().filter(|e| e.panicked).count()
    }
}

/// Per-bin fallback bookkeeping for gate repair: which rank of each
/// aspect-ratio bin is currently selected. Pure data, so the policy
/// ("advance to the next survivor not recorded as failed, within budget")
/// is property-testable without running a single simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairCursor {
    next_rank: Vec<usize>,
}

impl RepairCursor {
    /// A cursor over `n_bins` bins, all at their original winners.
    pub fn new(n_bins: usize) -> Self {
        RepairCursor {
            next_rank: vec![0; n_bins],
        }
    }

    /// The rank currently selected in `bin` (0 = original winner).
    pub fn current(&self, bin: usize) -> usize {
        self.next_rank.get(bin).copied().unwrap_or(0)
    }

    /// `true` when `bin` still has an untried candidate below `bin_len`.
    pub fn has_fallback(&self, bin: usize, bin_len: usize) -> bool {
        self.current(bin) + 1 < bin_len
    }

    /// Advances `bin` to its next candidate that is not recorded as failed
    /// in `ledger`, returning the new rank. `candidates` lists the bin's
    /// members best-first as `(def, candidate index)`. Returns `None` when
    /// the bin is exhausted; the cursor then pins past the end so repeated
    /// calls stay exhausted (termination is structural, not probabilistic).
    pub fn demote(
        &mut self,
        bin: usize,
        candidates: &[(String, usize)],
        ledger: &EvalLedger,
    ) -> Option<usize> {
        if bin >= self.next_rank.len() {
            return None;
        }
        let mut rank = self.next_rank[bin] + 1;
        while rank < candidates.len() {
            let (def, cand) = &candidates[rank];
            if !ledger.is_failed(def, *cand) {
                self.next_rank[bin] = rank;
                return Some(rank);
            }
            rank += 1;
        }
        self.next_rank[bin] = candidates.len().max(1);
        None
    }
}

/// Explicit per-stage attempt limits for the repair loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairBudgets {
    /// Detail-routing attempts per placement (first try + retries with
    /// perturbed net ordering). At least 1.
    pub route_attempts: u32,
    /// Full place/route/gate iterations (first try + candidate-fallback
    /// retries after a gate failure). At least 1.
    pub gate_attempts: u32,
}

impl Default for RepairBudgets {
    fn default() -> Self {
        RepairBudgets {
            route_attempts: 3,
            gate_attempts: 3,
        }
    }
}

/// Final health of a flow run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Health {
    /// No degradation of any kind: the result is exactly what a fault-free
    /// run produces.
    #[default]
    Clean,
    /// The flow completed and passed its gates, but took at least one
    /// documented degradation (lost candidates, retries, fallbacks).
    Degraded,
    /// The flow could not complete within its budgets.
    Failed,
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Health::Clean => "clean",
            Health::Degraded => "degraded",
            Health::Failed => "failed",
        })
    }
}

/// One degradation the flow took instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Stage that degraded: `"selection"`, `"tuning"`, `"routing"`,
    /// `"gate"`, `"erc"`.
    pub stage: String,
    /// Instance, net, or circuit the degradation applies to.
    pub scope: String,
    /// What the flow did about it.
    pub action: String,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.stage, self.scope, self.action)
    }
}

/// Everything a flow run reports about its own resilience: every
/// degradation taken, retries spent, candidates lost, and the verdict.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceReport {
    /// Final health verdict.
    pub health: Health,
    /// Every degradation, in the order taken.
    pub degradations: Vec<Degradation>,
    /// Candidate evaluations lost during Algorithm 1 (from the ledger).
    pub candidates_lost: usize,
    /// Of the lost candidates, how many panicked.
    pub candidate_panics: usize,
    /// Detail-routing retries spent (beyond each first attempt).
    pub route_retries: u32,
    /// Gate-failure repair iterations spent (beyond the first).
    pub gate_retries: u32,
}

impl ResilienceReport {
    /// A pristine report (health [`Health::Clean`], nothing recorded).
    pub fn new() -> Self {
        ResilienceReport::default()
    }

    /// Records a degradation and downgrades health to
    /// [`Health::Degraded`] (unless already [`Health::Failed`]).
    pub fn record(&mut self, stage: &str, scope: &str, action: String) {
        self.degradations.push(Degradation {
            stage: stage.to_string(),
            scope: scope.to_string(),
            action,
        });
        if self.health == Health::Clean {
            self.health = Health::Degraded;
        }
    }

    /// Folds the ledger's losses into the report (and the verdict).
    pub fn absorb_ledger(&mut self, ledger: &EvalLedger) {
        self.candidates_lost = ledger.len();
        self.candidate_panics = ledger.panics();
        if self.candidates_lost > 0 && self.health == Health::Clean {
            self.health = Health::Degraded;
        }
    }

    /// `true` when the run took no degradation at all.
    pub fn is_clean(&self) -> bool {
        self.health == Health::Clean
            && self.degradations.is_empty()
            && self.candidates_lost == 0
            && self.route_retries == 0
            && self.gate_retries == 0
    }

    /// One-line summary for bench reports.
    pub fn summary(&self) -> String {
        format!(
            "health {} — {} degradation(s), {} candidate(s) lost ({} panicked), \
             {} route retry(ies), {} gate retry(ies)",
            self.health,
            self.degradations.len(),
            self.candidates_lost,
            self.candidate_panics,
            self.route_retries,
            self.gate_retries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic_and_seeded() {
        let plan = FaultPlan::new(7).with_eval_fail_rate(0.3);
        for cand in 0..50 {
            assert_eq!(plan.eval_fault("dp", cand), plan.eval_fault("dp", cand));
        }
        // A different seed gives a different (but still deterministic)
        // pattern over enough candidates.
        let other = FaultPlan::new(8).with_eval_fail_rate(0.3);
        let a: Vec<_> = (0..64).map(|c| plan.eval_fault("dp", c)).collect();
        let b: Vec<_> = (0..64).map(|c| other.eval_fault("dp", c)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn fault_rate_hits_roughly_the_requested_fraction() {
        let plan = FaultPlan::new(3).with_eval_fail_rate(0.3);
        let hits = (0..1000)
            .filter(|&c| plan.eval_fault("cm", c).is_some())
            .count();
        assert!((200..400).contains(&hits), "hit {hits}/1000 at rate 0.3");
    }

    #[test]
    fn eval_panics_and_route_faults_are_exact() {
        let plan = FaultPlan::new(1)
            .with_eval_panic("dp", 4)
            .with_route_fault("vout", 2);
        assert_eq!(plan.eval_fault("dp", 4), Some(EvalFault::Panic));
        assert_eq!(plan.eval_fault("dp", 5), None);
        assert_eq!(plan.route_failures("vout"), 2);
        assert_eq!(plan.route_failures("vin"), 0);
        assert!(!plan.is_zero());
        assert!(FaultPlan::none().is_zero());
    }

    #[test]
    fn ledger_records_and_looks_up() {
        let mut ledger = EvalLedger::new();
        assert!(ledger.is_empty());
        ledger.record("dp", 3, false, "no convergence".into());
        ledger.record("dp", 9, true, "panicked".into());
        assert!(ledger.is_failed("dp", 3));
        assert!(ledger.is_failed("dp", 9));
        assert!(!ledger.is_failed("dp", 4));
        assert!(!ledger.is_failed("cm", 3));
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.panics(), 1);
    }

    #[test]
    fn cursor_skips_ledger_failures_and_exhausts() {
        let mut ledger = EvalLedger::new();
        ledger.record("dp", 11, false, "failed".into());
        let bin: Vec<(String, usize)> = [10usize, 11, 12]
            .iter()
            .map(|&c| ("dp".to_string(), c))
            .collect();
        let mut cursor = RepairCursor::new(1);
        assert_eq!(cursor.current(0), 0);
        // Rank 1 (candidate 11) is failed — the cursor lands on rank 2.
        assert_eq!(cursor.demote(0, &bin, &ledger), Some(2));
        assert_eq!(cursor.current(0), 2);
        // Nothing left.
        assert_eq!(cursor.demote(0, &bin, &ledger), None);
        assert_eq!(cursor.demote(0, &bin, &ledger), None);
    }

    #[test]
    fn report_health_transitions() {
        let mut r = ResilienceReport::new();
        assert!(r.is_clean());
        assert_eq!(r.health, Health::Clean);
        r.record("routing", "vout", "retried with perturbed order".into());
        assert_eq!(r.health, Health::Degraded);
        assert!(!r.is_clean());
        assert!(r.summary().contains("degraded"));
    }
}
