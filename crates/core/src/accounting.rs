//! Simulation-count accounting per optimization phase (paper Table V).
//!
//! Every metric evaluation is one "simulation". The counts per phase —
//! selection, tuning, port constraints — reproduce the paper's runtime
//! analysis, including the observation that simulations within a phase are
//! independent and parallelizable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Optimization phase a simulation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Algorithm 1 step 1: primitive selection.
    Selection,
    /// Algorithm 1 step 2: primitive tuning.
    Tuning,
    /// Algorithm 2 step 1: port-constraint generation.
    PortConstraints,
    /// Algorithm 2 step 2: reconciliation re-simulation.
    Reconciliation,
    /// PVT corner / Monte-Carlo mismatch re-evaluation of surviving
    /// candidates (the variation stage layered on top of Algorithm 1).
    Corners,
}

impl Phase {
    /// All phases in flow order.
    pub const ALL: [Phase; 5] = [
        Phase::Selection,
        Phase::Tuning,
        Phase::PortConstraints,
        Phase::Reconciliation,
        Phase::Corners,
    ];
}

/// Thread-safe simulation counter, cloneable across worker threads.
#[derive(Debug, Clone, Default)]
pub struct SimCounter {
    counts: Arc<[AtomicUsize; 5]>,
}

impl SimCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` simulations in a phase.
    pub fn record(&self, phase: Phase, n: usize) {
        self.counts[phase_index(phase)].fetch_add(n, Ordering::Relaxed);
    }

    /// Count for one phase.
    pub fn count(&self, phase: Phase) -> usize {
        self.counts[phase_index(phase)].load(Ordering::Relaxed)
    }

    /// Total across phases.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

fn phase_index(phase: Phase) -> usize {
    match phase {
        Phase::Selection => 0,
        Phase::Tuning => 1,
        Phase::PortConstraints => 2,
        Phase::Reconciliation => 3,
        Phase::Corners => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_per_phase() {
        let c = SimCounter::new();
        c.record(Phase::Selection, 60);
        c.record(Phase::Tuning, 21);
        c.record(Phase::PortConstraints, 32);
        c.record(Phase::Selection, 1);
        assert_eq!(c.count(Phase::Selection), 61);
        assert_eq!(c.count(Phase::Tuning), 21);
        assert_eq!(c.total(), 114);
    }

    #[test]
    fn clones_share_state() {
        let c = SimCounter::new();
        let c2 = c.clone();
        std::thread::spawn(move || c2.record(Phase::Tuning, 5))
            .join()
            .unwrap();
        assert_eq!(c.count(Phase::Tuning), 5);
    }
}
