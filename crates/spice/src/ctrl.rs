//! Ambient solver control: configurable iteration limits + cancellation.
//!
//! Testbenches construct `DcSolver` / `TranSolver` at many call sites deep
//! inside metric functions; threading limits and a cancel token through
//! every signature would churn the whole evaluation API. Instead the flow
//! installs a [`SolveCtrl`] into a thread-local scope around each candidate
//! evaluation ([`with_solve_ctrl`]), and solver constructors snapshot it.
//! The scope is per-thread, so parallel candidate workers re-install it in
//! their own closures (thread-locals do not propagate to spawned threads).
//!
//! Two things ride in the scope:
//!
//! * [`SolverLimits`] — Newton iteration caps, the gmin ladder, and source
//!   stepping counts that were previously hard-coded. A service honoring a
//!   wall-clock deadline needs the worst-case solve bounded; these are the
//!   bounds.
//! * an optional [`CancelToken`] — checked once per Newton iteration and at
//!   every strategy-rung/timestep boundary, so a cancelled or expired
//!   request unwinds in microseconds instead of finishing a doomed solve.

use std::cell::RefCell;

use prima_cache::CancelToken;

/// Iteration/strategy bounds for the nonlinear solvers. Defaults match the
/// historical hard-coded values, so an empty scope changes nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverLimits {
    /// Newton iterations per DC strategy rung.
    pub dc_max_iterations: usize,
    /// The gmin continuation ladder (descending conductances to ground).
    pub dc_gmin_ladder: Vec<f64>,
    /// Source-stepping point count for the DC fallback strategy.
    pub dc_source_steps: usize,
    /// Newton iterations per transient timestep.
    pub tran_max_newton: usize,
}

impl Default for SolverLimits {
    fn default() -> Self {
        SolverLimits {
            dc_max_iterations: 200,
            dc_gmin_ladder: vec![1e-3, 1e-5, 1e-7, 1e-9, 1e-12],
            dc_source_steps: 10,
            tran_max_newton: 60,
        }
    }
}

/// What a solver scope carries (see module docs).
#[derive(Debug, Clone, Default)]
pub struct SolveCtrl {
    /// Iteration/strategy bounds.
    pub limits: SolverLimits,
    /// Cooperative cancellation, if the caller wants any.
    pub cancel: Option<CancelToken>,
}

thread_local! {
    static CURRENT: RefCell<SolveCtrl> = RefCell::new(SolveCtrl::default());
}

/// Runs `f` with `ctrl` installed as this thread's ambient solver control,
/// restoring the previous scope afterwards (including on unwind, so a
/// caught candidate panic cannot leak a stale token into the next one).
pub fn with_solve_ctrl<R>(ctrl: SolveCtrl, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SolveCtrl>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
    }
    let prev = CURRENT.with(|c| std::mem::take(&mut *c.borrow_mut()));
    CURRENT.with(|c| *c.borrow_mut() = ctrl);
    let _restore = Restore(Some(prev));
    f()
}

/// Snapshot of the ambient control (what solver constructors read).
pub fn current_solve_ctrl() -> SolveCtrl {
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scope_matches_historical_limits() {
        let ctrl = current_solve_ctrl();
        assert_eq!(ctrl.limits.dc_max_iterations, 200);
        assert_eq!(ctrl.limits.dc_gmin_ladder.len(), 5);
        assert!(ctrl.cancel.is_none());
    }

    #[test]
    fn scope_installs_and_restores() {
        let limits = SolverLimits {
            dc_max_iterations: 7,
            ..SolverLimits::default()
        };
        let token = CancelToken::new();
        with_solve_ctrl(
            SolveCtrl {
                limits: limits.clone(),
                cancel: Some(token.clone()),
            },
            || {
                let inner = current_solve_ctrl();
                assert_eq!(inner.limits.dc_max_iterations, 7);
                assert_eq!(inner.cancel, Some(token.clone()));
                // Nested scopes shadow and restore.
                with_solve_ctrl(SolveCtrl::default(), || {
                    assert!(current_solve_ctrl().cancel.is_none());
                });
                assert_eq!(current_solve_ctrl().limits.dc_max_iterations, 7);
            },
        );
        assert_eq!(current_solve_ctrl().limits.dc_max_iterations, 200);
        assert!(current_solve_ctrl().cancel.is_none());
    }

    #[test]
    fn scope_restores_across_unwind() {
        let caught = std::panic::catch_unwind(|| {
            with_solve_ctrl(
                SolveCtrl {
                    limits: SolverLimits {
                        dc_max_iterations: 60,
                        dc_gmin_ladder: vec![1e-3, 1e-6, 1e-9, 1e-12],
                        dc_source_steps: 6,
                        tran_max_newton: 30,
                    },
                    cancel: Some(CancelToken::new()),
                },
                || panic!("candidate died"),
            )
        });
        assert!(caught.is_err());
        assert!(current_solve_ctrl().cancel.is_none());
        assert_eq!(current_solve_ctrl().limits.dc_max_iterations, 200);
    }

    #[test]
    fn scoped_solvers_pick_up_limits() {
        use crate::analysis::dc::DcSolver;
        let limits = SolverLimits {
            dc_max_iterations: 3,
            dc_gmin_ladder: vec![1e-6],
            ..SolverLimits::default()
        };
        with_solve_ctrl(
            SolveCtrl {
                limits,
                cancel: None,
            },
            || {
                // A trivially-convergent circuit still solves under a
                // 3-iteration cap; the limits are observable via Debug.
                let s = DcSolver::new();
                let dbg = format!("{s:?}");
                assert!(dbg.contains("max_iterations: 3"), "{dbg}");
            },
        );
    }
}
