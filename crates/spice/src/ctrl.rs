//! Ambient solver control: cooperative cancellation.
//!
//! Testbenches construct `DcSolver` / `TranSolver` at many call sites deep
//! inside metric functions; threading a cancel token through every
//! signature would churn the whole evaluation API. Instead the flow
//! installs a [`SolveCtrl`] into a thread-local scope around each candidate
//! evaluation ([`with_solve_ctrl`]), and solver constructors snapshot it.
//! The scope is per-thread, so parallel candidate workers re-install it in
//! their own closures (thread-locals do not propagate to spawned threads).
//!
//! The scope carries one thing: an optional [`CancelToken`], checked once
//! per Newton iteration and at every strategy-rung/timestep boundary, so a
//! cancelled or expired request unwinds in microseconds instead of
//! finishing a doomed solve. The iteration bounds that cap a solve's worst
//! case are constants of the solvers themselves (`analysis::dc` and
//! `analysis::tran`), the same for every caller.

use std::cell::RefCell;

use prima_cache::CancelToken;

/// What a solver scope carries (see module docs).
#[derive(Debug, Clone, Default)]
pub struct SolveCtrl {
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
    fn scope_installs_and_restores() {
        let token = CancelToken::new();
        with_solve_ctrl(
            SolveCtrl {
                cancel: Some(token.clone()),
            },
            || {
                let inner = current_solve_ctrl();
                assert_eq!(inner.cancel, Some(token.clone()));
                // Nested scopes shadow and restore.
                with_solve_ctrl(SolveCtrl::default(), || {
                    assert!(current_solve_ctrl().cancel.is_none());
                });
                assert_eq!(current_solve_ctrl().cancel, Some(token.clone()));
            },
        );
        assert!(current_solve_ctrl().cancel.is_none());
    }

    #[test]
    fn scope_restores_across_unwind() {
        let caught = std::panic::catch_unwind(|| {
            with_solve_ctrl(
                SolveCtrl {
                    cancel: Some(CancelToken::new()),
                },
                || panic!("candidate died"),
            )
        });
        assert!(caught.is_err());
        assert!(current_solve_ctrl().cancel.is_none());
    }
}
