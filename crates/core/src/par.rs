//! Bounded parallel map over independent simulations.
//!
//! Every simulation within an optimization phase is independent (paper
//! Table V), so selection candidates, tuning and port sweep points, corner
//! and Monte-Carlo evaluations and the RO-VCO's control points all fan out
//! through [`par_map`]. It is the one place that decides how they are
//! scheduled: a fixed pool of scoped workers sized to the machine, pulling
//! item indices from a shared counter. A worker inherits the caller's
//! ambient [`SolveCtrl`](prima_spice::SolveCtrl), so a cancel token the
//! caller installed reaches every solver an item builds. [`try_par_map`]
//! serves sweeps that need every item.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use prima_spice::{current_solve_ctrl, with_solve_ctrl};

/// Applies `f` to every item and returns the results in input order.
///
/// The pool is `available_parallelism().min(items.len())` scoped threads;
/// each pulls the next unclaimed index from one shared counter until the
/// items run out. With a width of 1 (one item, or one core) everything
/// runs inline on the caller and no thread is started. Every worker runs
/// under the caller's ambient `SolveCtrl`, as the inline path does.
///
/// Each call of `f` runs under `catch_unwind`: a panicking item yields its
/// own `Err(payload)` and every other item still runs.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<thread::Result<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let call = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item)));
    let width = thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len());
    if width <= 1 {
        return items.iter().map(call).collect();
    }
    let ctrl = current_solve_ctrl();
    // Relaxed suffices: the counter only hands out indices, and results
    // travel back through the joins.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, thread::Result<R>)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..width)
            .map(|_| {
                scope.spawn(|| {
                    with_solve_ctrl(ctrl.clone(), || {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            mine.push((i, call(item)));
                        }
                        mine
                    })
                })
            })
            .collect();
        // Every call is already caught, so a worker itself can only fail
        // outside `f`; re-raise that rather than lose results silently.
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// [`par_map`] for a sweep with no use for a partial result: walking the
/// results in input order, a panicking item re-raises its panic and an
/// item's `Err` is returned; every item has run either way.
///
/// # Errors
///
/// The first item error in input order, unless a panic precedes it.
pub fn try_par_map<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    par_map(items, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn width() -> usize {
        thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn keeps_input_order_with_more_items_than_workers() {
        let items: Vec<u64> = (0..(8 * width() as u64 + 5)).collect();
        let threads = Mutex::new(HashSet::new());
        let out = par_map(&items, |&x| {
            threads.lock().unwrap().insert(thread::current().id());
            // Uneven work so completion order differs from input order.
            thread::sleep(std::time::Duration::from_micros((x % 3) * 200));
            x * x
        });
        let out: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        assert!(threads.lock().unwrap().len() <= width());
    }

    #[test]
    fn a_panicking_item_returns_its_own_payload() {
        let items: Vec<u32> = (0..10).collect();
        let out = par_map(&items, |&x| {
            if x == 3 {
                panic!("item {x} failed");
            }
            x + 1
        });
        assert_eq!(out.len(), items.len());
        for (x, r) in items.iter().zip(out) {
            match r {
                Err(payload) => {
                    assert_eq!(*x, 3);
                    assert_eq!(
                        payload.downcast_ref::<String>().map(String::as_str),
                        Some("item 3 failed")
                    );
                }
                Ok(v) => assert_eq!(v, x + 1),
            }
        }
    }

    #[test]
    fn workers_run_under_the_callers_solve_ctrl() {
        use prima_spice::SolveCtrl;
        let token = crate::CancelToken::new();
        let items: Vec<u32> = (0..(4 * width() as u32 + 3)).collect();
        let ctrl = SolveCtrl {
            cancel: Some(token.clone()),
        };
        let seen = with_solve_ctrl(ctrl, || par_map(&items, |_| current_solve_ctrl().cancel));
        for cancel in seen {
            assert_eq!(cancel.unwrap(), Some(token.clone()));
        }
        // The caller's own scope is back to the default afterwards.
        assert!(current_solve_ctrl().cancel.is_none());
    }

    #[test]
    fn try_par_map_returns_the_first_failure_in_input_order() {
        let items: Vec<u32> = (0..12).collect();
        let ok: Result<Vec<u32>, u32> = try_par_map(&items, |&x| Ok(x * 2));
        assert_eq!(ok.unwrap(), items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let err = try_par_map(&items, |&x| if x % 5 == 3 { Err(x) } else { Ok(x) });
        assert_eq!(err, Err(3));
        // An error before a panicking item wins; a panic before an error
        // re-raises.
        let first_err = try_par_map(&items, |&x| match x {
            2 => Err(x),
            7 => panic!("item {x} failed"),
            _ => Ok(x),
        });
        assert_eq!(first_err, Err(2));
        let raised = catch_unwind(|| {
            try_par_map(&items, |&x| match x {
                2 => panic!("item {x} failed"),
                7 => Err(x),
                _ => Ok(x),
            })
        });
        let payload = raised.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 2 failed")
        );
    }

    #[test]
    fn empty_and_single_inputs_run_on_the_caller() {
        let caller = thread::current().id();
        let none: Vec<thread::Result<u8>> = par_map(&[] as &[u8], |_| unreachable!());
        assert!(none.is_empty());
        let one = par_map(&[7u8], |&x| (x, thread::current().id()));
        assert_eq!(one.len(), 1);
        let (v, ran_on) = one.into_iter().next().unwrap().unwrap();
        assert_eq!((v, ran_on), (7, caller));
    }
}
