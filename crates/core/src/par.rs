//! Bounded parallel map over independent simulations.
//!
//! Every simulation within an optimization phase is independent (paper
//! Table V), so selection candidates, tuning sweep points and port sweep
//! points all fan out through [`par_map`]. It is the one place that
//! decides how they are scheduled: a fixed pool of scoped workers sized to
//! the machine, pulling item indices from a shared counter.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Applies `f` to every item and returns the results in input order.
///
/// The pool is `available_parallelism().min(items.len())` scoped threads;
/// each pulls the next unclaimed index from one shared counter until the
/// items run out. With a width of 1 (one item, or one core) everything
/// runs inline on the caller and no thread is started.
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
    // Relaxed suffices: the counter only hands out indices, and results
    // travel back through the joins.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, thread::Result<R>)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..width)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, call(item)));
                    }
                    mine
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
