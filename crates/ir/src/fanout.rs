//! The ordered fan-out primitive shared by the analysis driver, the batch
//! `/analyze` handlers of the service and the router, and the Table-1
//! harness.
//!
//! [`scoped_map`] evaluates a function over a slice on `width` scoped
//! worker threads and returns the results in item order no matter which
//! worker finished first, so a caller that merges them in that order is
//! deterministic at every width. A panicking item never takes a sibling
//! down with it. Nothing here reads the environment: callers resolve their
//! width first.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on up to `width` scoped worker threads and
/// returns the results in item order. `f` receives `(index, &item)`.
///
/// `width <= 1` (or a single item) runs sequentially on the calling
/// thread with no pool at all. A panicking call is isolated until every
/// item has been processed, then the first panic (in item order) is
/// re-raised with its original payload.
pub fn scoped_map<T, R, F>(items: &[T], width: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if width <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..width.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= items.len() {
                    break;
                }
                let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            });
        }
    });
    let mut results = Vec::with_capacity(items.len());
    let mut first_panic = None;
    for slot in slots {
        match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(Ok(r)) => results.push(r),
            Some(Err(payload)) => {
                first_panic.get_or_insert(payload);
            }
            None => unreachable!("every item index is claimed by some worker"),
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    results
}

/// Clamps a fan-out width to the number of items, never below one — the
/// shared rule for sizing a [`scoped_map`] call (the Table-1 harness over
/// its selected benchmarks, the batch `/analyze` handler over its items):
/// spawning more workers than items buys nothing.
pub fn clamped_width(width: usize, items: usize) -> usize {
    width.min(items).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order_at_every_width() {
        let items: Vec<usize> = (0..37).collect();
        let sequential = scoped_map(&items, 1, |i, &x| (i, x * x));
        for width in [2, 4, 16] {
            assert_eq!(scoped_map(&items, width, |i, &x| (i, x * x)), sequential);
        }
    }

    #[test]
    fn reraises_the_first_panic_in_item_order() {
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            scoped_map(&items, 4, |_, &x| {
                if x % 5 == 3 {
                    panic!("boom at {x}");
                }
                x
            })
        })
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "boom at 3");
    }

    #[test]
    fn clamps_width_to_items_never_below_one() {
        assert_eq!(clamped_width(8, 3), 3);
        assert_eq!(clamped_width(2, 24), 2);
        assert_eq!(clamped_width(4, 0), 1);
        assert_eq!(clamped_width(0, 5), 1);
    }
}
