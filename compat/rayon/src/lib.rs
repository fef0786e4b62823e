//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a dependency-free data-parallelism shim with the `rayon` API subset the
//! Jellyfish reproduction uses (see DESIGN.md, substitution 5):
//! `par_iter()` / `into_par_iter()`, `map`, `collect`, `for_each`.
//!
//! Semantics match rayon where it matters for this workspace:
//!
//! * **Order preservation** — `collect()` yields results in input order, so a
//!   parallel sweep is item-for-item identical to the serial loop;
//! * **Deterministic results** regardless of thread count or scheduling:
//!   items never observe each other;
//! * **Load balancing** — workers claim items from a shared atomic counter,
//!   so an expensive item does not serialize the rest of the batch.
//!
//! There is deliberately no reducer (`sum`, `fold`, `reduce`, …): a parallel
//! chain ends in `collect` or `for_each`, and a reduction is a serial fold
//! over the collected results, in input order. That is the determinism rule
//! D04 (LINTS.md): a float reduction whose grouping followed work-stealing
//! order would print different bytes on a different core count, so here it
//! does not compile.
//!
//! The implementation is eager (the whole input is materialized, then
//! processed on `std::thread::scope` workers), which is fine at the
//! granularity this workspace parallelizes: per-source BFS sweeps, per-pair
//! path computations, per-figure-point solver runs. With a single available
//! core the shim degrades to a plain serial loop with no thread overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Everything a caller needs to write `x.par_iter().map(f).collect()`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Number of worker threads used for parallel batches.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn run_parallel<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot poisoned")
                    .take()
                    .expect("item claimed twice");
                let out = f(item);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned").expect("worker skipped an item"))
        .collect()
}

/// A parallel iterator: an eager pipeline over an owned batch of items.
pub trait ParallelIterator: Sized {
    /// The element type this stage produces.
    type Item: Send;

    /// Evaluates the pipeline and returns the results in input order.
    fn drive(self) -> Vec<Self::Item>;

    /// Maps every item through `f` in parallel.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Collects the results, preserving input order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drive().into_iter().collect()
    }

    /// Runs `f` on every item in parallel (no result).
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        let _ = Map { base: self, f: |x| f(x) }.drive();
    }
}

/// Source stage over an owned `Vec` (or anything converted into one).
pub struct IntoIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for IntoIter<T> {
    type Item = T;

    fn drive(self) -> Vec<T> {
        self.items
    }
}

/// A `map` stage.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync + Send,
{
    type Item = R;

    fn drive(self) -> Vec<R> {
        run_parallel(self.base.drive(), &self.f)
    }
}

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Concrete iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = IntoIter<T>;

    fn into_par_iter(self) -> IntoIter<T> {
        IntoIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = IntoIter<usize>;

    fn into_par_iter(self) -> IntoIter<usize> {
        IntoIter { items: self.collect() }
    }
}

/// Conversion into a parallel iterator over references.
pub trait IntoParallelRefIterator<'a> {
    /// Element type (a reference).
    type Item: Send;
    /// Concrete iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Borrowing parallel iterator (`slice.par_iter()`).
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = IntoIter<&'a T>;

    fn par_iter(&'a self) -> IntoIter<&'a T> {
        IntoIter { items: self.iter().collect() }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = IntoIter<&'a T>;

    fn par_iter(&'a self) -> IntoIter<&'a T> {
        IntoIter { items: self.iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_borrows() {
        let data = vec![1u64, 2, 3, 4];
        let out: Vec<u64> = data.par_iter().map(|&x| x + 10).collect();
        assert_eq!(out, vec![11, 12, 13, 14]);
        assert_eq!(data.len(), 4, "input still usable after par_iter");
    }

    #[test]
    fn uneven_work_is_balanced_and_ordered() {
        // Items with wildly different costs still come back in order.
        let out: Vec<usize> = (0..64)
            .into_par_iter()
            .map(|i| {
                if i % 7 == 0 {
                    (0..(i * 1000)).fold(0usize, usize::wrapping_add) % 2 + i
                } else {
                    i
                }
            })
            .collect();
        for (i, &v) in out.iter().enumerate() {
            assert!(v == i || v == i + 1);
        }
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        (0..100).into_par_iter().for_each(|i| {
            counter.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(counter.into_inner(), 99 * 100 / 2);
    }

    #[test]
    fn chained_maps_compose() {
        let out: Vec<String> =
            (0..5).into_par_iter().map(|i| i + 1).map(|i| i.to_string()).collect();
        assert_eq!(out, vec!["1", "2", "3", "4", "5"]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }
}
