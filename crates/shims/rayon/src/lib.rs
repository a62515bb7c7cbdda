//! A minimal, API-compatible stand-in for the parts of `rayon` this
//! workspace uses, implemented on `std::thread::scope`.
//!
//! The build environment has no access to crates.io, so the real rayon
//! cannot be vendored.  This shim keeps the call sites untouched
//! (`into_par_iter().map(..).collect()`, `par_iter().for_each(..)`,
//! `filter(..).map(..).sum()`) and still executes them in parallel: the
//! index space of the base producer (a range or a slice) is split into one
//! contiguous chunk per available core and each chunk runs on its own
//! scoped thread.
//!
//! Only *indexed* producers are supported, which is all the workspace
//! needs; adapters (`map`, `filter`) compose by index delegation, so
//! ordered `collect` stays deterministic: chunk results are concatenated
//! in chunk order, which for 1:1 adapters reproduces the sequential order
//! exactly.
//!
//! The worker count is [`current_num_threads`]: `RAYON_NUM_THREADS` when it
//! is set to a positive number, read once per process as real rayon reads
//! it when its global pool starts, else one worker per available core.

use std::ops::Range;
use std::sync::OnceLock;

pub mod prelude {
    //! The rayon prelude: the traits call sites import with `use
    //! rayon::prelude::*`.
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

/// Most workers a `RAYON_NUM_THREADS` value can ask for.  A larger value is
/// capped here, so a stray setting can never make one parallel call start
/// thousands of threads.
const MAX_ENV_THREADS: usize = 64;

/// The number of workers parallel iterators split their work across:
/// `RAYON_NUM_THREADS` when it holds a positive number (capped at 64),
/// else the available parallelism.  Read once per process; `0` and values
/// that are not numbers fall back to the default, as in rayon.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let env = std::env::var("RAYON_NUM_THREADS").ok();
        threads_from_env(env.as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// The worker count a `RAYON_NUM_THREADS` value asks for, if it asks for
/// one: a positive number, capped at [`MAX_ENV_THREADS`].
fn threads_from_env(value: Option<&str>) -> Option<usize> {
    let n: usize = value?.trim().parse().ok()?;
    (n > 0).then(|| n.min(MAX_ENV_THREADS))
}

/// How `n > 0` base indices split across `workers`: `(chunks, chunk
/// length)`, one scoped thread per chunk.  Ceiling-sized chunks can cover
/// `n` in fewer chunks than workers (10 items over 8 workers is five chunks
/// of two), so the chunk count is recomputed from the length and no thread
/// is handed an empty or inverted range.
fn split(n: usize, workers: usize) -> (usize, usize) {
    let chunk = n.div_ceil(workers.clamp(1, n));
    (n.div_ceil(chunk), chunk)
}

/// Run `produce` for every index in `[0, n)`, split across scoped threads,
/// collecting per-chunk buffers in chunk order.
fn collect_chunks<I: ParallelIterator>(it: &I) -> Vec<Vec<I::Item>> {
    let n = it.base_len();
    if n == 0 {
        return Vec::new();
    }
    let (chunks, chunk) = split(n, current_num_threads());
    if chunks <= 1 {
        let mut local = Vec::with_capacity(n);
        for i in 0..n {
            it.produce(i, &mut |x| local.push(x));
        }
        return vec![local];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..chunks)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                s.spawn(move || {
                    let mut local = Vec::with_capacity(hi - lo);
                    for i in lo..hi {
                        it.produce(i, &mut |x| local.push(x));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The subset of rayon's `ParallelIterator` this workspace uses.
///
/// `base_len` / `produce` are the plumbing: every iterator is driven by the
/// index space of its base producer, and adapters forward `produce` calls,
/// emitting zero or more items per index into the sink.
pub trait ParallelIterator: Sized + Send + Sync {
    /// Item type produced by this iterator.
    type Item: Send;

    /// Length of the *base* index space (pre-`filter`).
    fn base_len(&self) -> usize;

    /// Produce the item(s) for base index `index` into `sink`.
    fn produce(&self, index: usize, sink: &mut dyn FnMut(Self::Item));

    /// Map every item through `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Send + Sync,
    {
        Map { inner: self, f }
    }

    /// Keep only items satisfying `pred`.
    fn filter<P>(self, pred: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Send + Sync,
    {
        Filter { inner: self, pred }
    }

    /// Run `f` on every item in parallel (unordered).
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        let n = self.base_len();
        if n == 0 {
            return;
        }
        let (chunks, chunk) = split(n, current_num_threads());
        if chunks <= 1 {
            for i in 0..n {
                self.produce(i, &mut |x| f(x));
            }
            return;
        }
        let it = &self;
        let f = &f;
        std::thread::scope(|s| {
            for t in 0..chunks {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                s.spawn(move || {
                    for i in lo..hi {
                        it.produce(i, &mut |x| f(x));
                    }
                });
            }
        });
    }

    /// Sum all items (chunk-local sums combined with a final sum).
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        collect_chunks(&self)
            .into_iter()
            .map(|chunk| chunk.into_iter().sum::<S>())
            .sum()
    }

    /// Collect into a container; for `Vec` this preserves base-index order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// Conversion into a parallel iterator (rayon's entry-point trait).
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;
    /// The iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Convert `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// `par_iter()` on collections, yielding shared references.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a shared reference).
    type Item: Send;
    /// The iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrowing parallel iterator over `&self`.
    fn par_iter(&'a self) -> Self::Iter;
}

/// Collection types constructible from a parallel iterator.
pub trait FromParallelIterator<T: Send> {
    /// Build the collection by draining `it`.
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self {
        collect_chunks(&it).into_iter().flatten().collect()
    }
}

// ---------------------------------------------------------------------------
// Base producers
// ---------------------------------------------------------------------------

/// Parallel iterator over an integer range.
pub struct RangeParIter<T> {
    start: T,
    len: usize,
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = RangeParIter<$t>;
            fn into_par_iter(self) -> RangeParIter<$t> {
                let len = if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                };
                RangeParIter { start: self.start, len }
            }
        }
        impl ParallelIterator for RangeParIter<$t> {
            type Item = $t;
            fn base_len(&self) -> usize {
                self.len
            }
            fn produce(&self, index: usize, sink: &mut dyn FnMut($t)) {
                sink(self.start + index as $t);
            }
        }
    )*};
}

impl_range_par_iter!(usize, u32, u64, i32, i64);

/// Parallel iterator over a slice.
pub struct SliceParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync + 'a> ParallelIterator for SliceParIter<'a, T> {
    type Item = &'a T;
    fn base_len(&self) -> usize {
        self.slice.len()
    }
    fn produce(&self, index: usize, sink: &mut dyn FnMut(&'a T)) {
        sink(&self.slice[index]);
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceParIter<'a, T>;
    fn par_iter(&'a self) -> SliceParIter<'a, T> {
        SliceParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = SliceParIter<'a, T>;
    fn par_iter(&'a self) -> SliceParIter<'a, T> {
        SliceParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = SliceParIter<'a, T>;
    fn into_par_iter(self) -> SliceParIter<'a, T> {
        SliceParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = SliceParIter<'a, T>;
    fn into_par_iter(self) -> SliceParIter<'a, T> {
        SliceParIter { slice: self }
    }
}

/// Parallel iterator over an owned `Vec` (items are cloned out by index; the
/// workspace only uses this with `Copy`-like data).
pub struct VecParIter<T> {
    items: Vec<T>,
}

impl<T: Send + Sync + Clone> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;
    fn into_par_iter(self) -> VecParIter<T> {
        VecParIter { items: self }
    }
}

impl<T: Send + Sync + Clone> ParallelIterator for VecParIter<T> {
    type Item = T;
    fn base_len(&self) -> usize {
        self.items.len()
    }
    fn produce(&self, index: usize, sink: &mut dyn FnMut(T)) {
        sink(self.items[index].clone());
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// `map` adapter.
pub struct Map<I, F> {
    inner: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Send + Sync,
{
    type Item = R;
    fn base_len(&self) -> usize {
        self.inner.base_len()
    }
    fn produce(&self, index: usize, sink: &mut dyn FnMut(R)) {
        self.inner.produce(index, &mut |x| sink((self.f)(x)));
    }
}

/// `filter` adapter.
pub struct Filter<I, P> {
    inner: I,
    pred: P,
}

impl<I, P> ParallelIterator for Filter<I, P>
where
    I: ParallelIterator,
    P: Fn(&I::Item) -> bool + Send + Sync,
{
    type Item = I::Item;
    fn base_len(&self) -> usize {
        self.inner.base_len()
    }
    fn produce(&self, index: usize, sink: &mut dyn FnMut(I::Item)) {
        self.inner.produce(index, &mut |x| {
            if (self.pred)(&x) {
                sink(x)
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn env_thread_count_is_positive_numbers_capped() {
        use super::{threads_from_env, MAX_ENV_THREADS};
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("0")), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some("two")), None);
        assert_eq!(threads_from_env(Some("-3")), None);
        assert_eq!(threads_from_env(Some("1")), Some(1));
        assert_eq!(threads_from_env(Some(" 8 ")), Some(8));
        // Pure parsing: no thread is started for the oversized values.
        assert_eq!(threads_from_env(Some("100000")), Some(MAX_ENV_THREADS));
        assert_eq!(
            threads_from_env(Some("99999999999999999999999")),
            None,
            "a value past usize is not a number of threads"
        );
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn split_never_hands_out_an_empty_chunk() {
        use super::split;
        assert_eq!(split(10, 8), (5, 2));
        assert_eq!(split(10, 2), (2, 5));
        assert_eq!(split(3, 8), (3, 1));
        assert_eq!(split(1, 4), (1, 1));
        assert_eq!(split(7, 0), (1, 7));
        for n in 1..200 {
            for workers in 1..=64 {
                let (chunks, chunk) = split(n, workers);
                assert!(
                    chunks <= workers && chunks * chunk >= n,
                    "{n} over {workers}"
                );
                assert!(
                    (chunks - 1) * chunk < n,
                    "{n} over {workers}: empty last chunk"
                );
            }
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn filter_map_sum() {
        let s: usize = (0..1000usize)
            .into_par_iter()
            .filter(|&i| i % 2 == 0)
            .map(|i| i)
            .sum();
        assert_eq!(s, (0..1000).filter(|i| i % 2 == 0).sum::<usize>());
    }

    #[test]
    fn for_each_runs_every_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        (0..5000usize).into_par_iter().for_each(|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5000);
    }

    #[test]
    fn par_iter_over_slices() {
        let pairs: Vec<(usize, usize)> = (0..100).map(|i| (i, i + 1)).collect();
        use std::sync::atomic::{AtomicUsize, Ordering};
        let total = AtomicUsize::new(0);
        pairs.par_iter().for_each(|&(a, b)| {
            total.fetch_add(a + b, Ordering::Relaxed);
        });
        assert_eq!(
            total.load(Ordering::Relaxed),
            (0..100).map(|i| 2 * i + 1).sum()
        );
    }

    #[test]
    fn empty_range_is_fine() {
        let v: Vec<usize> = (0..0usize).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }
}
