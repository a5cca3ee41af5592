//! Std-only scoped-thread worker pool with deterministic, ordered results.
//!
//! The whole Prospector pipeline reduces to re-evaluating candidate plans
//! over the sample window — per-sample simulations in `core::evaluate`,
//! per-candidate scoring in the proof plan's budget repair, per-budget-point
//! planning in the figure harnesses. All of those are embarrassingly
//! parallel, and none of them may change its answer when parallelized:
//! plans, figures and the CI determinism gate demand bit-identical output
//! at any thread count.
//!
//! This crate provides exactly that, with no dependencies beyond `std`
//! (the offline build has no `rayon`):
//!
//! * [`par_map`] / [`par_map_range`] — map a function over a slice or an
//!   index range on a scoped worker pool ([`std::thread::scope`]), workers
//!   pulling **chunks** off a shared atomic cursor. Results are collected
//!   **in input order**, so any fold over them is exactly the serial fold;
//!   combined with order-independent reductions (integer sums) in the
//!   callers, output is bit-identical to serial execution at every thread
//!   count.
//! * [`configured_threads`] — the pool width: `PROSPECTOR_THREADS` when
//!   set to a positive integer, otherwise
//!   [`std::thread::available_parallelism`].
//! * [`par_map_in`] / [`par_map_range_in`] — the same with an explicit
//!   thread count, for benchmarks and serial-vs-parallel equivalence tests
//!   that must not race on the process-global environment.
//!
//! A worker panic propagates out of the scope (the remaining work is
//! abandoned), matching the serial behavior of the first panicking item as
//! closely as a parallel run can.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker-pool width.
pub const THREADS_ENV: &str = "PROSPECTOR_THREADS";

/// The configured pool width: `PROSPECTOR_THREADS` when it parses as a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 when even that is unavailable). Re-read on every
/// call so tests and harnesses can flip the variable between runs.
pub fn configured_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `items` on the configured pool, returning results in
/// input order. `f` receives `(index, &item)`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_in(configured_threads(), items, f)
}

/// [`par_map`] with an explicit thread count (1 = inline serial).
pub fn par_map_in<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_range_in(threads, items.len(), |i| f(i, &items[i]))
}

/// Maps `f` over `0..n` on the configured pool, returning results in
/// index order.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_range_in(configured_threads(), n, f)
}

/// [`par_map_range`] with an explicit thread count (1 = inline serial).
///
/// The work queue is chunked: workers claim contiguous index ranges off an
/// atomic cursor, so scheduling is dynamic (a slow item does not stall the
/// other workers) while each result lands in its input slot.
pub fn par_map_range_in<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let threads = threads.min(n);
    // Several chunks per worker keeps the queue balanced without paying
    // one atomic claim per item.
    let chunk = (n / (threads * 4)).max(1);
    let num_chunks = n.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(num_chunks));

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= num_chunks {
                    break;
                }
                let start = c * chunk;
                let end = (start + chunk).min(n);
                let out: Vec<R> = (start..end).map(&f).collect();
                parts.lock().unwrap().push((start, out));
            });
        }
    });

    let mut parts = parts.into_inner().unwrap();
    parts.sort_unstable_by_key(|&(start, _)| start);
    debug_assert_eq!(parts.iter().map(|(_, p)| p.len()).sum::<usize>(), n);
    let mut out = Vec::with_capacity(n);
    for (_, mut part) in parts {
        out.append(&mut part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map_in(threads, &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn range_matches_serial_at_any_width() {
        let serial: Vec<usize> = (0..100).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 7, 100, 1000] {
            assert_eq!(par_map_range_in(threads, 100, |i| i * 3 + 1), serial);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map_range_in(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_range_in(8, 1, |i| i + 41), vec![41]);
        let none: [u8; 0] = [];
        assert_eq!(par_map_in(4, &none, |_, &b| b), Vec::<u8>::new());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counts: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        par_map_range_in(6, 50, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn float_sums_are_bit_identical_via_ordering() {
        // The contract callers rely on: reducing the ordered results gives
        // the same bits as the serial reduction.
        let vals: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 0.1)).collect();
        let serial: f64 = vals.iter().map(|v| v.sqrt()).sum();
        for threads in [2, 5, 16] {
            let mapped = par_map_in(threads, &vals, |_, v| v.sqrt());
            let total: f64 = mapped.iter().sum();
            assert_eq!(total.to_bits(), serial.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        par_map_range_in(4, 16, |i| {
            if i == 9 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn env_override_parses_and_falls_back() {
        // Serialized within this test: env mutation is process-global.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(configured_threads(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(configured_threads(), default_threads());
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(configured_threads(), default_threads());
        std::env::remove_var(THREADS_ENV);
        assert_eq!(configured_threads(), default_threads());
        assert!(configured_threads() >= 1);
    }
}
