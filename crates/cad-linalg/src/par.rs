//! Deterministic scoped-thread fan-out for embarrassingly parallel work.
//!
//! The CAD pipeline has several index-addressed bulk computations — the
//! `k` Laplacian solves of the commute embedding, the `T` per-instance
//! oracle builds, the `T − 1` per-transition edge scorings — whose items
//! are independent and whose outputs must not depend on the degree of
//! parallelism. The helpers here stripe the index range over scoped
//! worker threads and collect results **in index order**, so:
//!
//! * the output `Vec` is identical (bit-for-bit, for float payloads)
//!   regardless of thread count, and
//! * when several items fail, the error reported is the one with the
//!   smallest index — exactly what a serial loop would have returned.
//!
//! No work-stealing, no channels, no dependencies: just
//! [`std::thread::scope`] plus one mutex-guarded slot per item. The
//! mutexes are uncontended (each slot is written once by one thread) so
//! the overhead is a pointer write per item.
//!
//! Workers record metrics into the calling thread's current
//! [`cad_obs::Registry`], so counters are the same for any thread count.

use std::sync::Mutex;

/// Resolve a `threads` knob to a concrete worker count: `0` means "one
/// per available CPU", anything else is taken as-is.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Compute `f(0), f(1), …, f(n − 1)` on up to `threads` workers and
/// return the results in index order.
///
/// `threads == 0` uses one worker per available CPU; `threads <= 1` (after
/// resolution) runs serially with no thread setup at all. Errors follow
/// serial semantics: the `Err` with the smallest index wins, even if a
/// later item failed first in wall-clock terms.
pub fn par_tabulate_result<U, E, F>(
    n: usize,
    threads: usize,
    f: F,
) -> std::result::Result<Vec<U>, E>
where
    U: Send,
    E: Send,
    F: Fn(usize) -> std::result::Result<U, E> + Sync,
{
    let workers = effective_threads(threads).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let slots: Vec<Mutex<Option<std::result::Result<U, E>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let registry = cad_obs::current();
    std::thread::scope(|scope| {
        for t in 0..workers {
            let f = &f;
            let slots = &slots;
            let registry = &registry;
            scope.spawn(move || {
                let _metrics = registry.enter();
                let mut i = t;
                while i < n {
                    let out = f(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                    i += workers;
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was assigned to a worker")
        })
        .collect()
}

/// Infallible [`par_tabulate_result`]: `f(0), …, f(n − 1)` in index
/// order.
pub fn par_tabulate<U, F>(n: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let out: std::result::Result<Vec<U>, std::convert::Infallible> =
        par_tabulate_result(n, threads, |i| Ok(f(i)));
    match out {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// Build items `0..n` and score every adjacent pair `(i, i + 1)`,
/// holding at most `effective_threads(threads) + 1` items at once.
///
/// Items are built in chunks of `effective_threads(threads)` on the
/// worker threads. After each chunk, `keep(i, &item)` sees every new
/// item on the calling thread in index order (to take what must outlive
/// it), then every pair whose items both exist is scored on the workers
/// with `pair(i, &item_i, &item_{i+1})`. Only the newest item is carried
/// into the next chunk; the rest are dropped. The `n − 1` pair results
/// come back in index order, so they are bit-identical for any thread
/// count. Each chunk's builds run under a `build_oracles` span and its
/// pair scoring under a `score_transitions` span.
///
/// Errors follow the serial order build 0, build 1, pair 0, build 2,
/// pair 1, …: a failed build is reported after the pairs of the items
/// built before it, and nothing past its chunk is built.
pub fn par_adjacent_pairs<O, P, E, B, K, S>(
    n: usize,
    threads: usize,
    build: B,
    mut keep: K,
    pair: S,
) -> std::result::Result<Vec<P>, E>
where
    O: Send + Sync,
    P: Send,
    E: Send,
    B: Fn(usize) -> std::result::Result<O, E> + Sync,
    K: FnMut(usize, &O),
    S: Fn(usize, &O, &O) -> std::result::Result<P, E> + Sync,
{
    let chunk = effective_threads(threads);
    let mut out = Vec::with_capacity(n.saturating_sub(1));
    let mut newest: Option<O> = None;
    for start in (0..n).step_by(chunk) {
        let end = (start + chunk).min(n);
        let built = {
            let _span = cad_obs::span!("build_oracles");
            par_tabulate(end - start, threads, |i| build(start + i))
        };
        // `live[j]` is item `first + j`: the carried one, then this
        // chunk's up to its first failure.
        let first = start - usize::from(newest.is_some());
        let mut live: Vec<O> = newest.take().into_iter().collect();
        let mut failed = None;
        for (i, item) in (start..).zip(built) {
            match item {
                Ok(item) => {
                    keep(i, &item);
                    live.push(item);
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        if live.len() > 1 {
            let _span = cad_obs::span!("score_transitions");
            out.extend(par_tabulate_result(live.len() - 1, threads, |j| {
                pair(first + j, &live[j], &live[j + 1])
            })?);
        }
        if let Some(e) = failed {
            return Err(e);
        }
        newest = live.pop();
    }
    Ok(out)
}

/// Map `f` over `items` in parallel, returning results in input order.
///
/// Convenience wrapper over [`par_tabulate_result`]; `f` receives the
/// item index alongside the item so callers can label or seed per-item
/// work deterministically.
pub fn par_map_result<T, U, E, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> std::result::Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> std::result::Result<U, E> + Sync,
{
    par_tabulate_result(items.len(), threads, |i| f(i, &items[i]))
}

/// Infallible parallel map over `items`, preserving input order.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_tabulate(items.len(), threads, |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabulate_matches_serial_for_any_thread_count() {
        let serial: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            let par = par_tabulate_result::<_, (), _>(37, threads, |i| Ok(i * i)).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input() {
        let out = par_tabulate_result::<usize, (), _>(0, 4, |_| unreachable!()).unwrap();
        assert!(out.is_empty());
        let items: [u8; 0] = [];
        assert!(par_map(&items, 4, |_, _| 0usize).is_empty());
    }

    #[test]
    fn first_error_in_index_order_wins() {
        // Items 5 and 20 both fail; the index-5 error must be reported
        // regardless of which worker finishes first.
        for threads in [1, 2, 8] {
            let out = par_tabulate_result::<usize, usize, _>(30, threads, |i| {
                if i == 5 || i == 20 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(out.unwrap_err(), 5, "threads = {threads}");
        }
    }

    #[test]
    fn map_preserves_order_and_passes_index() {
        let items = ["a", "bb", "ccc"];
        let out = par_map(&items, 2, |i, s| (i, s.len()));
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn float_results_bit_identical_across_thread_counts() {
        let f = |i: usize| -> std::result::Result<f64, ()> {
            // A value whose low mantissa bits depend on the computation.
            Ok((i as f64 + 0.1).sin() * 1e9)
        };
        let one = par_tabulate_result(100, 1, f).unwrap();
        for threads in [2, 5, 16] {
            let many = par_tabulate_result(100, threads, f).unwrap();
            for (a, b) in one.iter().zip(&many) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// An item that counts how many of its kind are alive.
    struct Live<'a> {
        i: usize,
        live: &'a std::sync::atomic::AtomicUsize,
    }

    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.live.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn adjacent_pairs_stream_with_at_most_threads_plus_one_items() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let serial: Vec<usize> = (0..9).map(|i| i * 10 + i + 1).collect();
        for threads in [1, 2, 3, 4, 16] {
            let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let mut kept = Vec::new();
            let out = par_adjacent_pairs::<_, _, (), _, _, _>(
                10,
                threads,
                |i| {
                    let now = live.fetch_add(1, SeqCst) + 1;
                    peak.fetch_max(now, SeqCst);
                    Ok(Live { i, live: &live })
                },
                |i, item| kept.push((i, item.i)),
                |i, a, b| {
                    assert_eq!((a.i, b.i), (i, i + 1));
                    Ok(a.i * 10 + b.i)
                },
            )
            .unwrap();
            assert_eq!(out, serial, "threads = {threads}");
            assert_eq!(kept, (0..10).map(|i| (i, i)).collect::<Vec<_>>());
            assert!(peak.load(SeqCst) <= threads + 1, "threads = {threads}");
            assert_eq!(live.load(SeqCst), 0, "every item is dropped");
        }
        let none = par_adjacent_pairs::<u8, u8, (), _, _, _>(
            1,
            4,
            |_| Ok(0),
            |_, _| {},
            |_, _, _| unreachable!(),
        );
        assert!(none.unwrap().is_empty());
    }

    #[test]
    fn adjacent_pair_errors_follow_the_serial_order() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        for threads in [1, 2, 4, 8] {
            // Build 3 fails: nothing past its chunk is built.
            let builds = AtomicUsize::new(0);
            let out = par_adjacent_pairs(
                12,
                threads,
                |i| {
                    builds.fetch_add(1, SeqCst);
                    if i == 3 {
                        Err(format!("build {i}"))
                    } else {
                        Ok(i)
                    }
                },
                |_, _| {},
                |i, _, _| Ok(i),
            );
            assert_eq!(out.unwrap_err(), "build 3", "threads = {threads}");
            assert!(builds.load(SeqCst) <= 4usize.next_multiple_of(threads));
            // Pair 0 runs before build 2 in a serial stream, so its error
            // wins whatever the chunking.
            let out = par_adjacent_pairs(
                12,
                threads,
                |i| if i == 2 { Err("build 2") } else { Ok(i) },
                |_, _| {},
                |i, _, _| if i == 0 { Err("pair 0") } else { Ok(i) },
            );
            assert_eq!(out.unwrap_err(), "pair 0", "threads = {threads}");
        }
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}
