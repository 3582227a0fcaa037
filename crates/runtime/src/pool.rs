//! Deterministic self-scheduling thread pool on `std::thread::scope`.
//!
//! Workers claim task indices from a shared atomic counter (dynamic load
//! balancing, like work stealing but without per-thread deques) and stash
//! `(index, result)` pairs locally; after the scope joins, results are
//! merged back into task-index order. Scheduling therefore affects only
//! wall-clock time, never the output — provided each task is itself a
//! pure function of its index (see [`crate::seed`] for deriving per-task
//! RNG streams).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use greednet_telemetry::{PoolStats, WorkerStats};

/// Number of hardware threads, with a fallback of 1.
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f(0..tasks)` on up to `threads` worker threads and returns the
/// results in task-index order.
///
/// `threads == 1` (or a single task) short-circuits to a plain serial
/// loop on the calling thread; `threads == 0` is treated as 1. The
/// output is bitwise-identical for every thread count as long as `f` is
/// a pure function of its index.
///
/// # Panics
/// Propagates a panic from any task (the scope joins all workers first).
#[expect(
    clippy::expect_used,
    reason = "the atomic claim counter hands each index to exactly one worker and the scope joins them all, so every slot is filled; a propagated worker panic exits first"
)]
pub fn parallel_map_indexed<T, F>(threads: usize, tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(tasks.max(1));
    if threads <= 1 {
        return (0..tasks).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        produced.push((i, f(i)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            let produced = match handle.join() {
                Ok(p) => p,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for (i, value) in produced {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every task index was claimed exactly once"))
        .collect()
}

/// [`parallel_map_indexed`] with per-worker wall-clock accounting.
///
/// Returns the task results (in task-index order, exactly as the
/// unprofiled variant — profiling never touches the result path) plus a
/// [`PoolStats`] recording, per worker, how many tasks it executed and
/// how long it spent inside them, along with the fork-to-join wall time.
/// A serial run (`threads <= 1` or a single task) reports one
/// pseudo-worker. The stats are wall-clock data and therefore
/// non-deterministic: they belong in a telemetry side-channel, never in
/// deterministic output.
///
/// # Panics
/// Propagates a panic from any task (the scope joins all workers first).
#[expect(
    clippy::expect_used,
    reason = "same slot-claim invariant as the unprofiled pool above: each index is claimed once and all workers are joined before slots are read"
)]
#[expect(
    clippy::disallowed_methods,
    reason = "per-worker wall-clock accounting; the stats never touch the result path"
)]
pub fn parallel_map_indexed_profiled<T, F>(
    threads: usize,
    tasks: usize,
    f: F,
) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(tasks.max(1));
    let wall_start = Instant::now();
    if threads <= 1 {
        let mut worker = WorkerStats::default();
        let out = (0..tasks)
            .map(|i| {
                let t0 = Instant::now();
                let value = f(i);
                worker.record_task(t0.elapsed());
                value
            })
            .collect();
        let mut stats = PoolStats::new(1);
        stats.workers[0] = worker;
        stats.wall = wall_start.elapsed();
        return (out, stats);
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let mut stats = PoolStats::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut produced = Vec::new();
                    let mut worker = WorkerStats::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        let t0 = Instant::now();
                        produced.push((i, f(i)));
                        worker.record_task(t0.elapsed());
                    }
                    (produced, worker)
                })
            })
            .collect();
        for (w, handle) in handles.into_iter().enumerate() {
            let (produced, worker) = match handle.join() {
                Ok(p) => p,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            stats.workers[w] = worker;
            for (i, value) in produced {
                slots[i] = Some(value);
            }
        }
    });
    stats.wall = wall_start.elapsed();
    let out = slots
        .into_iter()
        .map(|slot| slot.expect("every task index was claimed exactly once"))
        .collect();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_task_order() {
        let out = parallel_map_indexed(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let serial = parallel_map_indexed(1, 37, |i| crate::seed::child_seed(7, i as u64));
        for threads in [2, 3, 8] {
            let par = parallel_map_indexed(threads, 37, |i| crate::seed::child_seed(7, i as u64));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn zero_tasks_and_zero_threads() {
        assert!(parallel_map_indexed(0, 0, |i| i).is_empty());
        assert_eq!(parallel_map_indexed(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn uneven_task_durations_balance() {
        // Tasks with wildly uneven costs still come back in order.
        let out = parallel_map_indexed(4, 16, |i| {
            let mut acc = 0u64;
            for k in 0..(if i % 4 == 0 { 200_000 } else { 10 }) {
                acc = acc.wrapping_add(crate::seed::child_seed(k, i as u64));
            }
            (i, acc)
        });
        for (slot, (i, _)) in out.iter().enumerate() {
            assert_eq!(slot, *i);
        }
    }

    #[test]
    fn profiled_results_match_unprofiled_and_account_every_task() {
        let plain = parallel_map_indexed(4, 50, |i| crate::seed::child_seed(3, i as u64));
        for threads in [1usize, 4] {
            let (out, stats) = parallel_map_indexed_profiled(threads, 50, |i| {
                crate::seed::child_seed(3, i as u64)
            });
            assert_eq!(out, plain, "threads={threads}");
            assert_eq!(stats.total_tasks(), 50);
            assert_eq!(stats.workers.len(), threads);
        }
        // Zero tasks: no workers panic, nothing accounted.
        let (empty, stats) = parallel_map_indexed_profiled(4, 0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(stats.total_tasks(), 0);
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn task_panics_propagate() {
        let _ = parallel_map_indexed(2, 8, |i| {
            assert!(i != 3, "task 3 exploded");
            i
        });
    }
}
