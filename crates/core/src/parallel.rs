//! Parallel execution of independent simulations.
//!
//! Each simulation is deterministic; a sweep of tens of points is embarrassingly
//! parallel.  The executor uses scoped threads pulling job indices from a shared
//! atomic counter (a lock-free work queue over `0..jobs`), with a mutex-guarded
//! result buffer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `jobs` independent work items on up to `threads` scoped threads,
/// preserving index order (the executor under [`crate::SweepRunner`]).
pub(crate) fn run_indexed<T, F>(jobs: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, jobs.max(1));
    let next_job = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..jobs).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next_job = &next_job;
            let results = &results;
            let work = &work;
            scope.spawn(move || loop {
                let index = next_job.fetch_add(1, Ordering::Relaxed);
                if index >= jobs {
                    break;
                }
                let value = work(index);
                results.lock().expect("result buffer poisoned")[index] = Some(value);
            });
        }
    });

    results
        .into_inner()
        .expect("result buffer poisoned")
        .into_iter()
        .map(|slot| slot.expect("every job must produce a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_for_any_thread_count() {
        for threads in [0, 1, 3, 64] {
            let out = run_indexed(17, threads, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_indexed(40, 4, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out.len(), 40);
        assert_eq!(calls.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(run_indexed(0, 2, |i| i).is_empty());
    }
}
