//! Parallel parameter-sweep runner.
//!
//! Each simulation run is deterministic and single-threaded (a discrete-
//! event simulation must process events in global time order), so the
//! parallelism in this workspace is **across runs**: the experiment
//! harnesses fan configurations out over scoped worker threads that pull
//! jobs from a shared atomic cursor. Results come back in input order
//! regardless of completion order, so tables are reproducible.
//!
//! Each worker keeps the `(index, result, wall time)` triples it produced
//! and hands them back through its join handle; the caller thread puts
//! them back in input order.

use std::time::Instant;

use crate::shard::Cursor;

/// Wall-clock profile of one [`parallel_sweep_timed`] call.
#[derive(Debug, Clone, Default)]
pub struct SweepTiming {
    /// Wall time of the whole sweep, seconds.
    pub wall_s: f64,
    /// Per-job wall time, seconds, in input order.
    pub job_wall_s: Vec<f64>,
    /// Worker threads actually used.
    pub threads: usize,
}

/// Run `f` over every config, using up to `threads` worker threads.
/// Results are returned in the same order as `configs`.
///
/// `threads == 0` or `1`, or a single config, runs inline on the caller
/// thread (useful under `cargo test` and for debugging).
pub fn parallel_sweep<C, R, F>(configs: Vec<C>, threads: usize, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    parallel_sweep_timed(configs, threads, f).0
}

/// [`parallel_sweep`] plus a wall-clock profile: total sweep time and
/// per-job time in input order. Results are identical to the untimed
/// variant; only the profile varies run to run.
pub fn parallel_sweep_timed<C, R, F>(configs: Vec<C>, threads: usize, f: F) -> (Vec<R>, SweepTiming)
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let sweep_start = Instant::now();
    let n = configs.len();
    if n == 0 {
        return (Vec::new(), SweepTiming::default());
    }
    let threads = threads.clamp(1, n);
    let cursor = Cursor::new();
    let work = || {
        let mut done = Vec::new();
        loop {
            let idx = cursor.next();
            if idx >= n {
                return done;
            }
            let t0 = Instant::now();
            let r = f(&configs[idx]);
            done.push((idx, r, t0.elapsed().as_secs_f64()));
        }
    };
    let per_worker: Vec<Vec<(usize, R, f64)>> = if threads == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };

    let mut slots: Vec<Option<(R, f64)>> = (0..n).map(|_| None).collect();
    for (idx, r, dt) in per_worker.into_iter().flatten() {
        slots[idx] = Some((r, dt));
    }
    let (results, job_wall_s) =
        slots.into_iter().map(|s| s.expect("every job produced a result")).unzip();
    (results, SweepTiming { wall_s: sweep_start.elapsed().as_secs_f64(), job_wall_s, threads })
}

/// Pick a default worker count: the available parallelism, capped so
/// sweeps don't oversubscribe large machines. Callers that want another
/// width pass it explicitly (`--threads` on the CLI).
///
/// Thread count only changes how sweep jobs are scheduled onto workers,
/// never any simulated result (see the thread-count determinism tests).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_input_empty_output() {
        let out: Vec<u32> = parallel_sweep(Vec::<u32>::new(), 4, |c| *c);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let configs: Vec<u64> = (0..100).collect();
        let out = parallel_sweep(configs.clone(), 8, |c| c * 2);
        let expect: Vec<u64> = configs.iter().map(|c| c * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn inline_path_matches_parallel_path() {
        let configs: Vec<u64> = (0..37).collect();
        let seq = parallel_sweep(configs.clone(), 1, |c| c * c + 1);
        let par = parallel_sweep(configs, 4, |c| c * c + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn all_jobs_execute_exactly_once() {
        let counter = AtomicUsize::new(0);
        let configs: Vec<usize> = (0..64).collect();
        let out = parallel_sweep(configs, 6, |c| {
            counter.fetch_add(1, Ordering::Relaxed);
            *c
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = parallel_sweep(vec![1, 2], 32, |c| c + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn timed_variant_profiles_every_job() {
        for threads in [1, 4] {
            let configs: Vec<u64> = (0..10).collect();
            let (out, timing) = parallel_sweep_timed(configs, threads, |c| c + 1);
            assert_eq!(out, (1..=10).collect::<Vec<u64>>());
            assert_eq!(timing.job_wall_s.len(), 10);
            assert!(timing.job_wall_s.iter().all(|&t| t >= 0.0));
            assert!(timing.wall_s >= 0.0);
            assert_eq!(timing.threads, threads);
        }
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn results_survive_nontrivial_types() {
        // Heap-owning results exercise the join-handle handoff.
        let configs: Vec<usize> = (0..50).collect();
        let out = parallel_sweep(configs, 8, |c| vec![*c; 3]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i; 3]);
        }
    }
}
