//! The benchmark's own job pool: the calling thread plus `workers - 1`
//! spawned threads claim jobs in input order from one atomic cursor.
//!
//! The benchmark pins `workers` to 2, so a job-pool workload never has
//! more than two live threads, and every job runs its bank shards inline
//! (`Parallelism::with_workers(1)`): the pool is never nested inside a
//! shard pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads every workload uses (the calling thread included).
pub const WORKERS: usize = 2;

/// One finished job.
pub struct Done<R> {
    /// The job's result.
    pub out: R,
    /// Host seconds the job ran.
    pub busy_s: f64,
}

/// Runs `f` over `jobs` on [`WORKERS`] threads; results keep input order.
pub fn run<J, R, F>(jobs: &[J], f: F) -> Vec<Done<R>>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Done<R>>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    let work = || loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(index) else { break };
        let start = Instant::now();
        let out = f(job);
        let busy_s = start.elapsed().as_secs_f64();
        slots.lock().expect("no worker panicked")[index] = Some(Done { out, busy_s });
    };
    std::thread::scope(|scope| {
        for _ in 1..WORKERS {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_inner()
        .expect("no worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}
