//! Scoped shard-parallel fan-out for the coding hot paths.
//!
//! Reed-Solomon work factors into per-shard jobs that touch disjoint
//! output slices: each parity shard of an encode and each missing data
//! shard of a decode is an independent dot product over the same
//! read-only inputs. [`for_each_job`] fans those jobs out round-robin
//! across `std::thread::available_parallelism()` scoped threads.
//!
//! The fan-out width is read once per process and cached: asking the
//! OS costs cgroup and affinity syscalls (~18 µs on a 2-vCPU container),
//! which on an all-hit read would cost more than the decode itself.
//!
//! Two guards keep the fan-out honest:
//!
//! - jobs smaller than [`PARALLEL_MIN_JOB_BYTES`] run sequentially —
//!   below that, spawn overhead exceeds the GF(2^8) kernel time;
//! - with one hardware thread (or one job) everything runs inline on
//!   the caller's stack.
//!
//! Either way each job runs exactly once with the same inputs and
//! writes only through its own slice, so the output is byte-identical
//! regardless of how many threads the host offers.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Per-job payload below which the fan-out is not worth a spawn
/// (~10 µs per thread vs ~1 µs per KiB of GF multiply).
pub(crate) const PARALLEL_MIN_JOB_BYTES: usize = 16 * 1024;

/// How many worker threads a fan-out may use (1 on a single-CPU host),
/// read from the OS on the first call and cached for the process.
pub(crate) fn shard_parallelism() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `f` once per job, spreading jobs round-robin over scoped
/// threads when both the job count and `job_bytes` (the payload each
/// job touches) justify it. Falls back to a plain sequential loop
/// otherwise — the two paths execute identical per-job work.
pub(crate) fn for_each_job<T, F>(jobs: Vec<T>, job_bytes: usize, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let workers = shard_parallelism().min(jobs.len());
    if workers <= 1 || job_bytes < PARALLEL_MIN_JOB_BYTES {
        for job in jobs {
            f(job);
        }
        return;
    }
    let mut lanes: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        lanes[i % workers].push(job);
    }
    std::thread::scope(|scope| {
        let mut lanes = lanes.into_iter();
        let own = lanes.next().expect("workers >= 1");
        for lane in lanes {
            let f = &f;
            scope.spawn(move || {
                for job in lane {
                    f(job);
                }
            });
        }
        // The caller's thread works its own lane instead of idling.
        for job in own {
            f(job);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_job_runs_exactly_once() {
        for (jobs, bytes) in [(0usize, 1 << 20), (1, 1 << 20), (7, 1 << 20), (64, 0)] {
            let hits = AtomicUsize::new(0);
            let mut outputs = vec![0u8; jobs];
            let slices: Vec<(usize, &mut u8)> = outputs.iter_mut().enumerate().collect();
            for_each_job(slices, bytes, |(i, out)| {
                *out = (i % 251) as u8 + 1;
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), jobs);
            for (i, &out) in outputs.iter().enumerate() {
                assert_eq!(out, (i % 251) as u8 + 1, "job {i} of {jobs}");
            }
        }
    }

    #[test]
    fn parallelism_is_at_least_one() {
        assert!(shard_parallelism() >= 1);
    }

    #[test]
    fn parallelism_is_cached_and_matches_the_os() {
        let first = shard_parallelism();
        for _ in 0..3 {
            assert_eq!(shard_parallelism(), first);
        }
        let os = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(first, os);
    }
}
