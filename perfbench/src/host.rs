//! Host measurements the standard library does not offer: the process
//! CPU clock that calls are timed with, and peak resident memory.
//!
//! On a small shared virtual machine the wall time inside a call also
//! counts the time the hypervisor ran someone else (steal) and, at
//! paper scale, the time the caller waited for the codec's fan-out
//! thread to be scheduled. Both vary from minute to minute and swamp
//! the cost of the call itself, so the benchmark charges each call the
//! CPU time the process spent in it — the caller's and the fan-out
//! threads' alike. Wall time is still reported beside it.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the clock_gettime binding and /proc/self/status assume 64-bit Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

const _: () = assert!(std::mem::size_of::<Timespec>() == 16);

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Peak resident set size of this process in MB: the `VmHWM`
/// high-water mark. (`getrusage`'s `ru_maxrss` is no substitute: it
/// keeps the high-water mark of the parent's image across `exec`, so
/// under `cargo run` it reports cargo's footprint.)
///
/// # Panics
///
/// Panics if `/proc/self/status` has no readable `VmHWM` line, which
/// every Linux kernel provides.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kib / 1024.0
}

/// A reading of the process CPU clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuInstant(u64);

impl CpuInstant {
    /// Reads the clock.
    ///
    /// # Panics
    ///
    /// Panics if the kernel rejects the clock id, which it supports
    /// on every 64-bit Linux.
    pub fn now() -> Self {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` in the
        // 64-bit Linux layout (the build is limited to that target and
        // its size is asserted above), so `clock_gettime` writes only
        // inside it.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        CpuInstant(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }

    /// Process CPU time since this reading.
    pub fn elapsed(self) -> Duration {
        CpuInstant::now().since(self)
    }

    /// CPU time from `earlier` to this reading.
    pub fn since(self, earlier: CpuInstant) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}
