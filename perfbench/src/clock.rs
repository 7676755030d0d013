//! Host clocks: a cheap tick counter for spans, process CPU time and
//! the memory high-water mark.
//!
//! Spans read the x86-64 time-stamp counter (a fenced `rdtsc`, no syscall);
//! other targets fall back to `Instant`.  [`Calibration`] converts ticks
//! to nanoseconds and measures what one timed call costs, so span
//! durations can be corrected for the timer's own overhead.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Current tick count (monotonic per machine with an invariant TSC).
///
/// The fences keep the read in program order: a bare `rdtsc` may issue
/// before the timed call's own instructions retire, which makes short
/// calls read too fast by an amount that depends on the surrounding code.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_lfence, _rdtsc};
        // SAFETY: `lfence` and `rdtsc` only order and read the
        // time-stamp counter.
        #[allow(unused_unsafe)]
        unsafe {
            _mm_lfence();
            let t = _rdtsc();
            _mm_lfence();
            t
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Tick-to-nanosecond conversion and timer-overhead constants.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Nanoseconds per tick.
    pub ns_per_tick: f64,
    /// Part of a timed call's overhead that lands *inside* its span
    /// (ns): the mean reading of an empty timed call.
    pub inside_ns: f64,
    /// Part that lands *outside* the span, in the caller's self time
    /// (ns): the full cost of an empty timed call minus `inside_ns`.
    pub outside_ns: f64,
}

impl Calibration {
    /// Measures the tick rate against `Instant` over ~30 ms and the cost
    /// of an empty timed call over 200 000 repetitions.
    pub fn measure() -> Self {
        let wall = Instant::now();
        let t0 = ticks();
        while wall.elapsed() < Duration::from_millis(30) {
            std::hint::spin_loop();
        }
        let elapsed = wall.elapsed();
        let t1 = ticks();
        let ns_per_tick = elapsed.as_nanos() as f64 / (t1 - t0).max(1) as f64;

        const REPS: u64 = 200_000;
        let mut inside = 0u64;
        let start = ticks();
        for _ in 0..REPS {
            let a = ticks();
            std::hint::black_box(());
            let b = ticks();
            inside = inside.wrapping_add(std::hint::black_box(b - a));
        }
        let full = ticks() - start;
        let inside_ns = inside as f64 / REPS as f64 * ns_per_tick;
        let full_ns = full as f64 / REPS as f64 * ns_per_tick;
        Calibration {
            ns_per_tick,
            inside_ns,
            outside_ns: (full_ns - inside_ns).max(0.0),
        }
    }

    /// Converts a tick count to nanoseconds.
    pub fn ns(&self, ticks: u64) -> f64 {
        ticks as f64 * self.ns_per_tick
    }
}

/// The process-wide calibration, measured on first use.
pub fn calibration() -> Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    *CAL.get_or_init(|| {
        epoch();
        Calibration::measure()
    })
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a correctly laid out `struct rusage` for
    // 64-bit Linux; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage
}

/// User + system CPU seconds consumed by the whole process so far.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}
