//! Machine-speed calibration.
//!
//! On a shared machine the CPU a run gets drifts by ±15% over tens of
//! seconds, which swamps any regression bound. The loops therefore run a
//! fixed calibration kernel every [`PERIOD_MS`] milliseconds, outside the
//! timed calls, and timings are reported at the reference speed: each
//! timed call is scaled by [`NOMINAL_US`] over the kernel's recent median
//! time, and a set-up by its median over the set-up. The kernel does what
//! the program does most: hashing, allocation and sorting.
//!
//! A shared machine also takes the CPU away from a run for milliseconds at
//! a time, which lands on a few calls and moves tail latency by half. So a
//! [`Stopwatch`] reads the lesser of a call's wall time and the CPU time
//! the process used during it: for a call that runs on one thread that is
//! its wall time without the time the machine ran other work; a call that
//! runs on several threads at once keeps its wall time.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::inputs::Rng;
use crate::report::median;

/// How often the loops sample the kernel.
pub const PERIOD_MS: u128 = 20;

/// The kernel's time at the reference speed, in microseconds.
pub const NOMINAL_US: f64 = 80.0;

/// Samples [`Pace::recent`] takes the median of (100 ms of a loop).
pub const RECENT: usize = 5;

/// One run of the kernel; returns its duration in microseconds.
pub fn kernel() -> f64 {
    let clock = Stopwatch::start();
    let mut rng = Rng::new(0xCA11_B4A7);
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1024);
    let mut values: Vec<u64> = Vec::with_capacity(2048);
    for _ in 0..2048 {
        let x = rng.next_u64();
        *map.entry(x % 1021).or_insert(0) += x;
        values.push(x);
    }
    values.sort_unstable();
    black_box((values[1024], map.len()));
    clock.secs() * 1e6
}

/// Times one call; see the module documentation.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// Seconds since [`Stopwatch::start`]: the lesser of wall and CPU time.
    pub fn secs(&self) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        wall.min(cpu_s() - self.cpu)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the process has used, in seconds.
fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Kernel samples taken while a loop runs.
#[derive(Debug)]
pub struct Pace {
    last: Instant,
    samples: Vec<f64>,
}

impl Default for Pace {
    fn default() -> Self {
        let mut pace = Self {
            last: Instant::now(),
            samples: Vec::new(),
        };
        pace.sample();
        pace
    }
}

impl Pace {
    /// Runs the kernel once.
    pub fn sample(&mut self) {
        self.samples.push(kernel());
        self.last = Instant::now();
    }

    /// Runs the kernel when [`PERIOD_MS`] have passed since the last run.
    pub fn maybe_sample(&mut self) {
        if self.last.elapsed().as_millis() >= PERIOD_MS {
            self.sample();
        }
    }

    /// How much slower than the reference the machine ran: the kernel's
    /// median time over [`NOMINAL_US`].
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / NOMINAL_US
    }

    /// The slowdown over the last [`RECENT`] samples, which follows the
    /// bursts of a shared machine that a whole run's median smooths away.
    pub fn recent(&self) -> f64 {
        median(&self.samples[self.samples.len().saturating_sub(RECENT)..]) / NOMINAL_US
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_leaves_out_time_the_process_did_not_run() {
        let clock = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(clock.secs() < 0.025, "slept, yet read {} s", clock.secs());
    }

    #[test]
    fn stopwatch_counts_work_and_never_exceeds_wall_time() {
        let wall = Instant::now();
        let clock = Stopwatch::start();
        while wall.elapsed().as_millis() < 20 {
            black_box(kernel());
        }
        let (secs, wall) = (clock.secs(), wall.elapsed().as_secs_f64());
        assert!(
            secs > 0.002 && secs <= wall,
            "{secs} s in {wall} s of spinning"
        );
    }
}
