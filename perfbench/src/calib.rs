//! Drift calibration.
//!
//! CPU speed on a shared 2-vCPU machine drifts by up to 2x in spells of
//! seconds to minutes, so averaging over a run does not cancel it. The
//! benchmark instead interleaves short runs of a fixed kernel with the
//! measured operations and divides every operation's wall time by the
//! median of the kernel runs nearest to it in time. The kernel
//! allocates, fills and clones a 240x16 `u16` grid — the placer's own
//! hot-path pattern (occupancy grids are `u16` counts of that size) — so
//! it slows down with the same memory-system and frequency drift as the
//! program. Pure-arithmetic kernels tracked only about half the drift.
//!
//! Calibrated times are reported at [`REF_KERNEL_US`]: a calibrated time
//! is what the operation would have taken on a machine whose kernel
//! median is exactly that value.

use std::time::{Duration, Instant};

/// Kernel median, in microseconds, that calibrated times are scaled to.
/// Measured on the 2-vCPU x86-64 container this benchmark was tuned on.
pub const REF_KERNEL_US: f64 = 90.0;

/// Grid repetitions per kernel run (~90 us on the reference machine).
const REPS: usize = 256;
const GRID_TILES: usize = 240 * 16;

/// Kernel runs whose median calibrates one operation.
const WINDOW: usize = 15;

/// One kernel run, in microseconds.
pub fn kernel_us() -> f64 {
    let started = Instant::now();
    let mut acc = 0u64;
    for rep in 0..REPS {
        let mut grid = vec![0u16; GRID_TILES];
        for (i, tile) in grid.iter_mut().enumerate() {
            *tile = (i as u16).wrapping_mul(rep as u16 | 1);
        }
        let copy = std::hint::black_box(grid.clone());
        acc = acc.wrapping_add(u64::from(copy[rep % GRID_TILES]));
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e6
}

/// Nanoseconds this thread has waited on a run queue, runnable but not
/// running (`/proc/thread-self/schedstat`, second field), or `None` where
/// the kernel does not expose it.
pub fn run_wait_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().nth(1)?.parse().ok()
}

/// Wall seconds of `work` minus the time this thread waited for a CPU
/// meanwhile: for single-threaded work, its time on a CPU, free of the
/// waits that the machine's other tenants impose.
pub fn on_cpu<T>(work: impl FnOnce() -> T) -> (T, f64, Instant) {
    let waited_before = run_wait_ns();
    let started = Instant::now();
    let value = work();
    let wall = started.elapsed().as_secs_f64();
    let waited = match (waited_before, run_wait_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
        _ => 0.0,
    };
    (value, (wall - waited).max(0.0), started)
}

/// Kernel samples on the run's timeline.
pub struct Calib {
    origin: Instant,
    cadence: f64,
    /// `(seconds since origin, kernel us)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl Calib {
    /// A calibrator that samples the kernel at most once per `cadence`.
    pub fn new(cadence: Duration) -> Calib {
        Calib {
            origin: Instant::now(),
            cadence: cadence.as_secs_f64(),
            samples: Vec::new(),
        }
    }

    /// Seconds since the calibrator was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds since the calibrator was created, at `at`.
    pub fn at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Run the kernel now.
    pub fn sample(&mut self) {
        let us = kernel_us();
        let t = self.now();
        self.samples.push((t, us));
    }

    /// Run the kernel several times now (around a one-shot measurement).
    pub fn burst(&mut self) {
        for _ in 0..WINDOW / 2 {
            self.sample();
        }
    }

    /// Run the kernel if the last run is older than the cadence.
    pub fn tick(&mut self) {
        let due = match self.samples.last() {
            Some(&(t, _)) => self.now() - t >= self.cadence,
            None => true,
        };
        if due {
            self.sample();
        }
    }

    /// Median kernel time of the `WINDOW` runs nearest to time `t`.
    pub fn kernel_near(&self, t: f64) -> f64 {
        assert!(!self.samples.is_empty(), "calibrate before measuring");
        let n = self.samples.len();
        let pos = self.samples.partition_point(|&(st, _)| st < t);
        let half = WINDOW / 2;
        let lo = pos.saturating_sub(half).min(n.saturating_sub(WINDOW));
        let hi = (lo + WINDOW).min(n);
        let mut window: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, us)| us).collect();
        median(&mut window)
    }

    /// Scale a wall time measured around time `t` to the reference kernel.
    pub fn calibrate(&self, raw: f64, t: f64) -> f64 {
        raw * REF_KERNEL_US / self.kernel_near(t)
    }

    /// Median and interquartile spread (as a share of the median) of every
    /// kernel run so far.
    pub fn summary(&self) -> (f64, f64) {
        let mut all: Vec<f64> = self.samples.iter().map(|&(_, us)| us).collect();
        let med = median(&mut all);
        let (q1, q3) = quartiles(&all);
        (med, (q3 - q1) / med)
    }
}

/// Median (sorts `values`).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median of a sample that may be empty (then 0: the kind never ran).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(&mut values.to_vec())
    }
}

/// First and third quartile of a sorted sample, by the same exclusive
/// method as Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let q = |p: f64| {
        let m = (n + 1) as f64 * p;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (q(0.25), q(0.75))
}

/// Nearest-rank percentile of a sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
    }

    #[test]
    fn nearest_window_uses_local_samples() {
        let mut c = Calib::new(Duration::ZERO);
        c.samples = (0..100)
            .map(|i| (i as f64, if i < 50 { 10.0 } else { 20.0 }))
            .collect();
        assert_eq!(c.kernel_near(10.0), 10.0);
        assert_eq!(c.kernel_near(90.0), 20.0);
        assert_eq!(c.calibrate(1.0, 90.0), REF_KERNEL_US / 20.0);
    }
}
