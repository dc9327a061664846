//! The host's core clock, probed from inside the run, and the scaling of
//! every reported time to a fixed reference clock. No kfuse items here.
//!
//! This class of VM moves between turbo bins (3.3 to 4.2 GHz on the host
//! the benchmark was written on) as its neighbours come and go, in steps
//! that last seconds to minutes: the same code reads 27 % apart in two runs
//! for that reason alone. The probe is a dependent multiply-add chain, four
//! cycles a step on every x86-64 core of the last decade, so its duration
//! is the clock and nothing else. A time multiplied by the clock it was
//! measured under is a count of core cycles; divided by [`REF_GHZ`] it is
//! microseconds again, the same on a fast and a slow bin.

use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Clock every reported time is scaled to.
pub const REF_GHZ: f64 = 3.0;
/// How often the closed loop probes, at an op boundary.
pub const EVERY: Duration = Duration::from_millis(20);

const STEPS: u32 = 50_000;
const CYCLES_PER_STEP: f64 = 4.0;
const CHAINS: usize = 9;

/// One chain: `STEPS` dependent steps of a 64-bit multiply (3 cycles) and
/// add (1 cycle). About 55 us.
fn chain_us() -> f64 {
    let t = Instant::now();
    let mut x = 1u64;
    for _ in 0..STEPS {
        x = black_box(x)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e6
}

/// The core clock of the calling thread's CPU right now, in GHz: the
/// median of nine chains (half a millisecond), so that an interrupt or a
/// preemption inside one of them does not read as a slow clock.
pub fn probe_ghz() -> f64 {
    let chains: Vec<f64> = (0..CHAINS).map(|_| chain_us()).collect();
    f64::from(STEPS) * CYCLES_PER_STEP / (stats::median(&chains) * 1e3)
}

/// Clock readings of one thread, in the order they were taken.
#[derive(Default)]
pub struct Track {
    /// `(seconds since the slice began, GHz)`.
    readings: Vec<(f64, f64)>,
}

impl Track {
    pub fn push(&mut self, at_s: f64, ghz: f64) {
        self.readings.push((at_s, ghz));
    }

    /// Factor that turns a time measured over `start_s..end_s` into the
    /// time the same cycles take at [`REF_GHZ`]: the mean of the last
    /// reading before the interval and the first one after it, over the
    /// reference. 1 when there are no readings.
    pub fn scale(&self, start_s: f64, end_s: f64) -> f64 {
        let before = self.readings.partition_point(|r| r.0 <= start_s);
        let after = self.readings.partition_point(|r| r.0 < end_s);
        let around: Vec<f64> = [before.checked_sub(1), Some(after)]
            .into_iter()
            .flatten()
            .filter_map(|i| self.readings.get(i))
            .map(|r| r.1)
            .collect();
        if around.is_empty() {
            1.0
        } else {
            stats::mean(&around) / REF_GHZ
        }
    }

    pub fn ghz(&self) -> impl Iterator<Item = f64> + '_ {
        self.readings.iter().map(|r| r.1)
    }
}

/// Runs `f` with a probe before and after it; returns its value and its
/// wall time in seconds scaled to [`REF_GHZ`].
pub fn scaled_seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = probe_ghz();
    let t = Instant::now();
    let value = f();
    let s = t.elapsed().as_secs_f64();
    (value, s * (before + probe_ghz()) / 2.0 / REF_GHZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_readings_around_the_interval() {
        let mut t = Track::default();
        assert_eq!(t.scale(0.0, 1.0), 1.0, "no readings: times stay as measured");
        for (at, ghz) in [(0.0, 3.0), (1.0, 4.2), (2.0, 3.6), (3.0, 3.0)] {
            t.push(at, ghz);
        }
        // Between the readings at 1 s and 2 s: (4.2 + 3.6) / 2 over 3.0.
        assert!((t.scale(1.2, 1.3) - 1.3).abs() < 1e-12);
        // A long op spanning a reading uses the ones outside it.
        assert!((t.scale(0.5, 2.5) - 1.0).abs() < 1e-12);
        // After the last reading only the one before is left.
        assert!((t.scale(3.5, 3.6) - 1.0).abs() < 1e-12);
        assert!((t.scale(0.0, 0.5) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn probe_reads_a_plausible_clock() {
        // Debug builds run the chain several times slower; the bounds only
        // catch a broken unit.
        let ghz = probe_ghz();
        assert!(ghz > 0.01 && ghz < 10.0, "{ghz} GHz");
    }
}
