//! Noise-aware wall-clock measurement.
//!
//! A single timing of a sub-millisecond workload on a shared host is a
//! coin flip: scheduler preemption, frequency scaling, and cache state
//! easily swing individual runs by tens of percent (the source of the
//! phantom Enhance "regression" the old best-of-3 benchmark reported).
//! Everything in this workspace that compares two configurations now
//! reports a **median** over repeats together with a **relative spread**
//! — the inter-quartile range divided by the median — so a difference can
//! be judged against the noise that produced it.

use std::time::Instant;

/// A summarized timing: median over `n` repeats plus relative spread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Median wall time in seconds.
    pub median_s: f64,
    /// Relative spread: inter-quartile range / median (0 for `n` < 2 or a
    /// zero median).
    pub spread: f64,
    /// Number of timed repeats summarized.
    pub n: usize,
}

impl Sample {
    /// Whether `self` is faster than `other` by more than the combined
    /// spread of the two samples — i.e. a difference that survives noise.
    pub fn clearly_faster_than(&self, other: &Sample) -> bool {
        let noise = self.spread.max(other.spread);
        self.median_s * (1.0 + noise) < other.median_s
    }

    /// Median expressed as throughput for `units` work items.
    pub fn throughput(&self, units: f64) -> f64 {
        if self.median_s > 0.0 {
            units / self.median_s
        } else {
            0.0
        }
    }
}

/// Summarizes raw timings (seconds) into a [`Sample`].
///
/// The spread uses the elements at the 25th/75th percentile ranks, which
/// for the small `n` used here (3–15) degrades gracefully toward the full
/// range.
pub fn summarize(times: &[f64]) -> Sample {
    if times.is_empty() {
        return Sample {
            median_s: 0.0,
            spread: 0.0,
            n: 0,
        };
    }
    let mut sorted = times.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    let median_s = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    let q1 = sorted[n / 4];
    let q3 = sorted[((3 * n) / 4).min(n - 1)];
    let spread = if median_s > 0.0 && n >= 2 {
        ((q3 - q1) / median_s).max(0.0)
    } else {
        0.0
    };
    Sample {
        median_s,
        spread,
        n,
    }
}

/// Times `f` for `repeats` runs after one untimed warm-up call and
/// returns the median/spread summary.
pub fn measure_median(repeats: usize, mut f: impl FnMut()) -> Sample {
    f();
    let mut times = Vec::with_capacity(repeats.max(1));
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64());
    }
    summarize(&times)
}

/// Adaptive variant: starts from `min_repeats` timings and keeps adding
/// one repeat at a time until the relative spread drops to
/// `target_spread` or `max_repeats` is reached. This is the noise-aware
/// stopping rule of the autotuner — quiet measurements stop early, noisy
/// ones get more evidence.
pub fn measure_until(
    min_repeats: usize,
    max_repeats: usize,
    target_spread: f64,
    mut f: impl FnMut(),
) -> Sample {
    f();
    let min_repeats = min_repeats.max(1);
    let max_repeats = max_repeats.max(min_repeats);
    let mut times = Vec::with_capacity(max_repeats);
    for _ in 0..min_repeats {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64());
    }
    let mut sample = summarize(&times);
    while sample.spread > target_spread && times.len() < max_repeats {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64());
        sample = summarize(&times);
    }
    sample
}

/// Verdict of a paired comparison: candidate and baseline timed in
/// alternating order, so clock drift hits both sides alike.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Paired {
    /// Pairs timed.
    pub pairs: usize,
    /// Pairs the candidate won outright (ties count for neither side).
    pub wins: usize,
    /// Median over pairs of `baseline / candidate` wall time.
    pub speedup: f64,
    /// At least nine tenths of the pairs won *and* the medians apart by
    /// more than the baseline's own inter-quartile range.
    pub clearly_faster: bool,
}

/// The verdict over two pair-aligned timing vectors (seconds).
pub fn paired_verdict(candidate: &[f64], baseline: &[f64]) -> Paired {
    let pairs = candidate.len().min(baseline.len());
    let (c, b) = (&candidate[..pairs], &baseline[..pairs]);
    let wins = c.iter().zip(b).filter(|(c, b)| c < b).count();
    let ratios: Vec<f64> = c.iter().zip(b).map(|(c, b)| b / c).collect();
    let (cs, bs) = (summarize(c), summarize(b));
    Paired {
        pairs,
        wins,
        speedup: summarize(&ratios).median_s,
        clearly_faster: pairs > 0
            && wins * 10 >= pairs * 9
            && bs.median_s - cs.median_s > bs.spread * bs.median_s,
    }
}

/// Times `candidate` against `baseline` in `pairs` alternating pairs (odd
/// pairs run the baseline first) after one untimed warm-up each.
pub fn measure_paired(
    pairs: usize,
    mut candidate: impl FnMut(),
    mut baseline: impl FnMut(),
) -> Paired {
    let mut sides: [&mut dyn FnMut(); 2] = [&mut candidate, &mut baseline];
    sides.iter_mut().for_each(|f| f());
    let mut times = [Vec::new(), Vec::new()];
    for i in 0..pairs {
        for k in [i % 2, 1 - i % 2] {
            let start = Instant::now();
            sides[k]();
            times[k].push(start.elapsed().as_secs_f64());
        }
    }
    paired_verdict(&times[0], &times[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_verdict_on_synthetic_vectors() {
        // Ten baseline timings wobbling ±5 %: an IQR well above 1 %.
        let base = [1.0, 1.05, 0.95, 1.02, 0.98, 1.04, 0.96, 1.01, 0.99, 1.03];
        let verdict = |k: f64, every: usize| {
            let mut c = base;
            c.iter_mut().step_by(every).for_each(|t| *t *= k);
            let v = paired_verdict(&c, &base);
            (v.wins, v.clearly_faster)
        };
        assert_eq!(verdict(1.0, 1), (0, false)); // all ties
        assert_eq!(verdict(0.99, 1), (10, false)); // 10 of 10, inside the spread
        assert_eq!(verdict(0.7, 1), (10, true)); // 10 of 10 by 30 %
        assert_eq!(verdict(0.5, 2), (5, false)); // 5 of 10, however large
        let by_30 = paired_verdict(&base.map(|t| t * 0.7), &base);
        assert!((by_30.speedup - 1.0 / 0.7).abs() < 1e-9);
    }

    #[test]
    fn summarize_odd_and_even() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.median_s, 2.0);
        assert_eq!(s.n, 3);
        assert!(s.spread > 0.0);

        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median_s, 2.5);
        assert_eq!(s.n, 4);
    }

    #[test]
    fn summarize_degenerates() {
        assert_eq!(summarize(&[]).n, 0);
        let one = summarize(&[5.0]);
        assert_eq!(one.median_s, 5.0);
        assert_eq!(one.spread, 0.0);
        let flat = summarize(&[2.0; 7]);
        assert_eq!(flat.median_s, 2.0);
        assert_eq!(flat.spread, 0.0);
    }

    #[test]
    fn median_shrugs_off_one_outlier() {
        // Best-of-N would also survive a slow outlier, but median survives
        // a *fast* outlier too (e.g. a timer glitch), which best-of-N
        // latches onto.
        let s = summarize(&[1.0, 1.01, 0.001, 0.99, 1.02]);
        assert!((s.median_s - 1.0).abs() < 0.02);
    }

    #[test]
    fn clearly_faster_requires_margin_beyond_spread() {
        let fast = Sample {
            median_s: 1.0,
            spread: 0.05,
            n: 5,
        };
        let slow = Sample {
            median_s: 1.2,
            spread: 0.05,
            n: 5,
        };
        let near = Sample {
            median_s: 1.03,
            spread: 0.05,
            n: 5,
        };
        assert!(fast.clearly_faster_than(&slow));
        assert!(!fast.clearly_faster_than(&near));
        assert!(!near.clearly_faster_than(&fast));
    }

    #[test]
    fn measure_median_counts_repeats() {
        let mut calls = 0u32;
        let s = measure_median(5, || calls += 1);
        assert_eq!(s.n, 5);
        assert_eq!(calls, 6); // warm-up + 5 timed
    }

    #[test]
    fn measure_until_respects_bounds() {
        let s = measure_until(3, 9, 0.0, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(s.n >= 3 && s.n <= 9);
    }
}
