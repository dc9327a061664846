//! Order statistics, the percentile rule, geometric mean and the FNV-1a
//! hash the harness verifies outputs with. No kfuse items here.

/// Sorts ascending. Timings are finite, so the comparison is total.
fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Linear-interpolated quantile of an ascending slice (`q` in `0..=1`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Linear-interpolated quantile of unsorted samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    quantile_sorted(&v, q)
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The percentile rule: the highest of p50 / p90 / p99, no higher than
/// `cap`, that still has at least ten samples beyond it (p99 needs 1000
/// samples, p90 needs 100). A ladder with a per-workload cap, not
/// `1 - 10/n`: the statistic must not change because a run, or a faster
/// build, collected more samples.
pub fn tail_quantile(n: usize, cap: f64) -> f64 {
    [0.99, 0.90]
        .into_iter()
        .find(|&q| q <= cap && (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
        .unwrap_or(0.50)
}

/// Pooled tail latency under [`tail_quantile`]; returns `(value, quantile)`.
pub fn tail(xs: &[f64], cap: f64) -> (f64, f64) {
    let mut v = xs.to_vec();
    sort(&mut v);
    let q = tail_quantile(v.len(), cap);
    (quantile_sorted(&v, q), q)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 absorbing one unit per step. Units are `u32` so an image's
/// f32 bit patterns hash a word at a time (4x fewer multiplies than the
/// byte stream); fed bytes, it is the reference byte-wise algorithm.
pub fn fnv1a(mut h: u64, units: impl IntoIterator<Item = u32>) -> u64 {
    for u in units {
        h ^= u64::from(u);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(12, 0.99), 0.50);
        assert_eq!(tail_quantile(99, 0.99), 0.50);
        assert_eq!(tail_quantile(100, 0.99), 0.90);
        assert_eq!(tail_quantile(999, 0.99), 0.90);
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        assert_eq!(tail_quantile(60_000, 0.99), 0.99);
        assert_eq!(tail_quantile(60_000, 0.90), 0.90);
        assert_eq!(tail_quantile(60_000, 0.50), 0.50);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        let pool: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p99, q) = tail(&pool, 0.99);
        assert_eq!(q, 0.99);
        assert!((p99 - 990.01).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[0.25, 4.0, 2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let bytes = |s: &str| s.bytes().map(u32::from).collect::<Vec<_>>();
        assert_eq!(fnv1a(FNV_OFFSET, bytes("")), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, bytes("a")), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, bytes("foobar")), 0x8594_4171_f739_67e8);
    }
}
