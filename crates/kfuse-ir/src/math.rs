//! The transcendental functions every evaluator of kernel IR calls.
//!
//! [`UnOp::apply`](crate::UnOp::apply) and [`BinOp::apply`](crate::BinOp::apply)
//! — the reference interpreter, constant folding and the compiled engine's
//! scalar border path — and the compiled engine's elementwise row passes
//! all evaluate `exp`, `ln` and `pow` through this module, so the two
//! engines agree bit for bit by construction: there is one definition.
//!
//! [`exp`] and [`ln`] are portable `f32` kernels: range reduction, a
//! polynomial, and bit-level reassembly, written with branch-free selects
//! so that a loop calling them vectorizes at the build's baseline SIMD
//! width. There is no `std::arch` and no fused multiply-add (Rust never
//! contracts `a * b + c`), so every lane of a vectorized loop performs
//! exactly the scalar operation. Against glibc's `expf`/`logf`, over all
//! 2³² inputs, both are within one ULP, and 99.6 % (`exp`) and 99.7 %
//! (`ln`) of results are bit-equal. NaN, ±0, ±∞, subnormal inputs and the
//! overflow and underflow thresholds fall in glibc's class exactly
//! (`exp_and_ln_within_one_ulp_of_libm` below, release builds only).
//!
//! [`pow`] stays the platform's `powf`: a portable prototype with an
//! `f64` core cost 1.1–1.3× glibc's per element (EXPERIMENTS.md,
//! "Transcendentals once per pixel"). `sin`/`cos` stay `f32::sin`/`cos`.

/// `if c { a } else { b }` on values — a select, not a branch.
#[inline(always)]
fn select(c: bool, a: f32, b: f32) -> f32 {
    if c {
        a
    } else {
        b
    }
}

/// Natural exponential `eˣ`.
///
/// Cody–Waite reduction `x = k·ln 2 + r`, `|r| ≤ ln 2 / 2`, with `k·ln 2`
/// split so `k · LN2_HI` is exact; Cephes' polynomial for `eʳ`; and `2ᵏ`
/// applied as two exponent-field multiplies, so results that end up
/// subnormal are rounded once.
#[inline]
pub fn exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5 · 2²³: adding it rounds to an integer and leaves that integer in
    // the low mantissa bits.
    const SHIFTER: f32 = 12_582_912.0;
    // Past either end the result is already 0 or ∞; clamping keeps k
    // inside the range the two exponent fields can express. (A NaN passes
    // through and is replaced by `x` at the end.)
    let xc = x.clamp(-104.0, 89.0);
    let t = xc * LOG2E + SHIFTER;
    let kf = t - SHIFTER;
    let k = (t.to_bits() as i32).wrapping_sub(SHIFTER.to_bits() as i32);
    let r = (xc - kf * LN2_HI) - kf * LN2_LO;
    let p = ((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
        + 0.166_666_65)
        * r
        + 0.5;
    let er = p * (r * r) + r + 1.0;
    let k1 = k >> 1;
    let scale = |k: i32| f32::from_bits(((k + 127) as u32) << 23);
    let y = er * scale(k1) * scale(k - k1);
    select(x.is_nan(), x, y)
}

/// Natural logarithm `ln x`.
///
/// `x = 2ᵉ · (1 + f)` with `1 + f ∈ [√½, √2)`, subnormals first scaled
/// into the normal range; Cephes' polynomial for `ln(1 + f)`; `e · ln 2`
/// added in two parts so the high part is exact.
#[inline]
pub fn ln(x: f32) -> f32 {
    const SQRT_HALF: f32 = std::f32::consts::FRAC_1_SQRT_2;
    let tiny = x < f32::MIN_POSITIVE;
    let bits = select(tiny, x * 8_388_608.0, x).to_bits();
    let m = f32::from_bits((bits & 0x007f_ffff) | 0x3f00_0000);
    let low = m < SQRT_HALF;
    let e = ((bits >> 23) & 0xff) as i32 - 126 - if tiny { 23 } else { 0 } - i32::from(low);
    let f = select(low, m + m, m) - 1.0;
    let ef = e as f32;
    let z = f * f;
    let mut y =
        ((((((((7.037_683_6e-2 * f - 0.115_146_1) * f + 0.116_769_984) * f - 0.124_201_41) * f
            + 0.142_493_23)
            * f
            - 0.166_680_57)
            * f
            + 0.200_007_14)
            * f
            - 0.249_999_94)
            * f
            + 0.333_333_3)
            * f
            * z;
    y += ef * -2.121_944_4e-4;
    y += -0.5 * z;
    let y = f + y + ef * 0.693_359_4;
    let y = select(x == 0.0, f32::NEG_INFINITY, y);
    let y = select(x < 0.0, f32::NAN, y);
    let y = select(x == f32::INFINITY, x, y);
    select(x.is_nan(), x, y)
}

/// `aᵇ`: the platform's `powf`, named here so every evaluator calls the
/// same definition.
#[inline]
pub fn pow(a: f32, b: f32) -> f32 {
    a.powf(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in representable values between two non-NaN floats.
    fn ulps(a: f32, b: f32) -> u64 {
        let key = |v: f32| {
            let b = i64::from(v.to_bits() as i32);
            if b < 0 {
                i64::from(i32::MIN) - b
            } else {
                b
            }
        };
        (key(a) - key(b)).unsigned_abs()
    }

    /// Checks `ours` against `libm` at `x`: the same class (NaN, infinite,
    /// zero, subnormal, normal) and at most one ULP apart, which also
    /// pins the sign. Returns the distance.
    fn check(name: &str, ours: f32, libm: f32, x: f32) -> u64 {
        assert_eq!(
            ours.classify(),
            libm.classify(),
            "{name}({x:e} = {:#010x}): {ours:e} vs libm {libm:e}",
            x.to_bits()
        );
        if libm.is_nan() {
            return 0;
        }
        let d = ulps(ours, libm);
        assert!(
            d <= 1,
            "{name}({x:e} = {:#010x}): {ours:e} vs libm {libm:e}, {d} ULP",
            x.to_bits()
        );
        d
    }

    /// The specials grid, in every build: NaNs, signed zeros, infinities,
    /// subnormals, both sides of `exp`'s overflow and underflow
    /// thresholds, and `ln` at and around 1.
    #[test]
    fn exp_and_ln_specials_match_libm_class() {
        let grid: [u32; 20] = [
            0x7fc0_0000, // qNaN
            0xffc0_1234, // negative qNaN, payload
            0x7f80_0001, // sNaN
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x7f80_0000, // +inf
            0xff80_0000, // -inf
            0x0000_0001, // smallest subnormal
            0x8000_0001, // negative subnormal
            0x007f_ffff, // largest subnormal
            0x0080_0000, // smallest normal
            0x42b1_7217, // largest x with finite exp
            0x42b1_7218, // smallest x with exp = inf
            0xc2cf_f1b4, // smallest x with exp > 0
            0xc2cf_f1b5, // largest x with exp = 0
            0x3f80_0000, // 1
            0x3f7f_ffff, // 1 - ulp
            0x3f80_0001, // 1 + ulp
            0x7f7f_ffff, // f32::MAX
            0xbf80_0000, // -1
        ];
        for x in grid.map(f32::from_bits) {
            check("exp", exp(x), x.exp(), x);
            check("ln", ln(x), x.ln(), x);
        }
        assert_eq!(ln(1.0).to_bits(), 0, "ln(1) is +0");
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(f32::from_bits(0x42b1_7218)), f32::INFINITY);
        assert_eq!(exp(f32::from_bits(0xc2cf_f1b5)), 0.0);
        assert_eq!(exp(f32::from_bits(0xc2cf_f1b4)), f32::from_bits(1));
        assert_eq!(pow(2.0, 10.0), 1024.0);
    }

    /// Every one of the 2³² inputs, split over the host's cores: each
    /// result in libm's class and within one ULP of it, and at least
    /// 99.5 % of them bit-equal. About four core-minutes optimized, so
    /// debug test runs skip it; CI runs it with `--release
    /// --include-ignored`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive: run optimized")]
    fn exp_and_ln_within_one_ulp_of_libm() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        let counts = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut off = [0u64; 2];
                        for b in t * span..((t + 1) * span).min(1 << 32) {
                            let x = f32::from_bits(b as u32);
                            off[0] += check("exp", exp(x), x.exp(), x);
                            off[1] += check("ln", ln(x), x.ln(), x);
                        }
                        off
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .fold([0u64; 2], |a, b| [a[0] + b[0], a[1] + b[1]])
        });
        for (name, off) in ["exp", "ln"].into_iter().zip(counts) {
            let equal = 1.0 - off as f64 / 2f64.powi(32);
            assert!(
                equal >= 0.995,
                "{name}: only {:.4} % bit-equal",
                100.0 * equal
            );
        }
    }
}
