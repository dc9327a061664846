//! Elementwise row passes of the instruction-tape interior.
//!
//! The row-matrix interior of [`crate::tile`] evaluates one tape
//! instruction at a time over a contiguous span of pixels. Each pass here
//! is a plain loop over `f32` slices with the operator match hoisted out:
//! the SIMD code is whatever LLVM's vectorizer makes of it at the width
//! the build targets.
//!
//! # Bit identity
//!
//! The fast executor's contract is bit-identical output to
//! [`crate::exec::execute_reference`]. Every pass performs, per element,
//! *exactly* the operation the interpreter performs ([`BinOp::apply`],
//! [`UnOp::apply`]): `+ − × ÷` and `sqrt` are IEEE-754 correctly rounded,
//! `min`/`max` are Rust's `f32::min`/`max`, `rsqrt` is `sqrt` then `recip`
//! (two correctly rounded operations), and `a + b * c` is never contracted
//! into an FMA. `exp`, `ln` and `pow` are not libm calls the two sides
//! could resolve differently: both call [`kfuse_ir::math`], whose `exp`
//! and `ln` are branch-free `f32` arithmetic, so the unary pass over them
//! vectorizes like any other and each lane computes the scalar function's
//! bits. The per-op tests at the bottom pin this on NaN payloads (quiet
//! and signaling), infinities, signed zeros, subnormals, a ramp across
//! `exp`'s and `ln`'s reduction intervals, and a deterministic sweep of
//! random bit patterns.

use kfuse_ir::{math, BinOp, UnOp};

/// Elementwise binary operation over register rows; the operator match is
/// hoisted out of the loop so each arm vectorizes.
pub(crate) fn bin_rows_scalar(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    macro_rules! ew {
        ($f:expr) => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = $f(x, y);
            }
        };
    }
    match op {
        BinOp::Add => ew!(|x: f32, y: f32| x + y),
        BinOp::Sub => ew!(|x: f32, y: f32| x - y),
        BinOp::Mul => ew!(|x: f32, y: f32| x * y),
        BinOp::Div => ew!(|x: f32, y: f32| x / y),
        BinOp::Min => ew!(f32::min),
        BinOp::Max => ew!(f32::max),
        BinOp::Pow => ew!(math::pow),
        BinOp::Lt => ew!(|x, y| f32::from(x < y)),
        BinOp::Gt => ew!(|x, y| f32::from(x > y)),
    }
}

/// Elementwise unary operation over register rows.
pub(crate) fn un_rows_scalar(op: UnOp, a: &[f32], out: &mut [f32]) {
    macro_rules! ew {
        ($f:expr) => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = $f(x);
            }
        };
    }
    match op {
        UnOp::Neg => ew!(|x: f32| -x),
        UnOp::Abs => ew!(f32::abs),
        UnOp::Sqrt => ew!(f32::sqrt),
        UnOp::Exp => ew!(math::exp),
        UnOp::Log => ew!(math::ln),
        UnOp::Sin => ew!(f32::sin),
        UnOp::Cos => ew!(f32::cos),
        UnOp::Rsqrt => ew!(|x: f32| x.sqrt().recip()),
        UnOp::Floor => ew!(f32::floor),
    }
}

/// Elementwise `if c > 0 { t } else { f }` over register rows.
pub(crate) fn select_rows_scalar(c: &[f32], t: &[f32], f: &[f32], out: &mut [f32]) {
    for k in 0..out.len() {
        out[k] = if c[k] > 0.0 { t[k] } else { f[k] };
    }
}

/// Elementwise `a + b * c` over register rows, multiply and add each
/// correctly rounded. Rust never contracts `a + b * c` into an FMA, so
/// this is bit-identical to the separate `Mul` and `Add` passes the tape
/// peephole fused (see `Instr::MulAdd` in [`crate::tape`]).
pub(crate) fn muladd_rows_scalar(a: &[f32], b: &[f32], c: &[f32], out: &mut [f32]) {
    for k in 0..out.len() {
        out[k] = a[k] + b[k] * c[k];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Special f32 bit patterns: signed zeros, infinities, quiet and
    /// signaling NaNs with distinct payloads, subnormals, and boundary
    /// magnitudes — the values where a vectorized loop could differ from
    /// the per-pixel `apply`.
    fn specials() -> Vec<f32> {
        [
            0x0000_0000u32, // +0
            0x8000_0000,    // -0
            0x7F80_0000,    // +inf
            0xFF80_0000,    // -inf
            0x7FC0_0000,    // canonical qNaN
            0xFFC0_1234,    // negative qNaN, payload
            0x7F80_1234,    // sNaN, payload
            0xFF80_0001,    // negative sNaN
            0x0000_0001,    // smallest subnormal
            0x8000_0001,    // negative subnormal
            0x007F_FFFF,    // largest subnormal
            0x3F80_0000,    // 1.0
            0xBF80_0000,    // -1.0
            0x7F7F_FFFF,    // f32::MAX
            0x3EAA_AAAB,    // ~1/3
            0x4049_0FDB,    // π
        ]
        .iter()
        .map(|&b| f32::from_bits(b))
        .collect()
    }

    /// Deterministic xorshift over the full bit space.
    fn pseudo_random(n: usize, mut state: u64) -> Vec<f32> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f32::from_bits(state as u32)
            })
            .collect()
    }

    /// A value set that exercises every special pair plus a random sweep,
    /// with a length that is not a multiple of any vector width.
    fn operand_grid() -> (Vec<f32>, Vec<f32>) {
        let s = specials();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &x in &s {
            for &y in &s {
                a.push(x);
                b.push(y);
            }
        }
        a.extend(pseudo_random(1003, 0x1234_5678_9ABC_DEF0));
        b.extend(pseudo_random(1003, 0x0FED_CBA9_8765_4321));
        // Launder through black_box: without it LLVM const-folds the scalar
        // baseline loops over these compile-time-known values, and folded
        // float ops canonicalize NaN payloads where the runtime ops don't.
        (std::hint::black_box(a), std::hint::black_box(b))
    }

    const ALL_BIN: [BinOp; 9] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Min,
        BinOp::Max,
        BinOp::Pow,
        BinOp::Lt,
        BinOp::Gt,
    ];

    const ALL_UN: [UnOp; 9] = [
        UnOp::Neg,
        UnOp::Abs,
        UnOp::Sqrt,
        UnOp::Exp,
        UnOp::Log,
        UnOp::Sin,
        UnOp::Cos,
        UnOp::Rsqrt,
        UnOp::Floor,
    ];

    /// [`bin_rows_scalar`] against [`BinOp::apply`] on every pair of the grid.
    #[test]
    fn binary_ops_bit_identical_across_levels() {
        let (a, b) = operand_grid();
        let mut got = vec![0.0f32; a.len()];
        for op in ALL_BIN {
            got.fill(0.0);
            bin_rows_scalar(op, &a, &b, &mut got);
            for k in 0..a.len() {
                let want = op.apply(a[k], b[k]);
                // With two NaN operands, which payload propagates is
                // non-deterministic even between two scalar compilations
                // (LLVM may commute fadd/fmul), so only the NaN-ness of
                // the result is portable there. Every value the executors
                // can actually produce from finite inputs is a canonical
                // NaN, where the two payloads coincide.
                if a[k].is_nan() && b[k].is_nan() && want.is_nan() {
                    assert!(
                        got[k].is_nan(),
                        "{op:?}: lane {k}: non-NaN from two NaN operands",
                    );
                    continue;
                }
                assert!(
                    want.to_bits() == got[k].to_bits(),
                    "{op:?}: lane {k}: {:e} ({:#010x}) vs apply {:e} ({:#010x}) \
                     for operands {:e}, {:e}",
                    got[k],
                    got[k].to_bits(),
                    want,
                    want.to_bits(),
                    a[k],
                    b[k],
                );
            }
        }
    }

    /// [`un_rows_scalar`] against [`UnOp::apply`] on every value of the
    /// grid plus a ramp over `[-110, 110]` — through `exp`'s underflow and
    /// overflow and every `ln 2` reduction interval between — and its
    /// reciprocals for `ln`. Optimized, the row pass is the vectorized
    /// loop and `apply` the scalar call, so this is where `math::exp` and
    /// `math::ln` are pinned lane for lane.
    #[test]
    fn unary_ops_bit_identical_across_levels() {
        let (mut a, _) = operand_grid();
        let ramp: Vec<f32> = (0..4401).map(|i| i as f32 * 0.05 - 110.0).collect();
        a.extend(ramp.iter().map(|&x| x.recip()));
        a.extend(ramp);
        let a = std::hint::black_box(a);
        let mut got = vec![0.0f32; a.len()];
        for op in ALL_UN {
            got.fill(0.0);
            un_rows_scalar(op, &a, &mut got);
            for k in 0..a.len() {
                let want = op.apply(a[k]);
                assert!(
                    want.to_bits() == got[k].to_bits(),
                    "{op:?}: lane {k}: {:e} ({:#010x}) vs apply {:e} ({:#010x}) \
                     for operand {:e} ({:#010x})",
                    got[k],
                    got[k].to_bits(),
                    want,
                    want.to_bits(),
                    a[k],
                    a[k].to_bits(),
                );
            }
        }
    }

    /// [`muladd_rows_scalar`] against `Mul` then `Add` through `apply`.
    #[test]
    fn muladd_bit_identical_across_levels() {
        let (a, b) = operand_grid();
        let c = std::hint::black_box(pseudo_random(a.len(), 0x0BAD_C0DE_1234_5678));
        let mut got = vec![0.0f32; a.len()];
        muladd_rows_scalar(&a, &b, &c, &mut got);
        for k in 0..a.len() {
            // The pair of instructions the tape peephole fused.
            let prod = BinOp::Mul.apply(b[k], c[k]);
            let want = BinOp::Add.apply(a[k], prod);
            // Same caveat as the binary test: with two NaNs meeting in
            // the multiply or in the add, the surviving payload is not
            // portable across compilations — only NaN-ness is.
            let two_nans = (b[k].is_nan() && c[k].is_nan()) || (a[k].is_nan() && prod.is_nan());
            if two_nans && want.is_nan() {
                assert!(
                    got[k].is_nan(),
                    "muladd: lane {k}: non-NaN from NaN operands"
                );
                continue;
            }
            assert!(
                want.to_bits() == got[k].to_bits(),
                "muladd: lane {k}: {:e} ({:#010x}) vs apply {:e} ({:#010x}) \
                 for operands {:e}, {:e}, {:e}",
                got[k],
                got[k].to_bits(),
                want,
                want.to_bits(),
                a[k],
                b[k],
                c[k],
            );
        }
    }

    /// [`select_rows_scalar`] against the interpreter's `c > 0` branch.
    #[test]
    fn select_bit_identical_across_levels() {
        let (c, t) = operand_grid();
        let f = pseudo_random(c.len(), 0xDEAD_BEEF_0BAD_F00D);
        let mut got = vec![0.0f32; c.len()];
        select_rows_scalar(&c, &t, &f, &mut got);
        for k in 0..c.len() {
            let want = if c[k] > 0.0 { t[k] } else { f[k] };
            assert_eq!(
                want.to_bits(),
                got[k].to_bits(),
                "select: lane {k} (c = {:e})",
                c[k]
            );
        }
    }
}
