//! Separable-stencil analysis: recovering a dense convolution mask from an
//! unrolled expression and factoring it into 1-D row/column passes.
//!
//! A local operator in this IR is an *unrolled* expression — a 3×3 Gaussian
//! is an `Add` chain of nine weighted loads, exactly as a DSL code
//! generator emits it (see [`Expr::convolve`]). Fusion composes such
//! expressions, so the grown mask of a fused kernel is implicit in its
//! loads. This module runs the reverse direction: [`extract_stencil`]
//! recognizes a pure convolution chain and recovers the dense mask, and
//! [`Stencil::factor`] checks whether that mask is an **exact outer
//! product** `W[y][x] = u[y] · v[x]` — in which case the 2-D pass can be
//! rewritten as a vertical 1-D pass over the result of a horizontal 1-D
//! pass, shrinking the per-pixel tap count from `nnz(W)` toward
//! `nnz(u) + nnz(v)`.
//!
//! Exactness is **bitwise**: every reconstructed product `u[y] · v[x]`
//! must equal the original coefficient bit for bit. The factored form then
//! applies the *same* mask as the original and differs only in floating-
//! point summation order (one reassociation per row), which keeps the
//! factored/unfactored divergence at rounding level. Masks whose factors
//! do not round-trip exactly — most masks with non-dyadic coefficients —
//! are conservatively reported as non-separable.
//!
//! The kernel-level rewrite that consumes this analysis lives in
//! `kfuse-core` (`separable`); the benefit model consumes
//! [`separable_op_counts`] to price recompute `φ` for kernels the rewrite
//! will cheapen.

use crate::expr::{BinOp, Expr, OpCounts};
use crate::kernel::Stage;
use crate::BorderMode;

/// A dense 2-D convolution mask recovered from an unrolled expression.
///
/// `w` is row-major over the symmetric window `(2·ry+1) × (2·rx+1)`;
/// offsets the expression never loads hold weight `0.0`.
///
/// The DSL's mask lowering hoists a common dyadic factor out of the chain
/// (`(1·s₋₁ + 2·s₀ + 1·s₊₁) · ¹⁄₄` instead of per-tap fractional weights);
/// such a trailing multiply is peeled into `scale`, and `w` holds the
/// *chain* coefficients — typically small integers, which is exactly what
/// makes the outer-product check succeed bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Stencil {
    /// The load slot every tap reads.
    pub slot: usize,
    /// The channel every tap reads.
    pub ch: usize,
    /// Horizontal radius (maximum `|dx|`).
    pub rx: i32,
    /// Vertical radius (maximum `|dy|`).
    pub ry: i32,
    /// Row-major chain weights, `(2·ry+1)` rows of `(2·rx+1)`.
    pub w: Vec<f32>,
    /// Hoisted normalization factor applied *after* the chain, if any.
    pub scale: Option<f32>,
}

/// An exact outer-product factorization `W[y][x] = col[y] · row[x]`
/// (of the chain weights; a hoisted `scale` stays a trailing multiply on
/// the column pass).
#[derive(Clone, Debug, PartialEq)]
pub struct Factorization {
    /// Vertical weights, length `2·ry+1` (the column pass).
    pub col: Vec<f32>,
    /// Horizontal weights, length `2·rx+1` (the row pass).
    pub row: Vec<f32>,
    /// Hoisted normalization factor, applied at the end of the column
    /// pass (mirroring the unfactored expression's trailing multiply).
    pub scale: Option<f32>,
}

impl Stencil {
    /// Window width `2·rx+1`.
    pub fn width(&self) -> usize {
        2 * self.rx as usize + 1
    }

    /// Window height `2·ry+1`.
    pub fn height(&self) -> usize {
        2 * self.ry as usize + 1
    }

    /// Weight at offset `(dx, dy)`.
    pub fn get(&self, dx: i32, dy: i32) -> f32 {
        self.w[(dy + self.ry) as usize * self.width() + (dx + self.rx) as usize]
    }

    /// Number of non-zero taps.
    pub fn nnz(&self) -> usize {
        self.w.iter().filter(|&&c| c != 0.0).count()
    }

    /// Attempts the exact outer-product factorization.
    ///
    /// Picks the first non-zero weight as pivot `(px, py)`, forms the
    /// candidate vectors from the pivot row and column (normalizing one of
    /// the two by the pivot), and accepts only if `col[y] · row[x]`
    /// reproduces **every** weight bit for bit. Both normalization sides
    /// are tried — rounding in the division can break one direction and
    /// not the other.
    ///
    /// Returns `None` for 1-D masks (`rx == 0` or `ry == 0` — already a
    /// single pass) and when factoring would not reduce the tap count
    /// (`nnz(W) ≤ nnz(u) + nnz(v)`).
    pub fn factor(&self) -> Option<Factorization> {
        if self.rx == 0 || self.ry == 0 {
            return None;
        }
        let (wd, ht) = (self.width(), self.height());
        let (py, px) = (0..ht * wd)
            .find(|i| self.w[*i] != 0.0)
            .map(|i| (i / wd, i % wd))?;
        let pivot = self.w[py * wd + px];
        let col_raw: Vec<f32> = (0..ht).map(|y| self.w[y * wd + px]).collect();
        let row_raw: Vec<f32> = (0..wd).map(|x| self.w[py * wd + x]).collect();
        let scale = |v: &[f32]| -> Vec<f32> { v.iter().map(|&c| c / pivot).collect() };
        for (col, row) in [
            (col_raw.clone(), scale(&row_raw)),
            (scale(&col_raw), row_raw),
        ] {
            let exact = (0..ht).all(|y| {
                (0..wd).all(|x| (col[y] * row[x]).to_bits() == self.w[y * wd + x].to_bits())
            });
            if !exact {
                continue;
            }
            let taps = |v: &[f32]| v.iter().filter(|&&c| c != 0.0).count();
            if self.nnz() <= taps(&col) + taps(&row) {
                return None;
            }
            return Some(Factorization {
                col,
                row,
                scale: self.scale,
            });
        }
        None
    }
}

impl Factorization {
    /// The horizontal `1 × (2·rx+1)` pass as an unrolled expression
    /// reading `slot`/`ch` — the same shape [`Expr::convolve`] emits.
    pub fn row_expr(&self, slot: usize, ch: usize) -> Expr {
        Expr::convolve(slot, ch, &[&self.row])
    }

    /// The vertical `(2·ry+1) × 1` pass as an unrolled expression reading
    /// `slot`/`ch` (the row pass's result), with the hoisted scale — if
    /// any — as the same trailing multiply the unfactored chain carried.
    pub fn col_expr(&self, slot: usize, ch: usize) -> Expr {
        let rows: Vec<[f32; 1]> = self.col.iter().map(|&c| [c]).collect();
        let mask: Vec<&[f32]> = rows.iter().map(|r| &r[..]).collect();
        let conv = Expr::convolve(slot, ch, &mask);
        match self.scale {
            Some(s) => Expr::Bin(BinOp::Mul, Box::new(conv), Box::new(Expr::Const(s))),
            None => conv,
        }
    }
}

/// One term of a convolution chain: `(slot, ch, dx, dy, coefficient)`.
fn conv_term(e: &Expr) -> Option<(usize, usize, i32, i32, f32)> {
    match e {
        Expr::Load { slot, dx, dy, ch } => Some((*slot, *ch, *dx, *dy, 1.0)),
        Expr::Bin(BinOp::Mul, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Load { slot, dx, dy, ch }, Expr::Const(c))
            | (Expr::Const(c), Expr::Load { slot, dx, dy, ch }) => Some((*slot, *ch, *dx, *dy, *c)),
            _ => None,
        },
        _ => None,
    }
}

fn collect_terms(e: &Expr, terms: &mut Vec<(usize, usize, i32, i32, f32)>) -> bool {
    match e {
        Expr::Bin(BinOp::Add, a, b) => collect_terms(a, terms) && collect_terms(b, terms),
        _ => match conv_term(e) {
            Some(t) => {
                terms.push(t);
                true
            }
            None => false,
        },
    }
}

/// Recognizes an expression as a pure 2-D convolution and recovers its
/// dense mask.
///
/// The expression must be an `Add` chain whose every term is either a bare
/// `Load` (coefficient `1.0`) or a `Load` multiplied by a constant, with
/// all loads reading the same slot and channel, each offset loaded at most
/// once, and every coefficient finite and non-zero — optionally wrapped in
/// one trailing multiply by a constant (the DSL's hoisted normalization,
/// recorded as [`Stencil::scale`]). This is exactly the shape the DSL's
/// mask lowering produces (and that fusion preserves when it inlines a
/// producer), so anything else — per-tap normalization, data-dependent
/// weights, parameters — is rejected.
pub fn extract_stencil(e: &Expr) -> Option<Stencil> {
    if let Some(st) = extract_chain(e, None) {
        return Some(st);
    }
    if let Expr::Bin(BinOp::Mul, a, b) = e {
        if let Expr::Const(s) = b.as_ref() {
            return extract_chain(a, Some(*s));
        }
        if let Expr::Const(s) = a.as_ref() {
            return extract_chain(b, Some(*s));
        }
    }
    None
}

fn extract_chain(e: &Expr, scale: Option<f32>) -> Option<Stencil> {
    if let Some(s) = scale {
        if s == 0.0 || !s.is_finite() {
            return None;
        }
    }
    let mut terms = Vec::new();
    if !collect_terms(e, &mut terms) || terms.len() < 2 {
        return None;
    }
    let (slot, ch, ..) = terms[0];
    if terms
        .iter()
        .any(|&(s, c, _, _, coef)| s != slot || c != ch || coef == 0.0 || !coef.is_finite())
    {
        return None;
    }
    let rx = terms.iter().map(|t| t.2.abs()).max().unwrap();
    let ry = terms.iter().map(|t| t.3.abs()).max().unwrap();
    let (wd, ht) = (2 * rx as usize + 1, 2 * ry as usize + 1);
    let mut w = vec![0.0f32; wd * ht];
    for &(_, _, dx, dy, coef) in &terms {
        let i = (dy + ry) as usize * wd + (dx + rx) as usize;
        if w[i] != 0.0 {
            return None; // duplicate offset — not a plain convolution
        }
        w[i] = coef;
    }
    Some(Stencil {
        slot,
        ch,
        rx,
        ry,
        w,
        scale,
    })
}

/// Per-channel factorizations for a stage whose **every** channel body is
/// an exactly-separable convolution (`None` otherwise).
///
/// Beyond the per-channel [`extract_stencil`] + [`Stencil::factor`]
/// requirements, the source border must not be [`BorderMode::Constant`]
/// (a constant replaces the whole out-of-bounds *tap*, which does not
/// decompose per axis) and every channel must read through the same border
/// mode (the column pass declares a single border for its one slot).
pub fn stage_factorization(s: &Stage) -> Option<Vec<(Stencil, Factorization)>> {
    let mut out = Vec::with_capacity(s.body.len());
    let mut border: Option<BorderMode> = None;
    for b in s.body.iter() {
        let st = extract_stencil(b)?;
        let f = st.factor()?;
        let bm = *s.borders.get(st.slot)?;
        if matches!(bm, BorderMode::Constant(_)) {
            return None;
        }
        match border {
            None => border = Some(bm),
            Some(prev) if prev == bm => {}
            Some(_) => return None,
        }
        out.push((st, f));
    }
    Some(out)
}

/// Total op counts of a kernel **as if** every separable stage had been
/// rewritten to its factored row/column form.
///
/// Stages that do not factor contribute their ordinary counts, so for a
/// kernel with no separable stage this equals `k.op_counts()`. The benefit
/// model uses this to price the producer's recompute cost `φ` when the
/// lowering pipeline will run the cheaper factored form.
pub fn separable_op_counts(k: &crate::Kernel) -> OpCounts {
    k.stages
        .iter()
        .map(|s| match stage_factorization(s) {
            Some(parts) => parts
                .iter()
                .enumerate()
                .map(|(c, (st, f))| {
                    f.row_expr(st.slot, st.ch)
                        .op_counts()
                        .merge(f.col_expr(0, c).op_counts())
                })
                .fold(OpCounts::default(), OpCounts::merge),
            None => s.op_counts(),
        })
        .fold(OpCounts::default(), OpCounts::merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts that `col[y] * row[x]` reproduces every mask coefficient
    /// bit-for-bit — the exactness contract of [`Stencil::factor`].
    fn assert_outer_product(f: &Factorization, mask: &[&[f32]]) {
        for (y, row) in mask.iter().enumerate() {
            for (x, m) in row.iter().enumerate() {
                assert_eq!((f.col[y] * f.row[x]).to_bits(), m.to_bits(), "({x},{y})");
            }
        }
    }

    /// `1/16 · [1 2 1]ᵀ ⊗ [1 2 1]` — dyadic coefficients factor exactly.
    #[test]
    fn gaussian3_factors_exactly() {
        let mask: [[f32; 3]; 3] = [
            [0.0625, 0.125, 0.0625],
            [0.125, 0.25, 0.125],
            [0.0625, 0.125, 0.0625],
        ];
        let rows: Vec<&[f32]> = mask.iter().map(|r| &r[..]).collect();
        let e = Expr::convolve(0, 0, &rows);
        let st = extract_stencil(&e).expect("pure convolution chain");
        assert_eq!((st.rx, st.ry), (1, 1));
        assert_eq!(st.nnz(), 9);
        let f = st.factor().expect("gaussian is separable");
        assert_outer_product(&f, &rows);
    }

    /// Sobel-x `[1 2 1]ᵀ ⊗ [-1 0 1]`: zeros in the mask (skipped taps,
    /// including a negative pivot row) still factor bit-exactly.
    #[test]
    fn sobel_x_factors_with_zero_column() {
        let mask: [[f32; 3]; 3] = [[-1., 0., 1.], [-2., 0., 2.], [-1., 0., 1.]];
        let rows: Vec<&[f32]> = mask.iter().map(|r| &r[..]).collect();
        let st = extract_stencil(&Expr::convolve(0, 0, &rows)).unwrap();
        assert_eq!(st.nnz(), 6);
        let f = st.factor().expect("sobel is separable");
        assert_outer_product(&f, &rows);
        // 6 taps shrink to 3 (col) + 2 (row).
        let taps = |v: &[f32]| v.iter().filter(|&&c| c != 0.0).count();
        assert_eq!(taps(&f.col) + taps(&f.row), 5);
    }

    /// The DSL hoists dyadic normalizations out of the chain
    /// (`(1·a + 2·b + 1·c) · ¹⁄₁₆`): the trailing multiply is peeled as
    /// `scale`, the integer chain factors exactly, and the rebuilt column
    /// pass re-applies the scale as the same trailing multiply.
    #[test]
    fn hoisted_normalization_is_peeled_and_reapplied() {
        let mask: [[f32; 3]; 3] = [[1., 2., 1.], [2., 4., 2.], [1., 2., 1.]];
        let rows: Vec<&[f32]> = mask.iter().map(|r| &r[..]).collect();
        let chain = Expr::convolve(0, 0, &rows);
        let e = Expr::Bin(
            BinOp::Mul,
            Box::new(chain),
            Box::new(Expr::Const(1.0 / 16.0)),
        );
        let st = extract_stencil(&e).expect("hoisted convolution extracts");
        assert_eq!(st.scale, Some(1.0 / 16.0));
        assert_eq!(st.get(0, 0), 4.0);
        let f = st.factor().expect("integer binomial factors");
        assert_eq!(f.scale, Some(1.0 / 16.0));
        // The column pass carries the trailing multiply; the row pass is
        // the bare integer chain.
        let col = f.col_expr(0, 0);
        assert!(matches!(
            &col,
            Expr::Bin(BinOp::Mul, _, c) if matches!(c.as_ref(), Expr::Const(s) if *s == 1.0 / 16.0)
        ));
        let row = f.row_expr(0, 0);
        assert!(extract_stencil(&row).is_some());
    }

    /// The Laplacian cross is rank 2 — must not factor.
    #[test]
    fn laplacian_is_not_separable() {
        let mask: [[f32; 3]; 3] = [[0., 1., 0.], [1., -4., 1.], [0., 1., 0.]];
        let rows: Vec<&[f32]> = mask.iter().map(|r| &r[..]).collect();
        let st = extract_stencil(&Expr::convolve(0, 0, &rows)).unwrap();
        assert!(st.factor().is_none());
    }

    /// An à-trous (dilated) Gaussian: zeros interleaved between taps.
    #[test]
    fn dilated_gaussian5_factors() {
        let v = [0.25f32, 0.0, 0.5, 0.0, 0.25];
        let mask: Vec<Vec<f32>> = v
            .iter()
            .map(|&a| v.iter().map(|&b| a * b).collect())
            .collect();
        let rows: Vec<&[f32]> = mask.iter().map(|r| &r[..]).collect();
        let st = extract_stencil(&Expr::convolve(0, 0, &rows)).unwrap();
        assert_eq!(st.nnz(), 9);
        let f = st.factor().expect("dilated gaussian is separable");
        assert_eq!(f.row.len(), 5);
        assert_outer_product(&f, &rows);
    }

    /// Asymmetric separable mask (different row/column profiles).
    #[test]
    fn asymmetric_outer_product_factors() {
        let u = [1.0f32, 3.0, 1.0];
        let v = [0.5f32, 1.0, 0.5, 0.25, 2.0];
        let mask: Vec<Vec<f32>> = u
            .iter()
            .map(|&a| v.iter().map(|&b| a * b).collect())
            .collect();
        let rows: Vec<&[f32]> = mask.iter().map(|r| &r[..]).collect();
        let st = extract_stencil(&Expr::convolve(0, 0, &rows)).unwrap();
        assert_eq!((st.rx, st.ry), (2, 1));
        let f = st.factor().expect("outer product factors");
        assert_outer_product(&f, &rows);
    }

    /// 1-D masks are already single passes — no factorization.
    #[test]
    fn one_dimensional_masks_do_not_factor() {
        let st = extract_stencil(&Expr::convolve(0, 0, &[&[1.0, 2.0, 1.0]])).unwrap();
        assert_eq!((st.rx, st.ry), (1, 0));
        assert!(st.factor().is_none());
        let col: [[f32; 1]; 3] = [[1.0], [2.0], [1.0]];
        let rows: Vec<&[f32]> = col.iter().map(|r| &r[..]).collect();
        let st = extract_stencil(&Expr::convolve(0, 0, &rows)).unwrap();
        assert!(st.factor().is_none());
    }

    /// Non-convolution shapes are rejected by extraction: normalization,
    /// mixed slots, duplicate offsets, parameters.
    #[test]
    fn extraction_rejects_non_convolutions() {
        let conv = Expr::convolve(0, 0, &[&[1.0, 2.0, 1.0]]);
        // Normalized convolution (a divide on top).
        let norm = Expr::Bin(
            BinOp::Div,
            Box::new(conv.clone()),
            Box::new(Expr::Const(4.0)),
        );
        assert!(extract_stencil(&norm).is_none());
        // Two different slots.
        let mixed = Expr::load_at(0, -1, 0) + Expr::load_at(1, 1, 0);
        assert!(extract_stencil(&mixed).is_none());
        // Same offset twice.
        let dup = Expr::load_at(0, 1, 0) + Expr::load_at(0, 1, 0);
        assert!(extract_stencil(&dup).is_none());
        // A parameterized weight.
        let param = Expr::load_at(0, -1, 0)
            + Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::load_at(0, 1, 0)),
                Box::new(Expr::Param(0)),
            );
        assert!(extract_stencil(&param).is_none());
        // A single load is a point access, not a convolution.
        assert!(extract_stencil(&Expr::load(0)).is_none());
    }

    /// Non-dyadic coefficients whose quotient does not round-trip must be
    /// conservatively rejected even though the mask is mathematically
    /// separable.
    #[test]
    fn inexact_products_are_rejected() {
        let u = [0.1f32, 0.3, 0.7];
        let v = [0.2f32, 0.9, 0.4];
        let mask: Vec<Vec<f32>> = u
            .iter()
            .map(|&a| v.iter().map(|&b| a * b).collect())
            .collect();
        let rows: Vec<&[f32]> = mask.iter().map(|r| &r[..]).collect();
        let st = extract_stencil(&Expr::convolve(0, 0, &rows)).unwrap();
        // Either it factors bit-exactly or it is rejected — both are
        // sound; what is *not* allowed is an inexact factorization.
        if let Some(f) = st.factor() {
            assert_outer_product(&f, &rows);
        }
    }

    /// `separable_op_counts` shrinks ALU work for a separable stage and
    /// leaves non-separable kernels untouched.
    #[test]
    fn op_counts_shrink_only_for_separable_stages() {
        use crate::{ImageDesc, Kernel, Pipeline};
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 8, 8, 1));
        let out = p.add_image(ImageDesc::new("out", 8, 8, 1));
        let mask: [[f32; 3]; 3] = [
            [0.0625, 0.125, 0.0625],
            [0.125, 0.25, 0.125],
            [0.0625, 0.125, 0.0625],
        ];
        let rows: Vec<&[f32]> = mask.iter().map(|r| &r[..]).collect();
        let gauss = Kernel::simple(
            "g",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::convolve(0, 0, &rows)],
            vec![],
        );
        let full = gauss.op_counts();
        let sep = separable_op_counts(&gauss);
        assert!(sep.alu < full.alu, "{} !< {}", sep.alu, full.alu);
        assert!(sep.loads < full.loads);

        let lap: [[f32; 3]; 3] = [[0., 1., 0.], [1., -4., 1.], [0., 1., 0.]];
        let rows: Vec<&[f32]> = lap.iter().map(|r| &r[..]).collect();
        let lap = Kernel::simple(
            "l",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::convolve(0, 0, &rows)],
            vec![],
        );
        assert_eq!(separable_op_counts(&lap), lap.op_counts());
    }
}
