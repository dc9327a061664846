//! Scalar expression trees for kernel bodies.
//!
//! Kernel bodies are side-effect-free scalar expressions over constants,
//! scalar parameters, and *static-offset* loads from input slots. Local
//! operators are represented **unrolled**: a 3×3 convolution is a sum of
//! nine `Load`s scaled by mask coefficients. This makes the convolution
//! extent of a kernel a derived property ([`Expr::extent_of_slot`]) and
//! turns kernel fusion into plain expression composition.
//!
//! Operation classification follows the paper's cost model (Eq. 6): binary
//! and simple unary operations execute on ALUs; transcendental operations
//! (square root, exponential, …) execute on SFUs.

use crate::math;

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum of the operands.
    Min,
    /// Maximum of the operands.
    Max,
    /// `a.powf(b)` ([`crate::math::pow`]) — executes on the SFU.
    Pow,
    /// `1.0` if `a < b`, else `0.0`.
    Lt,
    /// `1.0` if `a > b`, else `0.0`.
    Gt,
}

impl BinOp {
    /// Whether the operation executes on a special function unit.
    pub fn is_sfu(self) -> bool {
        matches!(self, BinOp::Pow)
    }

    /// Applies the operation to two scalars.
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::Pow => math::pow(a, b),
            BinOp::Lt => f32::from(a < b),
            BinOp::Gt => f32::from(a > b),
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root — SFU.
    Sqrt,
    /// Natural exponential ([`crate::math::exp`]) — SFU.
    Exp,
    /// Natural logarithm ([`crate::math::ln`]) — SFU.
    Log,
    /// Sine — SFU.
    Sin,
    /// Cosine — SFU.
    Cos,
    /// Reciprocal square root — SFU.
    Rsqrt,
    /// Round toward negative infinity.
    Floor,
}

impl UnOp {
    /// Whether the operation executes on a special function unit.
    pub fn is_sfu(self) -> bool {
        matches!(
            self,
            UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Sin | UnOp::Cos | UnOp::Rsqrt
        )
    }

    /// Applies the operation to a scalar.
    #[inline]
    pub fn apply(self, a: f32) -> f32 {
        match self {
            UnOp::Neg => -a,
            UnOp::Abs => a.abs(),
            UnOp::Sqrt => a.sqrt(),
            UnOp::Exp => math::exp(a),
            UnOp::Log => math::ln(a),
            UnOp::Sin => a.sin(),
            UnOp::Cos => a.cos(),
            UnOp::Rsqrt => a.sqrt().recip(),
            UnOp::Floor => a.floor(),
        }
    }
}

/// A scalar expression.
///
/// `slot` in [`Expr::Load`] indexes the *reference table* of the enclosing
/// stage (see [`crate::Stage`]): in an unfused kernel every slot refers to
/// an input image; after fusion a slot may refer to another stage of the
/// fused kernel.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Const(f32),
    /// A scalar kernel parameter (index into the stage's parameter table).
    Param(usize),
    /// Load channel `ch` of reference `slot` at static offset `(dx, dy)`
    /// from the current iteration position.
    Load {
        /// Index into the stage's reference table.
        slot: usize,
        /// Horizontal offset in pixels.
        dx: i32,
        /// Vertical offset in pixels.
        dy: i32,
        /// Channel of the referenced source.
        ch: usize,
    },
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// `if cond > 0 { then } else { otherwise }` — one ALU operation.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// Per-pattern operation counts of an expression (paper Eq. 6 inputs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Arithmetic-logic-unit operations (`n_ALU`).
    pub alu: usize,
    /// Special-function-unit operations (`n_SFU`).
    pub sfu: usize,
    /// Number of `Load` leaves.
    pub loads: usize,
}

impl OpCounts {
    /// Component-wise sum.
    pub fn merge(self, other: OpCounts) -> OpCounts {
        OpCounts {
            alu: self.alu + other.alu,
            sfu: self.sfu + other.sfu,
            loads: self.loads + other.loads,
        }
    }
}

impl Expr {
    /// Convenience constructor for a single-channel load at offset `(0, 0)`.
    pub fn load(slot: usize) -> Expr {
        Expr::Load {
            slot,
            dx: 0,
            dy: 0,
            ch: 0,
        }
    }

    /// Convenience constructor for a single-channel load at `(dx, dy)`.
    pub fn load_at(slot: usize, dx: i32, dy: i32) -> Expr {
        Expr::Load {
            slot,
            dx,
            dy,
            ch: 0,
        }
    }

    /// Counts ALU/SFU operations and loads in this expression.
    pub fn op_counts(&self) -> OpCounts {
        match self {
            Expr::Const(_) | Expr::Param(_) => OpCounts::default(),
            Expr::Load { .. } => OpCounts {
                alu: 0,
                sfu: 0,
                loads: 1,
            },
            Expr::Bin(op, a, b) => {
                let mut c = a.op_counts().merge(b.op_counts());
                if op.is_sfu() {
                    c.sfu += 1;
                } else {
                    c.alu += 1;
                }
                c
            }
            Expr::Un(op, a) => {
                let mut c = a.op_counts();
                if op.is_sfu() {
                    c.sfu += 1;
                } else {
                    c.alu += 1;
                }
                c
            }
            Expr::Select(c, t, e) => {
                let mut n = c.op_counts().merge(t.op_counts()).merge(e.op_counts());
                n.alu += 1;
                n
            }
        }
    }

    /// Calls `f` for every `Load` leaf in evaluation order.
    pub fn visit_loads(&self, f: &mut impl FnMut(usize, i32, i32, usize)) {
        match self {
            Expr::Const(_) | Expr::Param(_) => {}
            Expr::Load { slot, dx, dy, ch } => f(*slot, *dx, *dy, *ch),
            Expr::Bin(_, a, b) => {
                a.visit_loads(f);
                b.visit_loads(f);
            }
            Expr::Un(_, a) => a.visit_loads(f),
            Expr::Select(c, t, e) => {
                c.visit_loads(f);
                t.visit_loads(f);
                e.visit_loads(f);
            }
        }
    }

    /// Maximum absolute `(dx, dy)` offset over all loads of `slot`,
    /// or `None` if the slot is never loaded.
    ///
    /// For an unrolled 3×3 convolution this returns `(1, 1)`; the
    /// convolution size `sz(k)` of the paper is `(2·rx+1)·(2·ry+1)`.
    pub fn extent_of_slot(&self, slot: usize) -> Option<(i32, i32)> {
        let mut extent: Option<(i32, i32)> = None;
        self.visit_loads(&mut |s, dx, dy, _| {
            if s == slot {
                let e = extent.get_or_insert((0, 0));
                e.0 = e.0.max(dx.abs());
                e.1 = e.1.max(dy.abs());
            }
        });
        extent
    }

    /// Distinct `(dx, dy)` offsets at which `slot` is loaded, sorted.
    pub fn offsets_of_slot(&self, slot: usize) -> Vec<(i32, i32)> {
        let mut offs = Vec::new();
        self.visit_loads(&mut |s, dx, dy, _| {
            if s == slot && !offs.contains(&(dx, dy)) {
                offs.push((dx, dy));
            }
        });
        offs.sort_unstable();
        offs
    }

    /// Distinct slots loaded anywhere in the expression, sorted.
    pub fn loaded_slots(&self) -> Vec<usize> {
        let mut slots = Vec::new();
        self.visit_loads(&mut |s, _, _, _| {
            if !slots.contains(&s) {
                slots.push(s);
            }
        });
        slots.sort_unstable();
        slots
    }

    /// Rewrites every `Load` leaf through `f` (bottom-up structural map).
    ///
    /// The fusion transformation uses this to redirect loads from an
    /// eliminated intermediate image to an inlined stage.
    pub fn map_loads(&self, f: &impl Fn(usize, i32, i32, usize) -> Expr) -> Expr {
        match self {
            Expr::Const(_) | Expr::Param(_) => self.clone(),
            Expr::Load { slot, dx, dy, ch } => f(*slot, *dx, *dy, *ch),
            Expr::Bin(op, a, b) => {
                Expr::Bin(*op, Box::new(a.map_loads(f)), Box::new(b.map_loads(f)))
            }
            Expr::Un(op, a) => Expr::Un(*op, Box::new(a.map_loads(f))),
            Expr::Select(c, t, e) => Expr::Select(
                Box::new(c.map_loads(f)),
                Box::new(t.map_loads(f)),
                Box::new(e.map_loads(f)),
            ),
        }
    }

    /// Rewrites every `Param(i)` leaf through `f`.
    ///
    /// Fusion merges the parameter tables of the fused kernels and uses this
    /// to renumber parameters.
    pub fn map_params(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Const(_) => self.clone(),
            Expr::Param(i) => Expr::Param(f(*i)),
            Expr::Load { .. } => self.clone(),
            Expr::Bin(op, a, b) => {
                Expr::Bin(*op, Box::new(a.map_params(f)), Box::new(b.map_params(f)))
            }
            Expr::Un(op, a) => Expr::Un(*op, Box::new(a.map_params(f))),
            Expr::Select(c, t, e) => Expr::Select(
                Box::new(c.map_params(f)),
                Box::new(t.map_params(f)),
                Box::new(e.map_params(f)),
            ),
        }
    }

    /// Number of nodes in the expression tree.
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Param(_) | Expr::Load { .. } => 1,
            Expr::Bin(_, a, b) => 1 + a.size() + b.size(),
            Expr::Un(_, a) => 1 + a.size(),
            Expr::Select(c, t, e) => 1 + c.size() + t.size() + e.size(),
        }
    }

    /// Folds constant sub-expressions bottom-up.
    ///
    /// Fusion inlines producer bodies, which frequently creates
    /// constant-only sub-trees (e.g. a mask coefficient times a parameterless
    /// scale); folding them keeps fused bodies — and the operation counts the
    /// cost model derives from them — tight. Only exact, total operations are
    /// folded (`Select` folds when its condition is constant).
    pub fn fold_constants(&self) -> Expr {
        match self {
            Expr::Const(_) | Expr::Param(_) | Expr::Load { .. } => self.clone(),
            Expr::Bin(op, a, b) => {
                let (fa, fb) = (a.fold_constants(), b.fold_constants());
                if let (Expr::Const(x), Expr::Const(y)) = (&fa, &fb) {
                    return Expr::Const(op.apply(*x, *y));
                }
                // Algebraic identities that generated code would never emit:
                // x·1 = x, x+0 = x, 1·x = x, 0+x = x.
                match (*op, &fa, &fb) {
                    (BinOp::Mul, e, Expr::Const(c)) | (BinOp::Mul, Expr::Const(c), e)
                        if *c == 1.0 =>
                    {
                        e.clone()
                    }
                    (BinOp::Add, e, Expr::Const(c)) | (BinOp::Add, Expr::Const(c), e)
                        if *c == 0.0 =>
                    {
                        e.clone()
                    }
                    _ => Expr::Bin(*op, Box::new(fa), Box::new(fb)),
                }
            }
            Expr::Un(op, a) => {
                let fa = a.fold_constants();
                if let Expr::Const(x) = fa {
                    Expr::Const(op.apply(x))
                } else {
                    Expr::Un(*op, Box::new(fa))
                }
            }
            Expr::Select(c, t, e) => {
                let fc = c.fold_constants();
                if let Expr::Const(x) = fc {
                    if x > 0.0 {
                        t.fold_constants()
                    } else {
                        e.fold_constants()
                    }
                } else {
                    Expr::Select(
                        Box::new(fc),
                        Box::new(t.fold_constants()),
                        Box::new(e.fold_constants()),
                    )
                }
            }
        }
    }

    /// Builds an unrolled 2D convolution of `slot` with `mask`
    /// (row-major, `(2·rx+1) × (2·ry+1)`), reading channel `ch`.
    ///
    /// Zero coefficients are skipped — exactly what a DSL code generator
    /// does when unrolling a mask — so Sobel masks cost 6 loads, not 9.
    ///
    /// # Panics
    ///
    /// Panics if the mask is empty or ragged.
    pub fn convolve(slot: usize, ch: usize, mask: &[&[f32]]) -> Expr {
        assert!(
            !mask.is_empty() && !mask[0].is_empty(),
            "mask must be non-empty"
        );
        let mw = mask[0].len();
        assert!(mask.iter().all(|r| r.len() == mw), "ragged mask");
        assert!(mask.len() % 2 == 1 && mw % 2 == 1, "mask sides must be odd");
        let ry = (mask.len() / 2) as i32;
        let rx = (mw / 2) as i32;
        let mut acc: Option<Expr> = None;
        for (j, row) in mask.iter().enumerate() {
            for (i, &coef) in row.iter().enumerate() {
                if coef == 0.0 {
                    continue;
                }
                let load = Expr::Load {
                    slot,
                    dx: i as i32 - rx,
                    dy: j as i32 - ry,
                    ch,
                };
                let term = if coef == 1.0 {
                    load
                } else {
                    Expr::Bin(BinOp::Mul, Box::new(load), Box::new(Expr::Const(coef)))
                };
                acc = Some(match acc {
                    None => term,
                    Some(a) => Expr::Bin(BinOp::Add, Box::new(a), Box::new(term)),
                });
            }
        }
        acc.expect("mask must contain a non-zero coefficient")
    }
}

// --- Operator-overloading sugar used by the DSL layer -----------------------

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Un(UnOp::Neg, Box::new(self))
    }
}

impl From<f32> for Expr {
    fn from(v: f32) -> Expr {
        Expr::Const(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sobel_x() -> Vec<Vec<f32>> {
        vec![
            vec![-1.0, 0.0, 1.0],
            vec![-2.0, 0.0, 2.0],
            vec![-1.0, 0.0, 1.0],
        ]
    }

    fn conv(mask: &[Vec<f32>]) -> Expr {
        let rows: Vec<&[f32]> = mask.iter().map(Vec::as_slice).collect();
        Expr::convolve(0, 0, &rows)
    }

    #[test]
    fn op_counts_simple() {
        // (a + b) * sqrt(c)
        let e = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::load(0) + Expr::load(1)),
            Box::new(Expr::Un(UnOp::Sqrt, Box::new(Expr::load(2)))),
        );
        let c = e.op_counts();
        assert_eq!(c.alu, 2);
        assert_eq!(c.sfu, 1);
        assert_eq!(c.loads, 3);
    }

    #[test]
    fn pow_counts_as_sfu() {
        let e = Expr::Bin(
            BinOp::Pow,
            Box::new(Expr::load(0)),
            Box::new(Expr::Const(2.2)),
        );
        assert_eq!(e.op_counts().sfu, 1);
        assert_eq!(e.op_counts().alu, 0);
    }

    #[test]
    fn convolve_skips_zero_coefficients() {
        let e = conv(&sobel_x());
        let c = e.op_counts();
        assert_eq!(c.loads, 6); // zero column skipped
        assert_eq!(e.extent_of_slot(0), Some((1, 1)));
        assert_eq!(e.offsets_of_slot(0).len(), 6);
    }

    #[test]
    fn convolve_unit_coefficients_have_no_mul() {
        let box3 = vec![vec![1.0; 3]; 3];
        let e = conv(&box3);
        let c = e.op_counts();
        assert_eq!(c.loads, 9);
        assert_eq!(c.alu, 8); // 8 additions, no multiplications
    }

    #[test]
    fn extent_absent_slot() {
        let e = Expr::load(0);
        assert_eq!(e.extent_of_slot(3), None);
        assert_eq!(e.extent_of_slot(0), Some((0, 0)));
    }

    #[test]
    fn loaded_slots_sorted_unique() {
        let e = Expr::load(2) + Expr::load(0) + Expr::load(2);
        assert_eq!(e.loaded_slots(), vec![0, 2]);
    }

    #[test]
    fn map_loads_redirects() {
        let e = Expr::load_at(0, 1, -1) + Expr::Const(3.0);
        let out = e.map_loads(&|slot, dx, dy, ch| Expr::Load {
            slot: slot + 5,
            dx,
            dy,
            ch,
        });
        assert_eq!(out.loaded_slots(), vec![5]);
        assert_eq!(out.extent_of_slot(5), Some((1, 1)));
    }

    #[test]
    fn map_params_renumbers() {
        let e = Expr::Param(0) * Expr::Param(1);
        let out = e.map_params(&|i| i + 10);
        match out {
            Expr::Bin(BinOp::Mul, a, b) => {
                assert_eq!(*a, Expr::Param(10));
                assert_eq!(*b, Expr::Param(11));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn apply_semantics() {
        assert_eq!(BinOp::Min.apply(2.0, -1.0), -1.0);
        assert_eq!(BinOp::Lt.apply(1.0, 2.0), 1.0);
        assert_eq!(BinOp::Gt.apply(1.0, 2.0), 0.0);
        assert_eq!(UnOp::Neg.apply(3.0), -3.0);
        assert_eq!(UnOp::Rsqrt.apply(4.0), 0.5);
        assert_eq!(UnOp::Floor.apply(1.9), 1.0);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_mask_rejected() {
        let mask = vec![vec![1.0, 1.0]];
        let _ = conv(&mask);
    }

    #[test]
    fn fold_constant_subtrees() {
        // (2 + 3) * load → 5 * load
        let e = (Expr::Const(2.0) + Expr::Const(3.0)) * Expr::load(0);
        let f = e.fold_constants();
        assert_eq!(
            f,
            Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::Const(5.0)),
                Box::new(Expr::load(0))
            )
        );
        assert!(f.size() < e.size());
    }

    #[test]
    fn fold_identities() {
        let x = Expr::load(0);
        assert_eq!((x.clone() * Expr::Const(1.0)).fold_constants(), x);
        assert_eq!((x.clone() + Expr::Const(0.0)).fold_constants(), x);
        assert_eq!((Expr::Const(1.0) * x.clone()).fold_constants(), x);
        // 0.0 * x is NOT folded away (x could be NaN).
        let e = (Expr::Const(0.0) * x.clone()).fold_constants();
        assert_eq!(e.op_counts().alu, 1);
    }

    #[test]
    fn fold_unary_and_select() {
        let e = Expr::Un(UnOp::Sqrt, Box::new(Expr::Const(9.0)));
        assert_eq!(e.fold_constants(), Expr::Const(3.0));
        let s = Expr::Select(
            Box::new(Expr::Const(1.0)),
            Box::new(Expr::load(0)),
            Box::new(Expr::load(1)),
        );
        assert_eq!(s.fold_constants(), Expr::load(0));
        let s2 = Expr::Select(
            Box::new(Expr::Const(-1.0)),
            Box::new(Expr::load(0)),
            Box::new(Expr::load(1)),
        );
        assert_eq!(s2.fold_constants(), Expr::load(1));
    }

    #[test]
    fn fold_preserves_param_and_load_trees() {
        let e = Expr::Param(0) * Expr::load(1) + Expr::Const(2.0) * Expr::Const(4.0);
        let f = e.fold_constants();
        assert_eq!(f.op_counts().loads, 1);
        // The constant product folded; the param product did not.
        match f {
            Expr::Bin(BinOp::Add, _, rhs) => assert_eq!(*rhs, Expr::Const(8.0)),
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Expr::load(0).size(), 1);
        assert_eq!((Expr::load(0) + Expr::Const(1.0)).size(), 3);
    }
}
