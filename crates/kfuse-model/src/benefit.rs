//! The analytic benefit-estimation model (paper Section II-C).
//!
//! For every dependence edge `(ks, kd)` communicating an intermediate image
//! `ie`, the model estimates the number of execution cycles saved by fusing
//! the two kernels — the edge weight `w_e` that drives the min-cut
//! partitioning. The estimate combines:
//!
//! * **locality improvement** `δ` of relocating `ie` from global memory to
//!   registers (Eq. 4) or shared memory (Eq. 3),
//! * **redundant-computation cost** `φ` when a local consumer forces the
//!   producer to be recomputed per window element (Eqs. 7 and 10), using the
//!   producer's arithmetic cost `cost_op` (Eq. 6) and — for local-to-local
//!   fusion — the grown convolution window `g` (Eq. 9),
//! * an **additional-gains** term `γ` (kernel-launch reduction etc.), and
//! * the clamp `w_e = max(w + γ, ε)` (Eq. 12) that keeps all weights
//!   strictly positive, with illegal or unprofitable fusions pinned at `ε`.

use crate::gpu::{BlockShape, GpuSpec};
use kfuse_ir::{ImageId, Kernel, KernelId, Pipeline, StageRef};

/// The four fusion scenarios of paper Section II-C3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FusionScenario {
    /// Fusion is illegal (external dependence, resource, header) or
    /// unprofitable (estimated benefit ≤ 0).
    Illegal,
    /// The consumer reads the intermediate image element-wise: it can stay
    /// in a register of the producing thread.
    PointBased,
    /// Point producer, window consumer: recompute the producer per window
    /// element, keeping the intermediate in registers.
    PointToLocal,
    /// Local producer, window consumer: the intermediate moves to shared
    /// memory and the producer is recomputed over the grown window.
    LocalToLocal,
}

/// How the iteration-space size `IS(i)` enters the equations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IsMode {
    /// `IS(i) = width · height` — the real definition (Section II-C2).
    Pixels,
    /// `IS(i) = 1` per image — the simplification the paper uses in the
    /// Figure 3 walkthrough ("IS can be simply replaced by the number of
    /// images") where every image has the same constant size.
    ImageCount,
}

/// Locality improvement of moving image of iteration-space size `is` from
/// global memory to **shared memory**: `δ_shared = IS · t_g / t_s` (Eq. 3).
pub fn delta_shared(is: f64, t_global: f64, t_shared: f64) -> f64 {
    is * t_global / t_shared
}

/// Locality improvement of moving an image from global memory to
/// **registers**: `δ_reg = IS · t_g` (Eq. 4).
pub fn delta_register(is: f64, t_global: f64) -> f64 {
    is * t_global
}

/// Arithmetic cost of a producer kernel:
/// `cost_op = c_ALU · n_ALU + c_SFU · n_SFU` (Eq. 6).
pub fn cost_op(c_alu: f64, n_alu: usize, c_sfu: f64, n_sfu: usize) -> f64 {
    c_alu * n_alu as f64 + c_sfu * n_sfu as f64
}

/// Redundant-computation cost of point-to-local fusion:
/// `φ = cost_op · IS_ks · sz(kd)` (Eq. 7).
pub fn phi_point_to_local(cost_op: f64, is_ks: f64, sz_kd: usize) -> f64 {
    cost_op * is_ks * sz_kd as f64
}

/// Fused convolution window of local-to-local fusion:
/// `g(sz_ks, sz_kd) = (⌊√sz_kd + (√sz_ks / 2)⌋ · 2 … )²` (Eq. 9),
/// i.e. the destination side grows by twice the source radius.
///
/// For the paper's example, `g(9, 25) = 49` (a 3×3 source fused into a 5×5
/// destination yields a 7×7 window).
pub fn eq9_fused_window(sz_ks: usize, sz_kd: usize) -> usize {
    let side_s = (sz_ks as f64).sqrt().round() as usize;
    let side_d = (sz_kd as f64).sqrt().round() as usize;
    let side = side_d + (side_s / 2) * 2;
    side * side
}

/// Redundant-computation cost of local-to-local fusion:
/// `φ = cost_op · IS_ks · g(sz_ks, sz_kd)` (Eq. 10).
pub fn phi_local_to_local(cost_op: f64, is_ks: f64, g: usize) -> f64 {
    cost_op * is_ks * g as f64
}

/// How the redundant-computation multiplier of local-to-local fusion is
/// estimated.
///
/// Eq. 10 as printed charges the producer once per element of the *fused*
/// window `g` (Eq. 9) — a conservative bound under which even the paper's
/// own Sobel fusion would be unprofitable (a 3×3 producer with a dozen ALU
/// operations yields `φ = 4·12·25·IS ≫ δ_shared = 100·IS`). The shared-tile
/// code the optimized fusion actually generates computes the producer once
/// per *tile sample*, i.e. `tile/threads ≈ 1.6–2.3` times per output pixel.
/// The tile-amortized mode reproduces the paper's evaluation decisions
/// (fuse Sobel's local-to-local chain; reject the Night filter's expensive
/// atrous pair); the window mode implements Eq. 10 verbatim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L2LRecompute {
    /// `φ = cost_op · IS_ks · g(sz_ks, sz_kd)` — Eq. 10 verbatim.
    Eq10Window,
    /// `φ = cost_op · IS_ks · tile_factor(extent(kd))` — shared-tile
    /// codegen cost (default).
    TileAmortized,
}

/// Why (or whether) an edge's weight was pinned to `ε` by Eq. 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClampReason {
    /// `w_e = δ − φ + γ` survived un-clamped.
    NotClamped,
    /// The pairwise fusion is illegal; the weight is pinned to `ε`
    /// regardless of δ/φ.
    Illegal,
    /// The fusion is legal but `δ − φ + γ < ε` — the recompute cost
    /// swallows the locality gain (Section II-C4's "unprofitable"
    /// scenario).
    Unprofitable,
}

impl std::fmt::Display for ClampReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClampReason::NotClamped => write!(f, "-"),
            ClampReason::Illegal => write!(f, "ε (illegal)"),
            ClampReason::Unprofitable => write!(f, "ε (unprofitable)"),
        }
    }
}

/// Full per-edge estimate produced by [`BenefitModel::edge_weight`].
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeEstimate {
    /// The classified scenario.
    pub scenario: FusionScenario,
    /// Locality improvement `δ` in cycles (0 for illegal edges).
    pub delta: f64,
    /// Redundant-computation cost `φ` in cycles.
    pub phi: f64,
    /// The Eq. 9 grown convolution window `g(sz_ks, sz_kd)` for
    /// local-to-local edges (`None` for every other scenario). Reported
    /// even under [`L2LRecompute::TileAmortized`], where `φ` charges the
    /// tile factor instead — the window is what the paper's walkthrough
    /// tabulates.
    pub g: Option<usize>,
    /// The additional-gains term `γ` that entered `raw` (Eq. 11).
    pub gamma: f64,
    /// `δ − φ + γ` before clamping.
    pub raw: f64,
    /// Final edge weight `w_e = max(δ − φ + γ, ε)` (Eq. 12).
    pub weight: f64,
    /// Whether/why Eq. 12 pinned the weight to `ε`.
    pub clamp: ClampReason,
}

impl EdgeEstimate {
    /// Whether the estimate says fusion along this edge pays off
    /// (i.e. the weight was not clamped to `ε`).
    pub fn is_profitable(&self) -> bool {
        self.scenario != FusionScenario::Illegal && self.raw > 0.0
    }
}

/// The benefit model: a GPU description plus the tunable constants of
/// Eq. 12.
#[derive(Clone, Debug)]
pub struct BenefitModel {
    /// Architecture parameters (`t_g`, `t_s`, `c_ALU`, `c_SFU`, …).
    pub gpu: GpuSpec,
    /// The arbitrarily small positive weight `ε` assigned to illegal and
    /// unprofitable edges.
    pub epsilon: f64,
    /// Additional gains `γ` (launch-overhead reduction, enlarged
    /// optimization scope). The paper omits it as insignificant in its
    /// walkthrough; it defaults to 0.
    pub gamma: f64,
    /// Interpretation of `IS(i)`.
    pub is_mode: IsMode,
    /// Local-to-local recompute estimation mode.
    pub l2l_recompute: L2LRecompute,
    /// Thread-block geometry for the tile-amortized mode.
    pub block: BlockShape,
    /// Price the producer's recompute cost `φ` as if exactly-separable
    /// convolution stages run in their factored row/column form
    /// ([`kfuse_ir::separable_op_counts`]). Enable this when the lowering
    /// pipeline applies the separable rewrite (`kfuse-core`'s
    /// `FusionConfig::separable`), so fusion decisions account for the
    /// cheaper factored recompute. Off by default: the paper's walkthrough
    /// numbers charge the full 2-D mask.
    pub separable_phi: bool,
}

impl BenefitModel {
    /// A model with the paper's defaults for `gpu`.
    pub fn new(gpu: GpuSpec) -> Self {
        Self {
            gpu,
            epsilon: 1e-3,
            gamma: 0.0,
            is_mode: IsMode::Pixels,
            l2l_recompute: L2LRecompute::TileAmortized,
            block: BlockShape::DEFAULT,
            separable_phi: false,
        }
    }

    /// Iteration-space size of an image under the configured [`IsMode`].
    pub fn iteration_space(&self, p: &Pipeline, img: ImageId) -> f64 {
        match self.is_mode {
            IsMode::Pixels => p.image(img).iteration_space() as f64,
            IsMode::ImageCount => 1.0,
        }
    }

    /// `IS_ks`: the summed iteration-space size of all producer inputs
    /// (Section II-C3).
    pub fn is_ks(&self, p: &Pipeline, ks: &Kernel) -> f64 {
        ks.inputs.iter().map(|&i| self.iteration_space(p, i)).sum()
    }

    /// Window size with which `kd` consumes image `ie` (the `sz(kd)` of the
    /// paper, refined to the specific consumed image).
    pub fn consumption_window(&self, kd: &Kernel, ie: ImageId) -> usize {
        let (rx, ry) = self.consumption_extent(kd, ie);
        (2 * rx as usize + 1) * (2 * ry as usize + 1)
    }

    /// Maximum `(rx, ry)` stencil extent with which `kd` reads image `ie`.
    pub fn consumption_extent(&self, kd: &Kernel, ie: ImageId) -> (i32, i32) {
        let mut ext = (0i32, 0i32);
        for s in &kd.stages {
            for (slot, r) in s.refs.iter().enumerate() {
                if let StageRef::Input(i) = r {
                    if kd.inputs[*i] == ie {
                        if let Some((rx, ry)) = s.extent_of_slot(slot) {
                            ext.0 = ext.0.max(rx);
                            ext.1 = ext.1.max(ry);
                        }
                    }
                }
            }
        }
        ext
    }

    /// Classifies the fusion scenario for producer `ks`, consumer `kd` and
    /// the communicated image `ie`.
    pub fn classify(&self, ks: &Kernel, kd: &Kernel, ie: ImageId, legal: bool) -> FusionScenario {
        if !legal {
            return FusionScenario::Illegal;
        }
        let window = self.consumption_window(kd, ie);
        if window == 1 {
            FusionScenario::PointBased
        } else if ks.window_size() == 1 {
            FusionScenario::PointToLocal
        } else {
            FusionScenario::LocalToLocal
        }
    }

    /// Computes the weight of the edge `ks → kd` communicating `ie`
    /// (Eqs. 5, 8, 11, 12). `legal` is the verdict of the pairwise legality
    /// analysis, which lives in `kfuse-core`.
    pub fn edge_weight(
        &self,
        p: &Pipeline,
        ks_id: KernelId,
        kd_id: KernelId,
        ie: ImageId,
        legal: bool,
    ) -> EdgeEstimate {
        let ks = p.kernel(ks_id);
        let kd = p.kernel(kd_id);
        let scenario = self.classify(ks, kd, ie, legal);
        let is_e = self.iteration_space(p, ie);
        // `φ` charges re-evaluating the producer under the consumer's
        // window; if the lowering pipeline factors separable stages, the
        // recomputed body is the cheaper row/column form.
        let counts = if self.separable_phi {
            kfuse_ir::separable_op_counts(ks)
        } else {
            ks.op_counts()
        };
        let producer_cost = cost_op(self.gpu.c_alu, counts.alu, self.gpu.c_sfu, counts.sfu);
        let is_ks = self.is_ks(p, ks);

        let (delta, phi, g) = match scenario {
            FusionScenario::Illegal => (0.0, 0.0, None),
            FusionScenario::PointBased => (delta_register(is_e, self.gpu.t_global), 0.0, None),
            FusionScenario::PointToLocal => {
                let sz_kd = self.consumption_window(kd, ie);
                (
                    delta_register(is_e, self.gpu.t_global),
                    phi_point_to_local(producer_cost, is_ks, sz_kd),
                    None,
                )
            }
            FusionScenario::LocalToLocal => {
                let g = eq9_fused_window(ks.window_size(), self.consumption_window(kd, ie));
                let phi = match self.l2l_recompute {
                    L2LRecompute::Eq10Window => phi_local_to_local(producer_cost, is_ks, g),
                    L2LRecompute::TileAmortized => {
                        let (rx, ry) = self.consumption_extent(kd, ie);
                        producer_cost * is_ks * self.block.tile_factor(rx as usize, ry as usize)
                    }
                };
                (
                    delta_shared(is_e, self.gpu.t_global, self.gpu.t_shared),
                    phi,
                    Some(g),
                )
            }
        };

        let raw = delta - phi + self.gamma;
        // Non-finite `raw` — NaN from ∞ − ∞ or ±∞ from a degenerate
        // GpuSpec with `t_shared = 0` — pins to ε as well: the min-cut
        // graph must only ever see finite positive weights (a plain
        // `raw < ε` comparison is false for NaN and would let it escape).
        let (weight, clamp) = if scenario == FusionScenario::Illegal {
            (self.epsilon, ClampReason::Illegal)
        } else if !raw.is_finite() || raw < self.epsilon {
            (self.epsilon, ClampReason::Unprofitable)
        } else {
            (raw, ClampReason::NotClamped)
        };
        EdgeEstimate {
            scenario,
            delta,
            phi,
            g,
            gamma: self.gamma,
            raw,
            weight,
            clamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{BorderMode, Expr, ImageDesc};

    /// The raw equations reproduce the paper's Figure 3 walkthrough numbers:
    /// `t_g = 400`, `c_ALU = 4`, `n_ALU = 2`, `sz = 9`, `IS ≡ #images`.
    #[test]
    fn harris_walkthrough_weights() {
        let c = cost_op(4.0, 2, 0.0, 0);
        assert_eq!(c, 8.0);
        // (sx, gx) and (sy, gy): one input image → IS_ks = 1.
        let w_sx_gx = delta_register(1.0, 400.0) - phi_point_to_local(c, 1.0, 9);
        assert_eq!(w_sx_gx, 328.0);
        // (sxy, gxy): sxy reads dx and dy → IS_ks = 2.
        let w_sxy_gxy = delta_register(1.0, 400.0) - phi_point_to_local(c, 2.0, 9);
        assert_eq!(w_sxy_gxy, 256.0);
    }

    /// Eq. 9: fusing a 3×3 source into a 5×5 destination yields 7×7;
    /// two 3×3 kernels yield 5×5.
    #[test]
    fn eq9_examples() {
        assert_eq!(eq9_fused_window(9, 25), 49);
        assert_eq!(eq9_fused_window(9, 9), 25);
        assert_eq!(eq9_fused_window(1, 9), 9);
        assert_eq!(eq9_fused_window(25, 25), 81);
    }

    #[test]
    fn delta_equations() {
        assert_eq!(delta_register(100.0, 400.0), 40_000.0);
        assert_eq!(delta_shared(100.0, 400.0, 4.0), 10_000.0);
    }

    fn tiny_pipeline() -> (Pipeline, KernelId, KernelId, ImageId) {
        // in → sq (point) → gauss (3×3 local) → out
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 16, 16, 1));
        let mid = p.add_image(ImageDesc::new("mid", 16, 16, 1));
        let out = p.add_image(ImageDesc::new("out", 16, 16, 1));
        let sq = p.add_kernel(Kernel::simple(
            "sq",
            vec![input],
            mid,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::load(0)],
            vec![],
        ));
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        let gauss = p.add_kernel(Kernel::simple(
            "gauss",
            vec![mid],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::convolve(0, 0, &mask)],
            vec![],
        ));
        p.mark_output(out);
        p.validate().unwrap();
        (p, sq, gauss, mid)
    }

    #[test]
    fn classification_point_to_local() {
        let (p, sq, gauss, mid) = tiny_pipeline();
        let model = BenefitModel::new(GpuSpec::gtx680());
        let est = model.edge_weight(&p, sq, gauss, mid, true);
        assert_eq!(est.scenario, FusionScenario::PointToLocal);
        // δ = 256 px · 400 cycles; φ = (1 ALU · 4) · 256 · 9.
        assert_eq!(est.delta, 256.0 * 400.0);
        assert_eq!(est.phi, 4.0 * 256.0 * 9.0);
        assert!(est.is_profitable());
        assert_eq!(est.weight, est.raw);
        assert_eq!(est.clamp, ClampReason::NotClamped);
        assert_eq!(est.g, None);
    }

    #[test]
    fn classification_point_based_reversed() {
        // gauss → sq direction: consumer reads at (0,0) → point-based.
        let mut p = Pipeline::new("t2");
        let input = p.add_input(ImageDesc::new("in", 16, 16, 1));
        let mid = p.add_image(ImageDesc::new("mid", 16, 16, 1));
        let out = p.add_image(ImageDesc::new("out", 16, 16, 1));
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        let gauss = p.add_kernel(Kernel::simple(
            "gauss",
            vec![input],
            mid,
            vec![BorderMode::Clamp],
            vec![Expr::convolve(0, 0, &mask)],
            vec![],
        ));
        let sq = p.add_kernel(Kernel::simple(
            "sq",
            vec![mid],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::load(0)],
            vec![],
        ));
        p.mark_output(out);
        let model = BenefitModel::new(GpuSpec::gtx680());
        let est = model.edge_weight(&p, gauss, sq, mid, true);
        assert_eq!(est.scenario, FusionScenario::PointBased);
        assert_eq!(est.phi, 0.0);
        assert_eq!(est.delta, 256.0 * 400.0);
    }

    #[test]
    fn illegal_edges_get_epsilon() {
        let (p, sq, gauss, mid) = tiny_pipeline();
        let model = BenefitModel::new(GpuSpec::gtx680());
        let est = model.edge_weight(&p, sq, gauss, mid, false);
        assert_eq!(est.scenario, FusionScenario::Illegal);
        assert_eq!(est.weight, model.epsilon);
        assert!(!est.is_profitable());
        assert_eq!(est.clamp, ClampReason::Illegal);
    }

    #[test]
    fn expensive_producer_clamps_to_epsilon() {
        // A producer with a huge SFU body makes φ outweigh δ — the Night
        // filter situation (Section V-C).
        let mut p = Pipeline::new("night-ish");
        let input = p.add_input(ImageDesc::new("in", 16, 16, 1));
        let mid = p.add_image(ImageDesc::new("mid", 16, 16, 1));
        let out = p.add_image(ImageDesc::new("out", 16, 16, 1));
        // Producer: local with many SFU ops.
        let ones = [1.0f32; 3];
        let rows: Vec<&[f32]> = vec![&ones, &ones, &ones];
        let mut body = Expr::convolve(0, 0, &rows);
        for _ in 0..40 {
            body = Expr::Un(kfuse_ir::UnOp::Exp, Box::new(body));
        }
        let heavy = p.add_kernel(Kernel::simple(
            "heavy",
            vec![input],
            mid,
            vec![BorderMode::Clamp],
            vec![body],
            vec![],
        ));
        let rows5 = [[1.0f32; 5]; 5];
        let mask: Vec<&[f32]> = rows5.iter().map(|r| &r[..]).collect();
        let cons = p.add_kernel(Kernel::simple(
            "cons",
            vec![mid],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::convolve(0, 0, &mask)],
            vec![],
        ));
        p.mark_output(out);
        let model = BenefitModel::new(GpuSpec::gtx680());
        let est = model.edge_weight(&p, heavy, cons, mid, true);
        assert_eq!(est.scenario, FusionScenario::LocalToLocal);
        assert!(est.raw < 0.0, "φ must outweigh δ, got raw {}", est.raw);
        assert_eq!(est.weight, model.epsilon);
        assert!(!est.is_profitable());
        assert_eq!(est.clamp, ClampReason::Unprofitable);
        // 3×3 producer fused into a 5×5 consumer grows to 7×7 (Eq. 9).
        assert_eq!(est.g, Some(49));
    }

    fn local_to_local_pipeline() -> (Pipeline, KernelId, KernelId, ImageId) {
        // in → gauss (3×3) → cons (5×5) → out
        let mut p = Pipeline::new("l2l");
        let input = p.add_input(ImageDesc::new("in", 16, 16, 1));
        let mid = p.add_image(ImageDesc::new("mid", 16, 16, 1));
        let out = p.add_image(ImageDesc::new("out", 16, 16, 1));
        let mask3: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        let gauss = p.add_kernel(Kernel::simple(
            "gauss",
            vec![input],
            mid,
            vec![BorderMode::Clamp],
            vec![Expr::convolve(0, 0, &mask3)],
            vec![],
        ));
        let rows5 = [[1.0f32; 5]; 5];
        let mask5: Vec<&[f32]> = rows5.iter().map(|r| &r[..]).collect();
        let cons = p.add_kernel(Kernel::simple(
            "cons",
            vec![mid],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::convolve(0, 0, &mask5)],
            vec![],
        ));
        p.mark_output(out);
        p.validate().unwrap();
        (p, gauss, cons, mid)
    }

    /// Degenerate GPU parameters must never leak a non-finite weight into
    /// the min-cut graph: `t_shared = 0` makes `δ_shared = ∞`, and with
    /// `t_global = 0` on top the division turns into `0/0 = NaN`. Both pin
    /// to ε (Eq. 12), which `stoer_wagner` then accepts.
    #[test]
    fn degenerate_gpu_clamps_non_finite_weights_to_epsilon() {
        let (p, gauss, cons, mid) = local_to_local_pipeline();
        let mut model = BenefitModel::new(GpuSpec::gtx680());
        model.gpu.t_shared = 0.0;
        let est = model.edge_weight(&p, gauss, cons, mid, true);
        assert_eq!(est.scenario, FusionScenario::LocalToLocal);
        assert!(est.raw.is_infinite());
        assert_eq!(est.weight, model.epsilon);
        assert_eq!(est.clamp, ClampReason::Unprofitable);

        model.gpu.t_global = 0.0;
        let est = model.edge_weight(&p, gauss, cons, mid, true);
        assert!(est.raw.is_nan(), "0/0 should reach the clamp as NaN");
        assert_eq!(est.weight, model.epsilon);
        assert_eq!(est.clamp, ClampReason::Unprofitable);
    }

    /// A zero-thread [`BlockShape`] must not poison the tile-amortized
    /// recompute term with a division by zero.
    #[test]
    fn degenerate_block_shape_stays_finite() {
        let (p, gauss, cons, mid) = local_to_local_pipeline();
        let mut model = BenefitModel::new(GpuSpec::gtx680());
        model.l2l_recompute = L2LRecompute::TileAmortized;
        model.block = BlockShape { bx: 0, by: 0 };
        let est = model.edge_weight(&p, gauss, cons, mid, true);
        assert!(est.phi.is_finite());
        assert!(est.weight.is_finite() && est.weight > 0.0);
    }

    #[test]
    fn image_count_mode_matches_walkthrough() {
        let (p, sq, gauss, mid) = tiny_pipeline();
        let mut model = BenefitModel::new(GpuSpec::gtx680());
        model.is_mode = IsMode::ImageCount;
        model.gpu.t_global = 400.0;
        model.gpu.c_alu = 4.0;
        let est = model.edge_weight(&p, sq, gauss, mid, true);
        // sq has n_ALU = 1 (one multiply): δ=400, φ=4·1·9=36.
        assert_eq!(est.raw, 400.0 - 36.0);
    }

    #[test]
    fn gamma_shifts_weight() {
        let (p, sq, gauss, mid) = tiny_pipeline();
        let mut model = BenefitModel::new(GpuSpec::gtx680());
        let base = model.edge_weight(&p, sq, gauss, mid, true).weight;
        model.gamma = 1000.0;
        let bumped = model.edge_weight(&p, sq, gauss, mid, true).weight;
        assert_eq!(bumped - base, 1000.0);
    }
}
