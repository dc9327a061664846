//! Separable mask factorization: the stage-split rewrite.
//!
//! When a stage's body is a pure 2-D convolution whose mask factors into an
//! exact outer product (see [`kfuse_ir::stencil`]), the stage is split into
//! two chained 1-D passes:
//!
//! * a **row pass** (`name.row`) — a `1 × (2·rx+1)` convolution reading the
//!   stage's original slot, placed in [`MemSpace::Shared`]: the tiled
//!   executor materializes it as a halo plane, exactly like a fused
//!   local-to-local producer;
//! * a **column pass** (keeping the original stage name and memory space) —
//!   a `(2·ry+1) × 1` convolution reading the row pass.
//!
//! Per-pixel tap work drops from `nnz(W)` to `nnz(u) + nnz(v)` (a 3×3
//! Gaussian: 9 → 6; Sobel: 6 → 5), at the cost of one extra halo plane per
//! split stage.
//!
//! **Borders.** [`kfuse_ir::BorderMode::resolve`] exchanges coordinates per
//! axis for `Clamp`/`Mirror`/`Repeat`, so resolving `x+dx` in the row pass
//! and `y+dy` in the column pass visits exactly the taps the 2-D window
//! visited — the index-exchange method of paper Section IV-B composes
//! across the split. `Constant` borders replace a whole out-of-bounds tap
//! with a value and do not decompose per axis; such stages are never split
//! (enforced by [`kfuse_ir::stage_factorization`]).
//!
//! **Numerics.** The factored weights reproduce the original mask bit for
//! bit, but the summation *order* changes (per-row partial sums are scaled
//! once instead of per tap), so a factored pipeline is equivalent to the
//! original only up to floating-point reassociation — rounding-level
//! divergence. This is why the rewrite is **opt-in**
//! ([`crate::FusionConfig::separable`], default `false`): the repo's core
//! oracle — fused output is *bit-identical* to unfused — must keep holding
//! on the default path. A factored pipeline is still bit-identical across
//! *executors* (reference interpreter, scalar tape, SIMD tape), which is
//! what the differential fuzzer's separable lane pins.

use kfuse_ir::stencil::stage_factorization;
use kfuse_ir::{Kernel, MemSpace, Pipeline, Stage, StageRef};

/// Splits every exactly-separable convolution stage of `k` into a
/// row-pass/column-pass pair. Returns `None` if no stage qualifies.
pub fn factor_kernel(k: &Kernel) -> Option<Kernel> {
    let mut stages = k.stages.clone();
    let mut root = k.root;
    let mut splits = 0usize;
    let mut j = 0usize;
    while j < stages.len() {
        let Some(parts) = stage_factorization(&stages[j]) else {
            j += 1;
            continue;
        };
        let s = &stages[j];
        // All channels read through the same border mode (checked by
        // `stage_factorization`); the column pass resolves the y axis
        // through it against the iteration space.
        let border = s.borders[parts[0].0.slot];
        let row = Stage {
            name: format!("{}.row", s.name),
            refs: s.refs.clone(),
            borders: s.borders.clone(),
            body: parts
                .iter()
                .map(|(st, f)| f.row_expr(st.slot, st.ch))
                .collect(),
            params: Vec::new(),
            space: MemSpace::Shared,
        };
        let col = Stage {
            name: s.name.clone(),
            refs: vec![StageRef::Stage(j)],
            borders: vec![border],
            body: parts
                .iter()
                .enumerate()
                .map(|(c, (_, f))| f.col_expr(0, c))
                .collect(),
            params: Vec::new(),
            space: s.space,
        };
        stages[j] = col;
        stages.insert(j, row);
        // Later stages' references at or above the split point shift by one
        // (the column pass at j+1 is the old stage j).
        for s2 in &mut stages[j + 2..] {
            for r in &mut s2.refs {
                if let StageRef::Stage(t) = r {
                    if *t >= j {
                        *r = StageRef::Stage(*t + 1);
                    }
                }
            }
        }
        if root >= j {
            root += 1;
        }
        splits += 1;
        j += 2;
    }
    if splits == 0 {
        return None;
    }
    let mut out = k.clone();
    out.stages = stages;
    out.root = root;
    debug_assert!(out.check().is_ok(), "factored kernel must stay valid");
    Some(out)
}

/// Applies [`factor_kernel`] across a pipeline. Returns the rewritten
/// pipeline and the number of stages that were split.
pub fn factor_pipeline(p: &Pipeline) -> (Pipeline, usize) {
    let mut splits = 0usize;
    let kernels = p
        .kernels()
        .iter()
        .map(|k| match factor_kernel(k) {
            Some(f) => {
                splits += f.stages.len() - k.stages.len();
                f
            }
            None => k.clone(),
        })
        .collect();
    let out = p.with_kernels(kernels);
    debug_assert!(out.validate().is_ok(), "factored pipeline must validate");
    (out, splits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{BorderMode, ComputePattern, Expr, ImageDesc};

    const GAUSS3: [[f32; 3]; 3] = [
        [0.0625, 0.125, 0.0625],
        [0.125, 0.25, 0.125],
        [0.0625, 0.125, 0.0625],
    ];

    fn gauss_kernel(border: BorderMode) -> (Pipeline, Kernel) {
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 8, 8, 1));
        let out = p.add_image(ImageDesc::new("out", 8, 8, 1));
        let rows: Vec<&[f32]> = GAUSS3.iter().map(|r| &r[..]).collect();
        let k = Kernel::simple(
            "g",
            vec![input],
            out,
            vec![border],
            vec![Expr::convolve(0, 0, &rows)],
            vec![],
        );
        p.add_kernel(k.clone());
        p.mark_output(out);
        (p, k)
    }

    #[test]
    fn splits_gaussian_into_row_and_column_passes() {
        let (_, k) = gauss_kernel(BorderMode::Clamp);
        let f = factor_kernel(&k).expect("gaussian factors");
        assert_eq!(f.stages.len(), 2);
        assert_eq!(f.root, 1);
        assert_eq!(f.stages[0].name, "g.row");
        assert_eq!(f.stages[0].space, MemSpace::Shared);
        assert_eq!(f.stages[0].max_extent(), (1, 0));
        assert_eq!(f.stages[1].name, "g");
        assert_eq!(f.stages[1].space, MemSpace::Global);
        assert_eq!(f.stages[1].max_extent(), (0, 1));
        assert_eq!(f.stages[1].refs, vec![StageRef::Stage(0)]);
        assert_eq!(f.pattern(), ComputePattern::Local);
        assert!(f.check().is_ok());
    }

    #[test]
    fn constant_border_is_never_split() {
        let (_, k) = gauss_kernel(BorderMode::Constant(0.0));
        assert!(factor_kernel(&k).is_none());
    }

    #[test]
    fn point_kernels_are_never_split() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 8, 8, 1));
        let out = p.add_image(ImageDesc::new("out", 8, 8, 1));
        let k = Kernel::simple(
            "sq",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::load(0)],
            vec![],
        );
        assert!(factor_kernel(&k).is_none());
    }

    /// A downstream stage's `Stage` references shift across the split.
    #[test]
    fn stage_references_are_remapped() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 8, 8, 1));
        let out = p.add_image(ImageDesc::new("out", 8, 8, 1));
        let rows: Vec<&[f32]> = GAUSS3.iter().map(|r| &r[..]).collect();
        // Fused-kernel shape: stage 0 = gaussian (Shared), stage 1 = root
        // point stage consuming it alongside the external input.
        let k = Kernel {
            name: "g+p".into(),
            inputs: vec![input],
            output: out,
            stages: vec![
                Stage {
                    name: "g".into(),
                    refs: vec![StageRef::Input(0)],
                    borders: vec![BorderMode::Mirror],
                    body: vec![Expr::convolve(0, 0, &rows)].into(),
                    params: vec![],
                    space: MemSpace::Shared,
                },
                Stage {
                    name: "p".into(),
                    refs: vec![StageRef::Stage(0), StageRef::Input(0)],
                    borders: vec![BorderMode::Mirror, BorderMode::Mirror],
                    body: vec![Expr::load(0) + Expr::load(1)].into(),
                    params: vec![],
                    space: MemSpace::Global,
                },
            ],
            root: 1,
            input_staging: true,
        };
        p.add_kernel(k.clone());
        p.mark_output(out);
        let f = factor_kernel(&k).expect("gaussian stage factors");
        assert_eq!(f.stages.len(), 3);
        assert_eq!(f.root, 2);
        // The consumer now reads the column pass (old stage 0 → new 1).
        assert_eq!(
            f.stages[2].refs,
            vec![StageRef::Stage(1), StageRef::Input(0)]
        );
        assert!(f.check().is_ok());
        let (fp, n) = factor_pipeline(&p);
        assert_eq!(n, 1);
        assert!(fp.validate().is_ok());
    }

    #[test]
    fn factor_pipeline_counts_splits() {
        let (p, _) = gauss_kernel(BorderMode::Clamp);
        let (fp, n) = factor_pipeline(&p);
        assert_eq!(n, 1);
        assert_eq!(fp.kernels()[0].stages.len(), 2);
        assert!(fp.validate().is_ok());
    }
}
