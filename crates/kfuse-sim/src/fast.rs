//! Fast pipeline execution: the compiled tiled engine behind
//! [`crate::exec::execute`].
//!
//! The engine composes the crate's two lower layers:
//!
//! * [`crate::tape`] — stages lowered to flat SSA instruction tapes with
//!   common-subexpression elimination (no tree recursion, no per-node
//!   dispatch, parameters folded to constants);
//! * [`crate::tile`] — evaluation in full-width row strips with
//!   per-strip halo-plane materialization of inlined stages and
//!   multi-threaded row bands.
//!
//! Output is **bit-identical** to [`crate::exec::execute_reference`] for
//! every pipeline: both paths perform the same f32 operations on the same
//! operand values, the fast path merely avoids recomputing pure
//! subexpressions. The differential tests in `tests/fast_executor.rs`
//! enforce this across all six paper applications, every schedule, and
//! every border mode.
//!
//! The statically in-bounds interior of each row runs instruction-at-a-time
//! over contiguous spans (the row passes in `simd.rs`): plain loops that
//! perform exactly the interpreter's per-pixel operation and that the
//! compiler vectorizes. There is one interior; nothing selects it.

use crate::exec::{ExecError, Execution};
use crate::plan::CompiledPlan;
use kfuse_ir::{Image, ImageId, Pipeline};

/// Configuration of the fast executor (re-exported tile configuration:
/// strip height and worker-thread count, both derived when `None`).
pub use crate::tile::TileConfig as FastConfig;

/// Executes a pipeline with the compiled tiled engine and default
/// configuration. Drop-in, bit-identical replacement for
/// [`crate::exec::execute_reference`].
pub fn execute_fast(p: &Pipeline, inputs: &[(ImageId, Image)]) -> Result<Execution, ExecError> {
    execute_fast_with(p, inputs, &FastConfig::default())
}

/// Executes a pipeline with the compiled tiled engine and an explicit
/// configuration (strip height, thread count).
///
/// Compiles a throwaway [`CompiledPlan`] and executes it once. Callers
/// that run the same pipeline repeatedly should hold on to the plan (or go
/// through `kfuse-runtime`, which caches plans by pipeline fingerprint).
pub fn execute_fast_with(
    p: &Pipeline,
    inputs: &[(ImageId, Image)],
    cfg: &FastConfig,
) -> Result<Execution, ExecError> {
    CompiledPlan::compile(p)?.execute(inputs, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_reference, synthetic_image};
    use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel};

    /// Two chained kernels: a 3×3 box blur feeding a point threshold.
    fn two_kernel_pipeline(w: usize, h: usize, channels: usize) -> (Pipeline, ImageId, ImageId) {
        let mut p = Pipeline::new("two");
        let input = p.add_input(ImageDesc::new("in", w, h, channels));
        let mid = p.add_image(ImageDesc::new("mid", w, h, channels));
        let out = p.add_image(ImageDesc::new("out", w, h, channels));
        let mask: Vec<&[f32]> = vec![&[1.0; 3]; 3];
        let blur: Vec<Expr> = (0..channels).map(|c| Expr::convolve(0, c, &mask)).collect();
        p.add_kernel(Kernel::simple(
            "blur",
            vec![input],
            mid,
            vec![BorderMode::Mirror],
            blur,
            vec![],
        ));
        let thresh: Vec<Expr> = (0..channels)
            .map(|c| {
                Expr::Select(
                    Box::new(
                        Expr::Load {
                            slot: 0,
                            dx: 0,
                            dy: 0,
                            ch: c,
                        } - Expr::Const(1000.0),
                    ),
                    Box::new(Expr::Const(1.0)),
                    Box::new(Expr::Const(0.0)),
                )
            })
            .collect();
        p.add_kernel(Kernel::simple(
            "thresh",
            vec![mid],
            out,
            vec![BorderMode::Clamp],
            thresh,
            vec![],
        ));
        p.mark_output(out);
        (p, input, out)
    }

    #[test]
    fn multi_kernel_pipeline_matches_reference() {
        let (p, input, out) = two_kernel_pipeline(19, 11, 1);
        let img = synthetic_image(p.image(input).clone(), 5);
        let fast = execute_fast(&p, &[(input, img.clone())]).unwrap();
        let reference = execute_reference(&p, &[(input, img)]).unwrap();
        assert!(fast
            .expect_image(out)
            .bit_equal(reference.expect_image(out)));
    }

    #[test]
    fn rgb_pipeline_matches_reference() {
        let (p, input, out) = two_kernel_pipeline(13, 9, 3);
        let img = synthetic_image(p.image(input).clone(), 11);
        let cfg = FastConfig {
            strip_rows: Some(4),
            threads: Some(3),
        };
        let fast = execute_fast_with(&p, &[(input, img.clone())], &cfg).unwrap();
        let reference = execute_reference(&p, &[(input, img)]).unwrap();
        assert!(fast
            .expect_image(out)
            .bit_equal(reference.expect_image(out)));
    }

    #[test]
    fn intermediates_are_materialized() {
        let (p, input, _) = two_kernel_pipeline(8, 8, 1);
        let img = synthetic_image(p.image(input).clone(), 1);
        let fast = execute_fast(&p, &[(input, img)]).unwrap();
        // Every pipeline image of this unfused pipeline is produced.
        for id in 0..3 {
            assert!(fast.image(kfuse_ir::ImageId(id)).is_some());
        }
    }

    #[test]
    fn errors_pass_through() {
        let (p, _, _) = two_kernel_pipeline(8, 8, 1);
        assert!(matches!(
            execute_fast(&p, &[]),
            Err(ExecError::MissingInput { .. })
        ));
    }
}
