//! Structural validation of the CUDA backend on the real evaluation
//! applications: fused kernels must emit the staging, synchronization and
//! index-exchange machinery the paper's Section IV describes.

use kfuse_apps::{harris, night, sobel, unsharp};
use kfuse_core::{fuse_optimized, FusionConfig};
use kfuse_model::{BenefitModel, BlockShape, GpuSpec};
use kfuse_paper::{emit_kernel, emit_module};

fn cfg() -> FusionConfig {
    FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()))
}

fn balanced(src: &str) {
    assert_eq!(src.matches('{').count(), src.matches('}').count(), "braces");
    assert_eq!(src.matches('(').count(), src.matches(')').count(), "parens");
}

#[test]
fn fused_harris_pairs_emit_recompute_functions() {
    let p = harris::harris(64, 64, harris::DEFAULT_K);
    let fused = fuse_optimized(&p, &cfg()).pipeline;
    let pair = fused
        .kernels()
        .iter()
        .find(|k| k.name == "sx+gx")
        .expect("sx+gx fused kernel");
    let src = emit_kernel(&fused, pair, BlockShape::DEFAULT);
    balanced(&src);
    // The point producer becomes a __device__ function (register stage)...
    assert!(src.contains("__device__ __forceinline__ float sx_gx_sx_c0("));
    assert!(src.contains("register stage (recomputed per use)"));
    // ...called with index-exchanged coordinates from the consumer window.
    assert!(src.contains("sx_gx_sx_c0(in0, w, h, kf_border_clamp("));
    // The fused kernel's input (dx's image) is staged into shared memory.
    assert!(src.contains("__shared__ float s_in0"));
    assert!(src.contains("__syncthreads();"));
}

#[test]
fn fused_sobel_emits_shared_stage_tile() {
    let p = sobel::sobel(64, 64);
    let fused = fuse_optimized(&p, &cfg()).pipeline;
    assert_eq!(fused.kernels().len(), 1);
    let src = emit_kernel(&fused, &fused.kernels()[0], BlockShape::DEFAULT);
    balanced(&src);
    // blur is a local-to-local intermediate: its own shared tile, filled by
    // evaluating the blur stage function over the halo.
    assert!(src.contains("shared-memory stage (tile below)"));
    assert!(src.contains("__shared__ float s_blur_dx_dy_mag_blur"));
    assert!(src.contains("blur_dx_dy_mag_blur_c0("));
    assert!(src.contains("sqrtf("));
}

#[test]
fn fused_unsharp_keeps_one_input_and_no_stage_tiles() {
    let p = unsharp::unsharp(64, 64, unsharp::DEFAULT_LAMBDA);
    let fused = fuse_optimized(&p, &cfg()).pipeline;
    let src = emit_kernel(&fused, &fused.kernels()[0], BlockShape::DEFAULT);
    balanced(&src);
    // Single external input; blur is point-consumed → register stage, no
    // stage tile (only the staged input tile).
    assert!(src.contains("const float* __restrict__ in0, float* __restrict__ out"));
    assert!(!src.contains("__shared__ float s_blur_highpass"));
    assert!(src.contains("__shared__ float s_in0"));
    assert!(src.contains("fminf(fmaxf("));
}

#[test]
fn night_module_is_rgb_and_complete() {
    let p = night::night(32, 32);
    let fused = fuse_optimized(&p, &cfg()).pipeline;
    let src = emit_module(&fused, BlockShape::DEFAULT, 500);
    balanced(&src);
    // RGB: three channels per pixel in loads and stores.
    assert!(src.contains("* 3 + 0]"));
    assert!(src.contains("* 3 + 2]"));
    // Module completeness: prelude, launchers, runner, timing main.
    assert!(src.contains("kf_border_clamp"));
    assert!(src.contains("void launch_atrous0("));
    assert!(src.contains("void launch_atrous1_scoto("));
    assert!(src.contains("void run_pipeline("));
    assert!(src.contains("for (int run = 0; run < 500; ++run)"));
}

#[test]
fn every_schedule_of_every_app_emits_balanced_modules() {
    use kfuse_apps::paper_apps;
    use kfuse_dsl::{compile, Schedule};
    for app in paper_apps() {
        let p = (app.build_sized)(32, 32);
        for schedule in Schedule::ALL {
            let compiled = compile(&p, schedule, &cfg());
            let src = emit_module(&compiled, BlockShape::DEFAULT, 50);
            balanced(&src);
            assert!(
                src.matches("__global__").count() >= compiled.kernels().len(),
                "{} {:?}: every kernel needs a __global__",
                app.name,
                schedule
            );
        }
    }
}
