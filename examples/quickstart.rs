//! Quickstart: build a small pipeline in the DSL, fuse it with the
//! min-cut planner, and verify the fused pipeline is bit-identical to the
//! unfused one.
//!
//! Run with `cargo run --release -p kfuse-examples --bin quickstart`.

use kfuse_core::{fuse_optimized, FusionConfig};
use kfuse_dsl::{c, sqrt, v, Mask, PipelineBuilder};
use kfuse_ir::{print::pipeline_to_string, BorderMode};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_paper::TimingModel;
use kfuse_sim::{execute, synthetic_image};

fn main() {
    // 1. Build a pipeline: blur → gradient magnitude → normalize.
    let mut b = PipelineBuilder::new("quickstart", 512, 512);
    let input = b.gray_input("in");
    let blur = b.convolve("blur", input, &Mask::gaussian3(), BorderMode::Clamp);
    let dx = b.convolve("dx", blur, &Mask::sobel_x(), BorderMode::Clamp);
    let dy = b.convolve("dy", blur, &Mask::sobel_y(), BorderMode::Clamp);
    let mag = b.point("mag", &[dx, dy], vec![sqrt(v(0) * v(0) + v(1) * v(1))]);
    let norm = b.point("norm", &[mag], vec![v(0) * c(0.125)]);
    b.output(norm);
    let pipeline = b.build();

    println!("=== unfused pipeline ===");
    print!("{}", pipeline_to_string(&pipeline));

    // 2. Fuse with the paper's Algorithm 1 (GTX 680 benefit model).
    let cfg = FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()));
    let result = fuse_optimized(&pipeline, &cfg);
    println!("\n=== after min-cut kernel fusion ===");
    print!("{}", pipeline_to_string(&result.pipeline));
    println!(
        "kernels: {} -> {}; estimated benefit (Eq. 1): {:.2e} cycles",
        pipeline.kernels().len(),
        result.pipeline.kernels().len(),
        result.plan.total_benefit
    );

    // 3. Execute both on the same synthetic image and compare bit-exactly.
    let img = synthetic_image(pipeline.image(input).clone(), 42);
    let reference = execute(&pipeline, &[(input, img.clone())]).unwrap();
    let fused = execute(&result.pipeline, &[(input, img)]).unwrap();
    let out = pipeline.outputs()[0];
    let identical = reference
        .expect_image(out)
        .bit_equal(fused.expect_image(out));
    println!("\nfused output bit-identical to reference: {identical}");
    assert!(identical);

    // 4. Model the speedup on the paper's three GPUs.
    println!("\nmodelled execution time (ms):");
    for gpu in GpuSpec::evaluation_gpus() {
        let model = TimingModel::new(gpu.clone());
        let base = model.time_pipeline(&pipeline).total_ms;
        let opt = model.time_pipeline(&result.pipeline).total_ms;
        println!(
            "  {:18} baseline {:7.3}  fused {:7.3}  speedup {:.2}x",
            gpu.name,
            base,
            opt,
            base / opt
        );
    }
}
