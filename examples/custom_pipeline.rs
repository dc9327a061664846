//! Authoring a custom pipeline against the public API: an
//! emboss → sharpen → threshold effect chain, scheduled three ways, with
//! the planner's decision trace printed — the workflow a Hipacc user goes
//! through when adopting kernel fusion.
//!
//! Run with `cargo run --release -p kfuse-examples --bin custom_pipeline`.

use kfuse_core::{plan_optimized, FusionConfig, TraceEvent};
use kfuse_dsl::{c, clamp, compile, select, v, Mask, PipelineBuilder, Schedule};
use kfuse_ir::BorderMode;
use kfuse_model::{BenefitModel, FusionScenario, GpuSpec};
use kfuse_paper::TimingModel;
use kfuse_sim::{execute, synthetic_image};

fn main() {
    // Emboss mask: directional derivative plus identity.
    let emboss = Mask::new(vec![
        vec![-2.0, -1.0, 0.0],
        vec![-1.0, 1.0, 1.0],
        vec![0.0, 1.0, 2.0],
    ]);

    let mut b = PipelineBuilder::new("effects", 1024, 1024);
    let input = b.gray_input("photo");
    let embossed = b.convolve("emboss", input, &emboss, BorderMode::Mirror);
    let lifted = b.point(
        "lift",
        &[embossed],
        vec![clamp(v(0) + c(128.0), 0.0, 255.0)],
    );
    let sharpened = b.convolve("sharpen", lifted, &Mask::laplacian(), BorderMode::Mirror);
    let combined = b.point("combine", &[lifted, sharpened], vec![v(0) - c(0.5) * v(1)]);
    let thresholded = b.point(
        "threshold",
        &[combined],
        vec![select(v(0) - c(96.0), c(255.0), c(0.0))],
    );
    b.output(thresholded);
    let pipeline = b.build();

    let gpu = GpuSpec::gtx680();
    let cfg = FusionConfig::new(BenefitModel::new(gpu.clone()));

    // Inspect the planner's reasoning.
    let plan = plan_optimized(&pipeline, &cfg);
    println!("planner decisions for the effects pipeline:\n");
    for e in &plan.trace.events {
        match e {
            TraceEvent::EdgeWeight {
                src,
                dst,
                scenario,
                weight,
            } => {
                let tag = match scenario {
                    FusionScenario::Illegal => "illegal",
                    FusionScenario::PointBased => "point-based",
                    FusionScenario::PointToLocal => "point-to-local",
                    FusionScenario::LocalToLocal => "local-to-local",
                };
                println!("  edge {src} -> {dst}: {tag}, w = {weight:.3e}");
            }
            TraceEvent::Examine {
                members, verdict, ..
            } => match verdict {
                None => println!("  block {{{}}} is legal", members.join(", ")),
                Some(why) => println!("  block {{{}}} illegal: {why}", members.join(", ")),
            },
            TraceEvent::Cut {
                weight,
                side_a,
                side_b,
                ..
            } => println!(
                "  cut (w = {weight:.3e}): {{{}}} | {{{}}}",
                side_a.join(", "),
                side_b.join(", ")
            ),
            _ => {}
        }
    }

    // Compare the three schedules.
    let img = synthetic_image(pipeline.image(input).clone(), 2024);
    let reference = execute(&pipeline, &[(input, img.clone())]).unwrap();
    let model = TimingModel::new(gpu);
    println!("\nschedule comparison:");
    for schedule in Schedule::ALL {
        let compiled = compile(&pipeline, schedule, &cfg);
        let t = model.time_pipeline(&compiled).total_ms;
        let exec = execute(&compiled, &[(input, img.clone())]).unwrap();
        let same = reference
            .expect_image(pipeline.outputs()[0])
            .bit_equal(exec.expect_image(pipeline.outputs()[0]));
        println!(
            "  {:18} {} kernels, {:6.3} ms modelled, bit-exact: {}",
            schedule.label(),
            compiled.kernels().len(),
            t,
            same
        );
        assert!(same);
    }
}
