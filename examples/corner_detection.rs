//! Corner detection: run the paper's Harris pipeline on a synthetic
//! checkerboard, extract the strongest corner responses, and show that all
//! three fusion schedules (baseline / basic / optimized) agree bit-exactly
//! while the optimized schedule reduces kernel launches from 9 to 6.
//!
//! Run with `cargo run --release -p kfuse-examples --bin corner_detection`.

use kfuse_apps::harris;
use kfuse_core::FusionConfig;
use kfuse_dsl::{compile, Schedule};
use kfuse_ir::{Image, ImageDesc};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_paper::TimingModel;
use kfuse_sim::execute;

/// A checkerboard image: strong corner responses at the cell junctions.
fn checkerboard(size: usize, cell: usize) -> Image {
    let mut img = Image::zeros(ImageDesc::new("in", size, size, 1));
    for y in 0..size {
        for x in 0..size {
            let v = if (x / cell + y / cell) % 2 == 0 {
                255.0
            } else {
                0.0
            };
            img.set(x, y, 0, v);
        }
    }
    img
}

fn main() {
    let size = 128;
    let pipeline = harris::harris(size, size, harris::DEFAULT_K);
    let input = pipeline.inputs()[0];
    let out = pipeline.outputs()[0];
    let img = checkerboard(size, 16);
    let cfg = FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()));

    let mut responses: Vec<(Schedule, Image, usize)> = Vec::new();
    for schedule in Schedule::ALL {
        let compiled = compile(&pipeline, schedule, &cfg);
        let exec = execute(&compiled, &[(input, img.clone())]).unwrap();
        responses.push((
            schedule,
            exec.expect_image(out).clone(),
            compiled.kernels().len(),
        ));
    }

    println!("Harris corner detection on a {size}x{size} checkerboard\n");
    for (schedule, _, kernels) in &responses {
        println!("  {:18} {} kernel launches", schedule.label(), kernels);
    }

    let baseline = &responses[0].1;
    for (schedule, image, _) in &responses[1..] {
        assert!(
            baseline.bit_equal(image),
            "{} output differs from baseline",
            schedule.label()
        );
    }
    println!("\nall three schedules produce bit-identical corner responses");

    // Extract the strongest responses (non-maximum suppression by 8-px
    // cells is enough for a demo).
    let mut peaks: Vec<(usize, usize, f32)> = Vec::new();
    let step = 8;
    for by in (0..size).step_by(step) {
        for bx in (0..size).step_by(step) {
            let mut best = (bx, by, f32::MIN);
            for y in by..(by + step).min(size) {
                for x in bx..(bx + step).min(size) {
                    let v = baseline.get(x, y, 0);
                    if v > best.2 {
                        best = (x, y, v);
                    }
                }
            }
            peaks.push(best);
        }
    }
    peaks.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    println!("\nstrongest corner responses:");
    for (x, y, v) in peaks.iter().take(8) {
        println!("  ({x:3}, {y:3})  response {v:12.1}");
    }
    // Checkerboard corners sit at cell junctions (multiples of 16).
    let (x, y, _) = peaks[0];
    assert!(
        (x as i64 % 16 <= 2 || x as i64 % 16 >= 14) && (y as i64 % 16 <= 2 || y as i64 % 16 >= 14),
        "strongest response should sit at a cell junction, got ({x}, {y})"
    );

    println!("\nmodelled pipeline time on the paper's GPUs (2048x2048):");
    let paper = harris::harris_paper();
    for gpu in GpuSpec::evaluation_gpus() {
        let model = TimingModel::new(gpu.clone());
        let cfg = FusionConfig::new(BenefitModel::new(gpu.clone()));
        let base = model.time_pipeline(&paper).total_ms;
        let opt = model
            .time_pipeline(&compile(&paper, Schedule::Optimized, &cfg))
            .total_ms;
        println!(
            "  {:18} baseline {:6.3} ms  optimized {:6.3} ms  speedup {:.2}x",
            gpu.name,
            base,
            opt,
            base / opt
        );
    }
}
