//! Source-to-source compilation end to end: build an application, run the
//! min-cut fusion pass, and emit the complete CUDA translation unit —
//! exactly what the Hipacc artifact's `make cuda` step produces.
//!
//! Writes `target/generated/<app>_<schedule>.cu` for the chosen app
//! (default: Sobel) and prints the fused kernel.
//!
//! Run with `cargo run --release -p kfuse-examples --bin emit_cuda [app]`.

use kfuse_apps::paper_apps;
use kfuse_core::FusionConfig;
use kfuse_dsl::{compile, Schedule};
use kfuse_model::{BenefitModel, BlockShape, GpuSpec};
use kfuse_paper::emit_module;
use std::fs;
use std::path::PathBuf;

fn main() {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "Sobel".into());
    let app = paper_apps()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(&wanted))
        .unwrap_or_else(|| {
            eprintln!(
                "unknown app {wanted}; options: Harris Sobel Unsharp ShiTomasi Enhance Night"
            );
            std::process::exit(1);
        });

    let pipeline = (app.build_paper)();
    let cfg = FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()));
    let dir = PathBuf::from("target/generated");
    fs::create_dir_all(&dir).expect("create output directory");

    for schedule in Schedule::ALL {
        let compiled = compile(&pipeline, schedule, &cfg);
        let src = emit_module(&compiled, BlockShape::DEFAULT, 500);
        let file = dir.join(format!(
            "{}_{}.cu",
            app.name.to_lowercase(),
            schedule.label().to_lowercase().replace(' ', "_")
        ));
        fs::write(&file, &src).expect("write generated source");
        println!(
            "{:18} {} kernels, {} lines -> {}",
            schedule.label(),
            compiled.kernels().len(),
            src.lines().count(),
            file.display()
        );
    }

    // Show the optimized version's source.
    let fused = compile(&pipeline, Schedule::Optimized, &cfg);
    println!("\n===== optimized CUDA source ({}) =====\n", app.name);
    let src = emit_module(&fused, BlockShape::DEFAULT, 500);
    // Print the kernels only (skip prelude and host code) to keep the
    // terminal readable.
    for section in src.split("\n\n") {
        if section.contains("__global__") || section.contains("__device__") {
            println!("{section}\n");
        }
    }
}
