//! Profiling harness: loops the fast executor on one paper app so `perf`
//! (or any sampling profiler) sees a long, steady workload.
//!
//! It runs on **one thread** (`FastConfig { threads: Some(1), .. }`), as
//! `bench_exec`'s size sweep and the `exec_large` benchmark workload do,
//! so a profile describes the program the numbers in EXPERIMENTS.md time.
//!
//! Configured entirely through environment variables:
//!
//! * `PROF_APP` — app name, default `Harris`;
//! * `PROF_SCHED` — `optimized` (default) fuses under the GTX 680 model,
//!   anything else runs the unfused baseline;
//! * `PROF_ITERS` — loop count, default 10;
//! * `PROF_SCALE` — divide the paper's workload dimensions, default 1;
//! * `PROF_SEP` — set to enable separable mask factorization in the
//!   fusion config;
//! * `PROF_SCRATCH` — set to reuse one compiled plan + scratch buffer
//!   across iterations (isolates steady-state execution from per-run
//!   compile and allocation).
//!
//! Example: `PROF_APP=Sobel PROF_ITERS=50 \
//! cargo run --release -p kfuse-bench --bin prof_fast`.

use kfuse_apps::paper_apps;
use kfuse_core::FusionConfig;
use kfuse_dsl::{compile, Schedule};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_obs::Tracer;
use kfuse_sim::{execute_fast_with, synthetic_image, FastConfig};

fn main() {
    let name = std::env::var("PROF_APP").unwrap_or_else(|_| "Harris".into());
    let sched = std::env::var("PROF_SCHED").unwrap_or_else(|_| "optimized".into());
    let iters: usize = std::env::var("PROF_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let mut fusion_cfg = FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()));
    if std::env::var("PROF_SEP").is_ok() {
        fusion_cfg = fusion_cfg.with_separable();
    }
    let app = paper_apps().into_iter().find(|a| a.name == name).unwrap();
    let scale: usize = std::env::var("PROF_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let (w, h) = if name == "Night" {
        (1920 / scale, 1200 / scale)
    } else {
        (2048 / scale, 2048 / scale)
    };
    let p = (app.build_sized)(w, h);
    let p = if sched == "optimized" {
        compile(&p, Schedule::Optimized, &fusion_cfg)
    } else {
        p
    };
    let inputs: Vec<_> = p
        .inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), 42)))
        .collect();
    let cfg = FastConfig {
        threads: Some(1),
        ..FastConfig::default()
    };
    let scratch = std::env::var("PROF_SCRATCH").is_ok();
    let plan = kfuse_sim::CompiledPlan::compile(&p).unwrap();
    let mut sc = kfuse_sim::Scratch::default();
    let t = std::time::Instant::now();
    for _ in 0..iters {
        if scratch {
            let exec = plan.run(inputs.clone(), &cfg, &mut sc, &Tracer::disabled());
            std::hint::black_box(exec.unwrap());
        } else {
            std::hint::black_box(execute_fast_with(&p, &inputs, &cfg).unwrap());
        }
    }
    let dt = t.elapsed().as_secs_f64();
    println!(
        "{name} {sched}: {:.1} ms/iter, {:.2} Mpix/s",
        dt / iters as f64 * 1e3,
        (w * h * iters) as f64 / dt / 1e6
    );
}
