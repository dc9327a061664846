//! Serving-throughput benchmark for `kfuse-runtime`: sustained load over
//! all six paper applications, with the plan cache disabled ("cold" —
//! every request re-runs the fusion planner and tape lowering) versus
//! enabled ("warm" — planning is done once per pipeline and amortized
//! away). The warm/cold ratio is the serving-side analogue of the paper's
//! fusion benefit: work hoisted out of the steady state.
//!
//! Requests are serving-sized (1/32 of the paper's offline evaluation
//! edges, i.e. 64×64-class frames — thumbnail/preview/feature-window
//! scale): a pipeline-serving runtime handles many small latency-sensitive
//! frames, and that is exactly the regime where the per-request planning
//! cost matters — at 2,048² the planner's few hundred microseconds vanish
//! under tens of milliseconds of pixel work, at 64² they are 15–90% of
//! the request.
//!
//! Prints a req/s table plus per-tenant latency percentiles from the
//! runtime's own metrics, and writes machine-readable results to
//! `BENCH_serve.json` at the repository root.
//!
//! Run with `cargo run --release -p kfuse-bench --bin bench_serve`.
//! Set `KFUSE_BENCH_SCALE=<div>` to divide the request edge lengths
//! further (e.g. `KFUSE_BENCH_SCALE=4` for a CI smoke run).

use kfuse_apps::paper_apps;
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_runtime::{Admission, Runtime, RuntimeConfig};
use kfuse_sim::synthetic_image;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-request frame size: paper edges / 32 (serving frames, not offline
/// batch images), scaled down further by `KFUSE_BENCH_SCALE` if set.
fn workload(name: &str, scale: usize) -> (usize, usize) {
    let (w, h) = if name == "Night" {
        (1920 / 32, 1200 / 32)
    } else {
        (2048 / 32, 2048 / 32)
    };
    ((w / scale).max(8), (h / scale).max(8))
}

fn inputs_for(p: &Pipeline, seed: u64) -> Vec<(ImageId, Image)> {
    p.inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
        .collect()
}

/// Pushes `requests` submissions of one app through `rt` (all in flight at
/// once, drained by the worker pool) and returns the wall time in seconds.
fn run_load(
    rt: &Runtime,
    name: &str,
    p: &Pipeline,
    inputs: &[(ImageId, Image)],
    requests: usize,
) -> f64 {
    let start = Instant::now();
    let handles: Vec<_> = (0..requests)
        .map(|_| {
            rt.submit(name, p, inputs.to_vec(), Schedule::Optimized)
                .expect("submit")
        })
        .collect();
    for h in handles {
        h.wait().expect("request executes");
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let scale: usize = std::env::var("KFUSE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let requests = 128;
    let trials = 5;
    let cfg = |plan_cache_capacity: usize| RuntimeConfig {
        workers,
        queue_capacity: 128,
        admission: Admission::Block,
        plan_cache_capacity,
        ..RuntimeConfig::default()
    };
    // Cold: cache disabled, every request plans + lowers from scratch.
    // Warm: cache enabled and primed, requests only execute.
    let cold = Runtime::new(cfg(0));
    let warm = Runtime::new(cfg(32));

    println!(
        "{:<10} {:>9} {:>11} {:>11} {:>10}",
        "app", "size", "cold req/s", "warm req/s", "warm/cold"
    );
    let mut json_apps = String::new();
    let mut all_warm_above_cold = true;
    for app in paper_apps() {
        let (w, h) = workload(app.name, scale);
        let p = (app.build_sized)(w, h);
        let inputs = inputs_for(&p, 42);
        // Prime the warm cache (and page-cache both runtimes equally).
        warm.execute(app.name, &p, inputs.clone(), Schedule::Optimized)
            .expect("warm-up executes");
        cold.execute(app.name, &p, inputs.clone(), Schedule::Optimized)
            .expect("cold warm-up executes");
        // Best-of-`trials`, phases interleaved so drift hits both equally.
        let (mut cold_s, mut warm_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..trials {
            cold_s = cold_s.min(run_load(&cold, app.name, &p, &inputs, requests));
            warm_s = warm_s.min(run_load(&warm, app.name, &p, &inputs, requests));
        }
        let cold_rps = requests as f64 / cold_s;
        let warm_rps = requests as f64 / warm_s;
        let ratio = warm_rps / cold_rps;
        all_warm_above_cold &= warm_rps > cold_rps;
        println!(
            "{:<10} {:>9} {:>11.0} {:>11.0} {:>9.2}x",
            app.name,
            format!("{w}x{h}"),
            cold_rps,
            warm_rps,
            ratio
        );
        if !json_apps.is_empty() {
            json_apps.push(',');
        }
        write!(
            json_apps,
            "\n    {{\"name\": \"{}\", \"width\": {w}, \"height\": {h}, \
             \"cold_req_s\": {cold_rps:.3}, \"warm_req_s\": {warm_rps:.3}, \
             \"warm_over_cold\": {ratio:.3}}}",
            app.name
        )
        .unwrap();
    }
    println!(
        "\nwarm cache above cold on all apps: {}",
        if all_warm_above_cold { "yes" } else { "NO" }
    );

    // Latency percentiles come from the runtime's own observability layer —
    // the warm runtime has served (1 + trials × requests) jobs per app.
    let snapshot = warm.metrics();
    println!(
        "\n{:<10} {:>9} {:>9} {:>9} {:>7} {:>7}",
        "tenant", "p50 µs", "p95 µs", "p99 µs", "hits", "misses"
    );
    for m in &snapshot.pipelines {
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>7} {:>7}",
            m.name, m.p50_us, m.p95_us, m.p99_us, m.cache_hits, m.cache_misses
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"serving throughput (cold vs warm plan cache)\",\n  \
         \"scale_divisor\": {scale},\n  \"workers\": {workers},\n  \
         \"requests_per_app\": {requests},\n  \"trials\": {trials},\n  \
         \"warm_above_cold_on_all_apps\": {all_warm_above_cold},\n  \
         \"apps\": [{json_apps}\n  ],\n  \
         \"warm_runtime_metrics\": {}\n}}\n",
        kfuse_obs::render_json(&snapshot.families())
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, json).expect("write BENCH_serve.json");
    println!("\nwrote {path}");
}
