//! Std-only benches for the compile-time algorithms, backing the
//! complexity discussion of paper Section III-C:
//!
//! * Stoer–Wagner minimum cut, `O(|V|³)` in our dense implementation —
//!   negligible at fusion-graph sizes.
//! * Algorithm 1 end-to-end planning on the six applications and on long
//!   synthetic chains (the worst case cuts one vertex per iteration).
//! * Launch-cost analysis of fused pipelines.
//! * Functional-executor throughput (the evaluation substrate).
//!
//! Uses a `harness = false` bench target with `std::time::Instant` so the
//! workspace builds and benches with no external registry access. Run with
//! `cargo bench -p kfuse-bench`.

use kfuse_apps::paper_apps;
use kfuse_core::{fuse_optimized, FusionConfig};
use kfuse_dsl::{c, v, Mask, PipelineBuilder};
use kfuse_graph::MinCutGraph;
use kfuse_ir::{BorderMode, Pipeline};
use kfuse_model::{BenefitModel, BlockShape, GpuSpec};
use kfuse_paper::analyze_pipeline;
use kfuse_sim::{execute, synthetic_image};
use std::hint::black_box;
use std::time::Instant;

fn cfg() -> FusionConfig {
    FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()))
}

/// Times `f` over `iters` iterations and prints mean per-iteration time.
fn bench(name: &str, iters: usize, mut f: impl FnMut()) {
    // One warm-up iteration outside the timed region.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let per = total / iters as u32;
    println!("{name:<44} {per:>12.2?}/iter over {iters} iters");
}

/// Deterministic pseudo-random dense graph.
fn random_graph(n: usize, seed: u64) -> MinCutGraph {
    let mut g = MinCutGraph::new(n);
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for u in 0..n {
        for v in (u + 1)..n {
            if next() < 0.4 {
                g.add_edge(u, v, 1.0 + next() * 100.0);
            }
        }
    }
    g
}

fn bench_stoer_wagner() {
    for n in [8usize, 16, 32, 64] {
        let g = random_graph(n, 42);
        bench(&format!("stoer_wagner/{n}"), 20, || {
            black_box(g.stoer_wagner(0).expect("bench weights are valid"));
        });
    }
}

/// A chain of alternating point/local kernels of length `n`.
fn chain_pipeline(n: usize) -> Pipeline {
    let mut b = PipelineBuilder::new("chain", 256, 256);
    let mut prev = b.gray_input("in");
    for i in 0..n {
        prev = if i % 3 == 0 {
            b.convolve(format!("g{i}"), prev, &Mask::gaussian3(), BorderMode::Clamp)
        } else {
            b.point(format!("p{i}"), &[prev], vec![v(0) * c(1.5) + c(1.0)])
        };
    }
    b.output(prev);
    b.build()
}

fn bench_planner() {
    for app in paper_apps() {
        let p = (app.build_sized)(256, 256);
        bench(&format!("plan_optimized/app/{}", app.name), 10, || {
            black_box(fuse_optimized(&p, &cfg()));
        });
    }
    for n in [8usize, 16, 32] {
        let p = chain_pipeline(n);
        bench(&format!("plan_optimized/chain/{n}"), 10, || {
            black_box(fuse_optimized(&p, &cfg()));
        });
    }
}

fn bench_cost_analysis() {
    let harris = paper_apps()[0];
    let p = (harris.build_sized)(2048, 2048);
    let fused = fuse_optimized(&p, &cfg()).pipeline;
    bench("analyze_pipeline/harris_fused", 20, || {
        black_box(analyze_pipeline(&fused, BlockShape::DEFAULT));
    });
}

fn bench_executor() {
    for app in paper_apps().into_iter().take(3) {
        let p = (app.build_sized)(128, 128);
        let img = synthetic_image(p.image(p.inputs()[0]).clone(), 1);
        let input = p.inputs()[0];
        bench(&format!("executor/baseline/{}", app.name), 5, || {
            black_box(execute(&p, &[(input, img.clone())]).unwrap());
        });
        let fused = fuse_optimized(&p, &cfg()).pipeline;
        bench(&format!("executor/fused/{}", app.name), 5, || {
            black_box(execute(&fused, &[(input, img.clone())]).unwrap());
        });
    }
}

fn main() {
    bench_stoer_wagner();
    bench_planner();
    bench_cost_analysis();
    bench_executor();
}
