//! The paper's tables, figures and ablations, one function each.
//!
//! Each function returns exactly the text its binary (`src/bin/<name>.rs`)
//! prints on stdout, and `results/<name>.txt` is that text as committed.
//! The golden test below compares all ten byte for byte, so a change to
//! the planner, the benefit model, the GPU presets or the timing model
//! that moves a paper output fails `cargo test`. A change that means to
//! move one regenerates the file in the same commit and says why.

use crate::eval::{
    app_names, eval_config, evaluate_all, find, geomean_rows, short_gpu_name, speedup_table, RUNS,
};
use crate::greedy::fuse_greedy;
use crate::micro::MicroSim;
use crate::timing::TimingModel;
use kfuse_apps::{harris, paper_apps};
use kfuse_core::{
    check_block, fuse_basic, fuse_optimized, plan_optimized, synthesize, FusionConfig, TraceEvent,
};
use kfuse_dsl::{compile, Mask, PipelineBuilder, Schedule};
use kfuse_ir::{BorderMode, Expr, Image, KernelId, Pipeline};
use kfuse_model::{BenefitModel, GpuSpec, IsMode, L2LRecompute};
use kfuse_sim::execute;
use std::fmt::Write as _;

/// The three version pairs of Table I, as (title, slower, faster).
const PAIRS: [(&str, Schedule, Schedule); 3] = [
    (
        "Optimized Fusion over Baseline",
        Schedule::Baseline,
        Schedule::Optimized,
    ),
    (
        "Basic Fusion over Baseline",
        Schedule::Baseline,
        Schedule::Basic,
    ),
    (
        "Optimized Fusion over Basic Fusion",
        Schedule::Basic,
        Schedule::Optimized,
    ),
];

/// **Table I**: speedup comparison for the three version pairs
/// (optimized/baseline, basic/baseline, optimized/basic) on every GPU.
pub fn table1() -> String {
    let cells = evaluate_all(RUNS);
    let mut out = format!("TABLE I: SPEEDUP COMPARISON (median of {RUNS} simulated runs)\n");
    for (title, slow, fast) in PAIRS {
        let _ = writeln!(out, "\n{title}");
        let _ = write!(out, "{:10}", "");
        for app in app_names() {
            let _ = write!(out, "{app:>10}");
        }
        out.push('\n');
        for (gpu, row) in speedup_table(&cells, slow, fast) {
            let _ = write!(out, "{:10}", short_gpu_name(&gpu));
            for v in row {
                let _ = write!(out, "{v:>10.3}");
            }
            out.push('\n');
        }
    }
    out
}

/// **Table II**: geometric mean of speedups across all GPUs.
pub fn table2() -> String {
    let cells = evaluate_all(RUNS);
    let mut out = String::from("TABLE II: GEOMETRIC MEAN OF SPEEDUPS ACROSS ALL GPUS\n");
    let _ = write!(out, "{:16}", "");
    for app in app_names() {
        let _ = write!(out, "{app:>10}");
    }
    out.push('\n');
    for (label, slow, fast) in [
        ("Optm over Base", Schedule::Baseline, Schedule::Optimized),
        ("Basic over Base", Schedule::Baseline, Schedule::Basic),
        ("Optm over Basic", Schedule::Basic, Schedule::Optimized),
    ] {
        let _ = write!(out, "{label:16}");
        for v in geomean_rows(&cells, slow, fast) {
            let _ = write!(out, "{v:>10.3}");
        }
        out.push('\n');
    }
    out
}

/// **Figure 3**: the kernel-fusion algorithm applied to the Harris corner
/// detector — edge weights, the recursive min-cut sequence, and the final
/// partition `{dx} {dy} {sx,gx} {sxy,gxy} {sy,gy} {hc}`.
pub fn figure3() -> String {
    // The paper's walkthrough presents weights with IS replaced by the
    // number of images ("IS is not important here due to the constant-size
    // image") and c_Mshared limited to 2; decisions are scale-invariant.
    let mut model = BenefitModel::new(GpuSpec::gtx680());
    model.is_mode = IsMode::ImageCount;
    model.epsilon = 1e-3;
    let mut cfg = FusionConfig::new(model);
    cfg.shared_threshold = 2.0;

    let p = harris::harris(2048, 2048, harris::DEFAULT_K);
    let plan = plan_optimized(&p, &cfg);

    let mut out = String::from("FIGURE 3: kernel fusion algorithm on the Harris corner detector\n");
    out.push_str("\nStep 1 — edge weight assignment (IS = #images, t_g = 400, c_ALU = 4):\n");
    for e in &plan.trace.events {
        if let TraceEvent::EdgeWeight {
            src,
            dst,
            scenario,
            weight,
        } = e
        {
            let _ = writeln!(out, "  ({src:>3}, {dst:>3})  {scenario:?}: w = {weight}");
        }
    }
    out.push_str(
        "\n  (paper values 328/256 assume n_ALU = 2 for the squaring kernels;\n   \
         our sx/sy bodies count 1 multiply, sxy counts 1, hence 364/328/364.)\n",
    );

    out.push_str("\nStep 2 — recursive min-cut partitioning:\n");
    for e in &plan.trace.events {
        match e {
            TraceEvent::Examine {
                members, verdict, ..
            } => match verdict {
                None => {
                    let _ = writeln!(out, "  examine {{{}}} -> legal", members.join(", "));
                }
                Some(v) => {
                    let _ = writeln!(out, "  examine {{{}}} -> illegal: {v}", members.join(", "));
                }
            },
            TraceEvent::Cut {
                weight,
                side_a,
                side_b,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "    min-cut w = {weight}: {{{}}} | {{{}}}",
                    side_a.join(", "),
                    side_b.join(", ")
                );
            }
            TraceEvent::Ready { members, .. } => {
                let _ = writeln!(out, "    ready: {{{}}}", members.join(", "));
            }
            _ => {}
        }
    }

    out.push_str("\nFinal partition (Figure 3f):\n");
    for block in plan.partition.canonicalized().blocks() {
        let names: Vec<String> = block
            .members()
            .iter()
            .map(|n| p.kernel(KernelId(n.0)).name.clone())
            .collect();
        let _ = writeln!(out, "  {{{}}}", names.join(", "));
    }
    let _ = writeln!(out, "\nObjective beta (Eq. 1): {}", plan.total_benefit);
    out
}

/// The paper's 5×5 worked example input of Figure 4.
const FIGURE4_INPUT: [[f32; 5]; 5] = [
    [1.0, 3.0, 7.0, 7.0, 6.0],
    [3.0, 7.0, 9.0, 6.0, 8.0],
    [5.0, 4.0, 3.0, 2.0, 1.0],
    [4.0, 1.0, 2.0, 1.0, 2.0],
    [5.0, 2.0, 2.0, 4.0, 2.0],
];

fn write_image(out: &mut String, title: &str, img: &Image) {
    let _ = writeln!(out, "{title}");
    for y in 0..img.height() {
        out.push(' ');
        for x in 0..img.width() {
            let _ = write!(out, " {:4}", img.get(x, y, 0));
        }
        out.push('\n');
    }
}

/// **Figure 4**: local-to-local fusion of two 3×3 binomial convolutions
/// on the paper's 5×5 worked example, showing
///
/// * (a) interior body fusion — centre output 992,
/// * (b) incorrect border fusion (no index exchange) — top-left output 684
///   (the paper's figure prints 648; its window values
///   `[16 24 56; 24 34 68; 48 57 82]` convolve to 684 — see
///   EXPERIMENTS.md),
/// * (c) correct border fusion via index exchange — top-left output 763,
///   bit-identical to the unfused clamp+conv+clamp+conv reference.
pub fn figure4() -> String {
    let rows: Vec<&[f32]> = FIGURE4_INPUT.iter().map(|r| &r[..]).collect();
    let input_img = Image::from_rows("in", &rows);

    let mut b = PipelineBuilder::new("figure4", 5, 5);
    let input = b.gray_input("in");
    let mid = b.convolve("conv1", input, &Mask::gaussian3_raw(), BorderMode::Clamp);
    let out_id = b.convolve("conv2", mid, &Mask::gaussian3_raw(), BorderMode::Clamp);
    b.output(out_id);
    let p = b.build();

    let mut out = String::from("FIGURE 4: local-to-local fusion with border handling\n");
    write_image(
        &mut out,
        "\nInput (5x5), mask = [1 2 1; 2 4 2; 1 2 1], clamp borders:",
        &input_img,
    );

    let reference = execute(&p, &[(input, input_img.clone())]).unwrap();
    let mid_img = reference.expect_image(mid);
    let out_img = reference.expect_image(out_id);
    write_image(&mut out, "\nIntermediate image (clamp conv):", mid_img);
    write_image(
        &mut out,
        "\nUnfused reference output (clamp+conv+clamp+conv):",
        out_img,
    );
    let _ = writeln!(
        out,
        "\n(a) interior value at (2,2): {}   [paper: 992]",
        out_img.get(2, 2, 0)
    );

    // (b) naive fusion: textual inlining without index exchange.
    let producer = p.kernel(KernelId(0)).root_stage().body[0].clone();
    let consumer = p.kernel(KernelId(1)).root_stage().body[0].clone();
    let naive_body = consumer.map_loads(&|_, dx, dy, _| {
        producer.map_loads(&|slot, pdx, pdy, ch| Expr::Load {
            slot,
            dx: pdx + dx,
            dy: pdy + dy,
            ch,
        })
    });
    let naive = kfuse_ir::Kernel::simple(
        "naive",
        vec![input],
        out_id,
        vec![BorderMode::Clamp],
        vec![naive_body],
        vec![],
    );
    let naive_exec = execute(&p.with_kernels(vec![naive]), &[(input, input_img.clone())]).unwrap();
    let naive_img = naive_exec.expect_image(out_id);
    write_image(
        &mut out,
        "\n(b) naive fused output (no index exchange) — WRONG border:",
        naive_img,
    );
    let _ = writeln!(
        out,
        "    top-left: {}   [expected from the paper's window values: 684;\n     \
         the figure prints 648, an arithmetic slip]",
        naive_img.get(0, 0, 0)
    );

    // (c) correct fusion with index exchange.
    let info = check_block(&p, &[KernelId(0), KernelId(1)]).unwrap();
    let fused = p.with_kernels(vec![synthesize(&p, &info, true)]);
    let fused_exec = execute(&fused, &[(input, input_img)]).unwrap();
    let fused_img = fused_exec.expect_image(out_id);
    write_image(
        &mut out,
        "\n(c) fused output with index exchange — CORRECT:",
        fused_img,
    );
    let _ = writeln!(
        out,
        "    top-left: {}   [paper: 763]",
        fused_img.get(0, 0, 0)
    );
    let _ = writeln!(
        out,
        "    bit-identical to unfused reference: {}",
        fused_img.bit_equal(out_img)
    );
    out
}

/// **Figure 6**: execution times in milliseconds for six applications ×
/// three GPUs × three versions, as box-plot statistics (min / 25th
/// percentile / median / 75th percentile / max) over 500 simulated
/// measurement runs.
pub fn figure6() -> String {
    let cells = evaluate_all(RUNS);
    let mut out = format!("FIGURE 6: EXECUTION TIMES IN MS ({RUNS} runs; box-plot statistics)\n");
    for gpu in GpuSpec::evaluation_gpus() {
        let _ = writeln!(out, "\n=== {} ===", short_gpu_name(&gpu.name));
        let _ = writeln!(
            out,
            "{:10} {:18} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "app", "version", "kernels", "min", "p25", "median", "p75", "max"
        );
        for app in app_names() {
            for schedule in Schedule::ALL {
                let c = find(&cells, app, &gpu.name, schedule);
                let _ = writeln!(
                    out,
                    "{:10} {:18} {:>8} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                    app,
                    schedule.label(),
                    c.kernel_count,
                    c.stats.min,
                    c.stats.p25,
                    c.stats.median,
                    c.stats.p75,
                    c.stats.max
                );
            }
        }
    }
    out
}

/// Ablation: sensitivity of the partition to the `ε` clamp (Eq. 12).
///
/// `ε` keeps all edge weights positive so the Stoer–Wagner cut is well
/// defined; the resulting partitions should be invariant over many orders
/// of magnitude. Panics if one is not.
pub fn ablation_epsilon() -> String {
    let gpu = GpuSpec::gtx680();
    let mut out = String::from("ABLATION: epsilon sensitivity (GTX 680)\n");
    out.push_str("value = number of partition blocks (stable partitions expected)\n\n");
    let _ = write!(out, "{:>10}", "epsilon");
    for app in paper_apps() {
        let _ = write!(out, "{:>11}", app.name);
    }
    out.push('\n');
    let mut reference: Vec<Vec<Vec<usize>>> = Vec::new();
    for (row, eps) in [1e-9, 1e-6, 1e-3, 1.0, 100.0].into_iter().enumerate() {
        let _ = write!(out, "{eps:>10.0e}");
        for (col, app) in paper_apps().into_iter().enumerate() {
            let p = (app.build_paper)();
            let mut cfg = eval_config(&gpu);
            cfg.model.epsilon = eps;
            let plan = plan_optimized(&p, &cfg);
            let blocks: Vec<Vec<usize>> = plan
                .partition
                .canonicalized()
                .blocks()
                .iter()
                .map(|b| b.members().iter().map(|n| n.0).collect())
                .collect();
            let _ = write!(out, "{:>11}", blocks.len());
            if row == 0 {
                reference.push(blocks);
            } else {
                assert_eq!(
                    reference[col], blocks,
                    "{}: partition changed at eps={eps}",
                    app.name
                );
            }
        }
        out.push('\n');
    }
    out.push_str("\nall partitions identical across epsilon values: OK\n");
    out
}

/// Ablation: min-cut partitioning (Algorithm 1) vs. greedy
/// heaviest-edge-first grouping (PolyMage/Halide style) vs. the pairwise
/// basic fusion of \[12\], on the six applications.
pub fn ablation_greedy() -> String {
    let gpu = GpuSpec::gtx680();
    let mut out = String::from("ABLATION: partitioning strategy comparison (GTX 680)\n");
    out.push_str("value = kernels / objective beta (Gcycles) / speedup over baseline\n\n");
    let _ = writeln!(
        out,
        "{:10} {:>24} {:>24} {:>24}",
        "app", "min-cut (Alg. 1)", "greedy grouping", "pairwise basic [12]"
    );
    for app in paper_apps() {
        let p = (app.build_paper)();
        let cfg = eval_config(&gpu);
        let model = TimingModel::new(gpu.clone());
        let base = model.time_pipeline(&p).total_ms;
        let _ = write!(out, "{:10}", app.name);
        for result in [
            fuse_optimized(&p, &cfg),
            fuse_greedy(&p, &cfg),
            fuse_basic(&p, &cfg),
        ] {
            let t = model.time_pipeline(&result.pipeline).total_ms;
            let _ = write!(
                out,
                "{:>24}",
                format!(
                    "{}k/{:.2}/{:.2}x",
                    result.pipeline.kernels().len(),
                    result.plan.total_benefit / 1e9,
                    base / t
                )
            );
        }
        out.push('\n');
    }
    out
}

/// Ablation: analytic roofline model vs. warp-level micro-simulation.
///
/// The Table I/II harness uses the closed-form analytic model; this
/// re-times every (app, schedule) cell with the cycle-level warp simulator
/// of [`crate::micro`] and compares the *speedups* both models predict.
/// Agreement on the ratios (even where absolute times differ) is evidence
/// that the reported shapes are not artifacts of the analytic
/// simplifications.
pub fn ablation_microsim() -> String {
    let gpu = GpuSpec::gtx680();
    let mut out =
        String::from("ABLATION: analytic model vs. warp-level micro-simulation (GTX 680)\n");
    out.push_str("value = optimized-over-baseline speedup\n\n");
    let _ = writeln!(
        out,
        "{:10} {:>16} {:>16} {:>22}",
        "app", "analytic", "micro-sim", "baseline ms (a / m)"
    );
    for app in paper_apps() {
        let p = (app.build_paper)();
        let cfg = eval_config(&gpu);
        let fused = compile(&p, Schedule::Optimized, &cfg);
        let analytic = TimingModel::new(gpu.clone());
        let micro = MicroSim::new(gpu.clone());
        let a_base = analytic.time_pipeline(&p).total_ms;
        let a_opt = analytic.time_pipeline(&fused).total_ms;
        let m_base = micro.time_pipeline(&p);
        let m_opt = micro.time_pipeline(&fused);
        let _ = writeln!(
            out,
            "{:10} {:>15.2}x {:>15.2}x {:>22}",
            app.name,
            a_base / a_opt,
            m_base / m_opt,
            format!("{a_base:.2} / {m_base:.2}")
        );
    }
    out
}

/// A pairwise-legal local-to-local chain: box → Gaussian.
fn box_gauss_chain() -> Pipeline {
    let mut b = PipelineBuilder::new("BoxGauss", 2048, 2048);
    let input = b.gray_input("in");
    let mid = b.convolve("box3", input, &Mask::box3(), BorderMode::Clamp);
    let out = b.convolve("gauss3", mid, &Mask::gaussian3(), BorderMode::Clamp);
    b.output(out);
    b.build()
}

/// Ablation: the local-to-local recompute model — Eq. 10 verbatim (full
/// fused-window multiplier `g`) vs. the tile-amortized shared-memory
/// codegen cost (DESIGN.md §3.3).
///
/// Under Eq. 10 verbatim a pairwise-legal local-to-local edge is estimated
/// unprofitable for any realistic producer; the tile-amortized default
/// reproduces the paper's decisions. Sobel's local-to-local edges are
/// fan-outs (pairwise-illegal), so the gate never applies to them — the
/// synthetic box→Gaussian chain is where the two models diverge.
pub fn ablation_recompute() -> String {
    let gpu = GpuSpec::gtx680();
    let mut out = String::from("ABLATION: local-to-local recompute model (GTX 680)\n");
    out.push_str("value = kernels after optimized fusion / speedup over baseline\n");
    out.push_str("(the six apps gate local-to-local via fan-out legality, so only\n");
    out.push_str("the synthetic pairwise-legal chain separates the two models)\n\n");
    let _ = writeln!(
        out,
        "{:10} {:>22} {:>22}",
        "app", "tile-amortized", "Eq. 10 verbatim"
    );
    let mut all: Vec<(String, Pipeline)> = paper_apps()
        .into_iter()
        .map(|app| (app.name.to_string(), (app.build_paper)()))
        .collect();
    all.push(("BoxGauss".into(), box_gauss_chain()));
    for (name, p) in all {
        let model = TimingModel::new(gpu.clone());
        let base = model.time_pipeline(&p).total_ms;
        let _ = write!(out, "{name:10}");
        for mode in [L2LRecompute::TileAmortized, L2LRecompute::Eq10Window] {
            let mut cfg = eval_config(&gpu);
            cfg.model.l2l_recompute = mode;
            let fused = fuse_optimized(&p, &cfg);
            let t = model.time_pipeline(&fused.pipeline).total_ms;
            let _ = write!(
                out,
                "{:>22}",
                format!("{}k/{:.2}x", fused.pipeline.kernels().len(), base / t)
            );
        }
        out.push('\n');
    }
    out
}

/// Ablation: sweep of the Eq. (2) shared-memory threshold `c_Mshared`.
///
/// The threshold trades locality against occupancy: a tight threshold
/// precludes local-to-local fusion (Sobel collapses back to the baseline),
/// a loose one admits ever larger blocks until the whole Harris graph
/// would fuse.
pub fn ablation_threshold() -> String {
    let gpu = GpuSpec::gtx680();
    let thresholds = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 16.0];
    let mut out = String::from("ABLATION: Eq. (2) threshold sweep (GTX 680, optimized fusion)\n");
    out.push_str("value = kernels after fusion / speedup over baseline\n\n");
    let _ = write!(out, "{:>10}", "c_Mshared");
    for app in paper_apps() {
        let _ = write!(out, "{:>14}", app.name);
    }
    out.push('\n');
    for t in thresholds {
        let _ = write!(out, "{t:>10}");
        for app in paper_apps() {
            let p = (app.build_paper)();
            let mut cfg = eval_config(&gpu);
            cfg.shared_threshold = t;
            let fused = fuse_optimized(&p, &cfg);
            let model = TimingModel::new(gpu.clone());
            let base = model.time_pipeline(&p).total_ms;
            let opt = model.time_pipeline(&fused.pipeline).total_ms;
            let _ = write!(
                out,
                "{:>14}",
                format!("{}k/{:.2}x", fused.pipeline.kernels().len(), base / opt)
            );
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every paper output, byte for byte against its committed file.
    #[test]
    fn outputs_match_committed_results() {
        type Render = fn() -> String;
        let golden: [(&str, Render, &str); 10] = [
            (
                "table1",
                table1,
                include_str!("../../../results/table1.txt"),
            ),
            (
                "table2",
                table2,
                include_str!("../../../results/table2.txt"),
            ),
            (
                "figure3",
                figure3,
                include_str!("../../../results/figure3.txt"),
            ),
            (
                "figure4",
                figure4,
                include_str!("../../../results/figure4.txt"),
            ),
            (
                "figure6",
                figure6,
                include_str!("../../../results/figure6.txt"),
            ),
            (
                "ablation_epsilon",
                ablation_epsilon,
                include_str!("../../../results/ablation_epsilon.txt"),
            ),
            (
                "ablation_greedy",
                ablation_greedy,
                include_str!("../../../results/ablation_greedy.txt"),
            ),
            (
                "ablation_microsim",
                ablation_microsim,
                include_str!("../../../results/ablation_microsim.txt"),
            ),
            (
                "ablation_recompute",
                ablation_recompute,
                include_str!("../../../results/ablation_recompute.txt"),
            ),
            (
                "ablation_threshold",
                ablation_threshold,
                include_str!("../../../results/ablation_threshold.txt"),
            ),
        ];
        let moved: Vec<&str> = golden
            .iter()
            .filter(|(_, render, want)| render() != *want)
            .map(|(name, ..)| *name)
            .collect();
        assert!(
            moved.is_empty(),
            "paper outputs differ from results/*.txt: {moved:?} \
             (regenerate with `cargo run --release -p kfuse-paper --bin <name>` \
             only if the change is meant to move them)"
        );
    }
}
