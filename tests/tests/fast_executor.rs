//! Differential tests for the compiled tiled executor: for every paper
//! application, every fusion schedule, and every border mode, the fast
//! engine (`kfuse_sim::execute_fast`) must produce output **bit-identical**
//! to the reference tree-walking interpreter
//! (`kfuse_sim::execute_reference`).
//!
//! The fast engine materializes each inlined stage once per strip into a
//! halo-extended scratch plane; the interpreter recomputes producers per
//! load. Both perform the same f32 arithmetic on the same values, so any
//! bit difference is a bug in the tape lowering, the halo math, or the
//! index-exchange handling at strip seams and image borders.

use kfuse_apps::paper_apps;
use kfuse_core::FusionConfig;
use kfuse_dsl::{c, compile, v, Mask, PipelineBuilder, Schedule};
use kfuse_ir::{BorderMode, Image, Pipeline};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_sim::{
    execute_fast_with, execute_reference, stage_tap_subexpressions, synthetic_image,
    CompiledKernel, FastConfig,
};

fn cfg() -> FusionConfig {
    FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()))
}

fn inputs_for(p: &Pipeline, seed: u64) -> Vec<(kfuse_ir::ImageId, Image)> {
    p.inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
        .collect()
}

/// Asserts bit-identity of the fast engine against the interpreter on
/// every output of `p`.
fn assert_fast_matches_reference(p: &Pipeline, fast_cfg: &FastConfig, label: &str) {
    let inputs = inputs_for(p, 13);
    let reference = execute_reference(p, &inputs).expect("reference executes");
    let fast = execute_fast_with(p, &inputs, fast_cfg).expect("fast executes");
    for &id in p.outputs() {
        let r = reference.expect_image(id);
        let f = fast.expect_image(id);
        assert!(
            r.bit_equal(f),
            "{label}: output {} differs, max abs diff {}",
            p.image(id).name,
            r.max_abs_diff(f)
        );
    }
}

/// All six applications, unfused and under both fusion schedules, on a
/// non-square odd-sized image: 11-row strips that do not divide the
/// 61 rows or the two 30/31-row bands, one-row strips (every row a seam),
/// and the derived strip height.
#[test]
fn all_apps_all_schedules_bit_identical() {
    let fast_cfgs = [
        FastConfig {
            strip_rows: Some(11),
            threads: Some(2),
        },
        FastConfig {
            strip_rows: Some(1),
            threads: Some(1),
        },
        FastConfig::default(),
    ];
    for app in paper_apps() {
        let p = (app.build_sized)(97, 61);
        for fast_cfg in &fast_cfgs {
            let label = format!("{}/{:?}", app.name, fast_cfg.strip_rows);
            assert_fast_matches_reference(&p, fast_cfg, &format!("{label}/baseline"));
            for schedule in [Schedule::Basic, Schedule::Optimized] {
                let fused = compile(&p, schedule, &cfg());
                assert_fast_matches_reference(&fused, fast_cfg, &format!("{label}/{schedule:?}"));
            }
        }
    }
}

/// A fused local→local chain under every border mode, so halo pixels of
/// the materialized planes exercise each index-exchange flavor.
#[test]
fn fused_chain_all_border_modes() {
    for mode in [
        BorderMode::Clamp,
        BorderMode::Mirror,
        BorderMode::Repeat,
        BorderMode::Constant(-3.5),
    ] {
        let mut b = PipelineBuilder::new("chain", 37, 23);
        let input = b.gray_input("in");
        let g1 = b.convolve("g1", input, &Mask::gaussian3(), mode);
        let sq = b.point("sq", &[g1], vec![v(0) * v(0) + c(0.5)]);
        let g2 = b.convolve("g2", sq, &Mask::gaussian5(), mode);
        b.output(g2);
        let p = b.build();
        let fused = compile(&p, Schedule::Optimized, &cfg());
        let fast_cfg = FastConfig {
            strip_rows: Some(7),
            threads: Some(2),
        };
        assert_fast_matches_reference(&fused, &fast_cfg, &format!("chain/{mode:?}"));
        assert_fast_matches_reference(&p, &fast_cfg, &format!("chain-unfused/{mode:?}"));
    }
}

/// Image shorter than a strip (a strip is a tile as wide as the image).
#[test]
fn image_smaller_than_tile() {
    let fast_cfg = FastConfig {
        strip_rows: Some(256),
        threads: Some(1),
    };
    for app in paper_apps() {
        let p = (app.build_sized)(9, 7);
        let fused = compile(&p, Schedule::Optimized, &cfg());
        assert_fast_matches_reference(&fused, &fast_cfg, &format!("{}/small", app.name));
    }
}

/// Fused 5×5∘5×5 stencils on a 5×5 image: the cumulative halo (4) exceeds
/// what the clipped plane can cover, forcing heavy index exchange.
#[test]
fn halo_wider_than_image() {
    for mode in [BorderMode::Clamp, BorderMode::Mirror, BorderMode::Repeat] {
        let mut b = PipelineBuilder::new("wide", 5, 5);
        let input = b.gray_input("in");
        let g1 = b.convolve("g1", input, &Mask::gaussian5(), mode);
        let g2 = b.convolve("g2", g1, &Mask::gaussian5(), mode);
        b.output(g2);
        let p = b.build();
        let fused = compile(&p, Schedule::Optimized, &cfg());
        let fast_cfg = FastConfig {
            strip_rows: Some(3),
            threads: Some(2),
        };
        assert_fast_matches_reference(&fused, &fast_cfg, &format!("wide-halo/{mode:?}"));
    }
}

/// Night is RGB end-to-end: multi-channel planes and interleaved output.
#[test]
fn multi_channel_rgb_tiled() {
    let p = kfuse_apps::night(31, 19);
    let fused = compile(&p, Schedule::Optimized, &cfg());
    for fast_cfg in [
        FastConfig {
            strip_rows: Some(8),
            threads: Some(1),
        },
        FastConfig {
            strip_rows: Some(3),
            threads: Some(3),
        },
    ] {
        assert_fast_matches_reference(&fused, &fast_cfg, "night-rgb");
    }
}

/// `Constant` border values must surface in the halo of materialized
/// planes exactly as the interpreter produces them.
#[test]
fn constant_border_in_halo() {
    let mut b = PipelineBuilder::new("const", 16, 16);
    let input = b.gray_input("in");
    let g1 = b.convolve("g1", input, &Mask::gaussian3(), BorderMode::Constant(7.25));
    let g2 = b.convolve("g2", g1, &Mask::gaussian3(), BorderMode::Constant(-2.0));
    b.output(g2);
    let p = b.build();
    let fused = compile(&p, Schedule::Optimized, &cfg());
    let fast_cfg = FastConfig {
        strip_rows: Some(4),
        threads: Some(2),
    };
    assert_fast_matches_reference(&fused, &fast_cfg, "constant-halo");
}

/// Degenerate shapes: single row, single column, single pixel.
#[test]
fn degenerate_shapes() {
    let fast_cfg = FastConfig {
        strip_rows: Some(16),
        threads: Some(2),
    };
    for (w, h) in [(64, 1), (1, 64), (1, 1), (2, 2)] {
        let p = kfuse_apps::sobel(w, h);
        let fused = compile(&p, Schedule::Optimized, &cfg());
        assert_fast_matches_reference(&fused, &fast_cfg, &format!("sobel/{w}x{h}"));
    }
}

/// More worker threads than rows must not break band splitting.
#[test]
fn oversubscribed_threads() {
    let p = kfuse_apps::harris(33, 9, kfuse_apps::harris::DEFAULT_K);
    let fused = compile(&p, Schedule::Optimized, &cfg());
    let fast_cfg = FastConfig {
        strip_rows: Some(4),
        threads: Some(64),
    };
    assert_fast_matches_reference(&fused, &fast_cfg, "harris-oversubscribed");
}

/// Where the executor stages per-tap transcendental subexpressions, over
/// the six apps under every schedule: only in kernels holding Enhance's
/// geometric mean, whose nine `ln(in + 1)` become exactly one plane more.
/// Night's bilateral `exp` reads the tap *and* the centre, and the four
/// convolution apps have no transcendental: every other kernel keeps its
/// plane set — one plane per inlined stage.
#[test]
fn staged_taps_only_where_a_transcendental_recurs() {
    for app in paper_apps() {
        let p = (app.build_sized)(64, 48);
        for schedule in [Schedule::Baseline, Schedule::Basic, Schedule::Optimized] {
            for k in compile(&p, schedule, &cfg()).kernels() {
                let gmean = k.stages.iter().any(|s| s.name == "gmean");
                let staged = stage_tap_subexpressions(k);
                let label = format!("{}/{schedule:?}/{}", app.name, k.name);
                assert_eq!(staged.is_some(), gmean, "{label}");
                if let Some(s) = staged {
                    assert_eq!(s.stages.len(), k.stages.len() + 1, "{label}");
                }
                let planes = CompiledKernel::new(k).plane_stages().len();
                assert_eq!(planes, k.stages.len() - 1 + usize::from(gmean), "{label}");
            }
        }
    }
}
