//! Separable mask factorization, end to end.
//!
//! The rewrite (`kfuse_core::factor_pipeline`, reachable via
//! `FusionConfig::separable`) splits exactly-separable convolution stages
//! into 1-D row/column passes. Its contract has two halves:
//!
//! * a factored pipeline is **bit-identical across executors** — the
//!   reference interpreter and the compiled tape engine agree on every
//!   pixel, borders included, because the factored stages are ordinary
//!   kernel IR that every engine runs the same way;
//! * a factored pipeline matches the *unfactored* original only to
//!   **rounding** — the factored weights reproduce the 2-D mask bit for
//!   bit, but the summation order changes, so the comparison uses a
//!   relative tolerance (this is exactly why the rewrite is opt-in).

use kfuse_apps::paper_apps;
use kfuse_core::{factor_pipeline, FusionConfig};
use kfuse_dsl::{compile, Mask, PipelineBuilder, Schedule};
use kfuse_integration_tests::SplitMix64;
use kfuse_ir::{BorderMode, Image, Pipeline};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_sim::{execute_fast, execute_reference, synthetic_image};

fn cfg() -> FusionConfig {
    FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()))
}

fn inputs_for(p: &Pipeline, seed: u64) -> Vec<(kfuse_ir::ImageId, Image)> {
    p.inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
        .collect()
}

fn outputs_of(p: &Pipeline, exec: &kfuse_sim::Execution) -> Vec<Image> {
    p.outputs()
        .iter()
        .map(|&id| exec.expect_image(id).clone())
        .collect()
}

/// Asserts the reference and fast runs of `p` are bit-identical, and
/// returns the outputs.
fn assert_executors_agree(p: &Pipeline, seed: u64, what: &str) -> Vec<Image> {
    let inputs = inputs_for(p, seed);
    let reference = outputs_of(
        p,
        &execute_reference(p, &inputs).expect("reference executes"),
    );
    let fast = outputs_of(p, &execute_fast(p, &inputs).expect("fast executes"));
    assert_eq!(reference.len(), fast.len());
    for (r, f) in reference.iter().zip(&fast) {
        assert!(r.bit_equal(f), "{what}: max abs diff {}", r.max_abs_diff(f));
    }
    reference
}

/// Asserts `a` and `b` agree within a relative tolerance.
fn assert_close(a: &[Image], b: &[Image], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        let scale = 1.0 + x.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(
            x.max_abs_diff(y) <= tol * scale,
            "{what}: max abs diff {} (scale {scale})",
            x.max_abs_diff(y)
        );
    }
}

/// Which paper apps contain exactly-separable convolution stages: the
/// Gaussian/Sobel masks of Harris, Sobel, Unsharp and ShiTomasi factor;
/// Enhance is point-wise and Night's à-trous stages are bilateral
/// (data-dependent weights), so neither is ever split.
#[test]
fn factorization_splits_exactly_the_convolution_apps() {
    for app in paper_apps() {
        let p = (app.build_sized)(24, 18);
        let (_, baseline_splits) = factor_pipeline(&p);
        let fused = compile(&p, Schedule::Optimized, &cfg());
        let (_, fused_splits) = factor_pipeline(&fused);
        let expect_split = matches!(app.name, "Harris" | "Sobel" | "Unsharp" | "ShiTomasi");
        assert_eq!(
            baseline_splits > 0,
            expect_split,
            "{} baseline: {baseline_splits} splits",
            app.name
        );
        assert_eq!(
            fused_splits > 0,
            expect_split,
            "{} fused: {fused_splits} splits",
            app.name
        );
    }
}

/// Factored pipelines (both unfused and optimized-fused) are bit-identical
/// across all executors and match the unfactored form to rounding.
#[test]
fn paper_apps_factored_executors_agree_and_match_original() {
    for app in paper_apps() {
        // Small but larger than the 5×5 halo in both axes, non-square.
        let p = (app.build_sized)(24, 18);
        let plain = compile(&p, Schedule::Optimized, &cfg());
        let reference = assert_executors_agree(&plain, 7, app.name);

        let factored = compile(&p, Schedule::Optimized, &cfg().with_separable());
        let got = assert_executors_agree(&factored, 7, app.name);
        assert_close(
            &reference,
            &got,
            1e-5,
            &format!("{} factored vs original", app.name),
        );
    }
}

/// The PR 4 border corpus, factored: random tiny sizes — including images
/// *smaller than the mask radius*, where every access is out of bounds —
/// with every border mode, on single and chained separable convolutions.
/// The factored pipeline must stay bit-identical across executors and
/// within rounding of the unfactored one; `Constant` borders must never
/// be split.
#[test]
fn degenerate_sizes_and_borders_survive_factoring() {
    fn mode_from(code: u8) -> BorderMode {
        match code % 4 {
            0 => BorderMode::Clamp,
            1 => BorderMode::Mirror,
            2 => BorderMode::Repeat,
            _ => BorderMode::Constant(9.25),
        }
    }
    let mut rng = SplitMix64::new(0x5e9a);
    for case in 0..48 {
        let w = rng.range(1, 12);
        let h = rng.range(1, 12);
        let seed = rng.next_u64();
        let mode = mode_from(rng.byte());
        let five = rng.flag();
        let chain = rng.flag();
        let mask = if five {
            Mask::gaussian5()
        } else {
            Mask::gaussian3()
        };

        let mut b = PipelineBuilder::new("conv", w, h);
        let input = b.gray_input("in");
        let mut img = b.convolve("c1", input, &mask, mode);
        if chain {
            img = b.convolve("c2", img, &Mask::gaussian3(), mode);
        }
        b.output(img);
        let p = b.build();

        let (factored, splits) = factor_pipeline(&p);
        if matches!(mode, BorderMode::Constant(_)) {
            assert_eq!(splits, 0, "case {case}: constant border must not split");
            continue;
        }
        assert_eq!(splits, if chain { 2 } else { 1 }, "case {case}");

        let what = format!("case {case} ({w}x{h}, {mode:?}, five={five}, chain={chain})");
        let reference = assert_executors_agree(&p, seed, &what);
        let got = assert_executors_agree(&factored, seed, &what);
        assert_close(&reference, &got, 1e-4, &what);
    }
}

/// `with_separable` also prices `φ` with the factored producer cost: the
/// planner's Night verdict (reject the à-trous pair) must be unchanged —
/// the bilateral stages never factor, so their recompute stays expensive.
#[test]
fn night_atrous_pair_still_rejected_with_separable_phi() {
    let p = (paper_apps()
        .into_iter()
        .find(|a| a.name == "Night")
        .unwrap()
        .build_sized)(64, 64);
    let result = kfuse_core::fuse_optimized(&p, &cfg().with_separable());
    assert_eq!(result.pipeline.kernels().len(), 2, "only the tail fuses");
    let e01 = result
        .plan
        .edges
        .iter()
        .find(|e| e.src.0 == 0 && e.dst.0 == 1)
        .unwrap();
    assert!(
        !e01.estimate.is_profitable(),
        "atrous0→atrous1 must stay unprofitable: {:?}",
        e01.estimate
    );
}
