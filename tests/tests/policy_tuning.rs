//! Cross-crate integration tests for the `PlanPolicy` seam in kfuse-core
//! and the offline kfuse-tune autotuner.
//!
//! The invariant under test everywhere: a policy or a tuned choice may
//! change **which plan runs** — partition, schedule, tile — but never
//! the pixels. Bit identity against the reference interpreter is the
//! oracle, as it is for every other execution path in the repo.

use kfuse_core::{FusionConfig, PlanPolicy, StaticModelPolicy};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_sim::{execute_fast, execute_reference};
use kfuse_tune::{autotune, probe_inputs, Choice, TuneKey, TuneOptions};

fn assert_bit_identical(p: &kfuse_ir::Pipeline, fused: &kfuse_ir::Pipeline, what: &str) {
    let inputs = probe_inputs(p, 11);
    let reference = execute_reference(p, &inputs).expect("reference executes");
    let got = execute_fast(fused, &inputs).expect("fast executes");
    for &out in p.outputs() {
        let (a, b) = (
            reference.image(out).expect("reference output"),
            got.image(out).expect("fast output"),
        );
        assert!(a.bit_equal(b), "{what}: output {out:?} diverged");
    }
}

/// Both planning policies produce bit-identical results on every paper
/// app, even when skewed constants change the partition.
#[test]
fn both_policies_bit_identical_on_paper_apps() {
    let static_policy = StaticModelPolicy::paper_default();
    let skewed = StaticModelPolicy::new(FusionConfig::new(BenefitModel::new(GpuSpec {
        t_global: 8.0,
        t_shared: 4.0,
        c_alu: 40.0,
        c_sfu: 160.0,
        ..GpuSpec::gtx680()
    })));
    for app in kfuse_apps::paper_apps() {
        let p = (app.build_sized)(40, 32);
        for (label, policy) in [("static", &static_policy), ("skewed", &skewed)] {
            let fused = policy.fuse(&p).pipeline;
            fused.validate().expect("fused pipeline validates");
            assert_bit_identical(&p, &fused, &format!("{} under {label}", app.name));
        }
    }
}

/// The autotuner's winner on a real app is bit-identical when re-executed
/// fresh, and the static default is always among the measured candidates
/// (so a tuned-vs-static comparison is never vacuous).
#[test]
fn autotune_winner_survives_reexecution() {
    let app = kfuse_apps::paper_apps()
        .into_iter()
        .find(|a| a.name == "Sobel")
        .unwrap();
    let p = (app.build_sized)(56, 44);
    let inputs = probe_inputs(&p, 5);
    let base = StaticModelPolicy::paper_default().fusion_config().clone();
    let mut opts = TuneOptions::smoke();
    opts.strips = vec![None, Some(8)];
    let result = autotune(&p, &inputs, &base, &opts).unwrap();
    assert_eq!(result.key, TuneKey::for_pipeline(&p));
    assert!(result
        .measured
        .iter()
        .any(|m| m.choice == Choice::static_default()));
    let compiled = result.best.compile(&p, &base);
    assert_bit_identical(&p, &compiled, "autotuned winner");
}
