//! Cross-crate integration tests for feedback-directed planning: the
//! `PlanPolicy` split in kfuse-core, the kfuse-tune autotuner and
//! calibrator, and the runtime's online retuning loop.
//!
//! The invariant under test everywhere: a policy or a tuned choice may
//! change **which plan runs** — partition, schedule, tile — but never
//! the pixels. Bit identity against the reference interpreter is the
//! oracle, as it is for every other execution path in the repo.

use kfuse_core::{MeasuredPolicy, PlanPolicy, StaticModelPolicy};
use kfuse_model::CostConstants;
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
/// app, even when skewed measured constants change the partition.
#[test]
fn both_policies_bit_identical_on_paper_apps() {
    let static_policy = StaticModelPolicy::paper_default();
    let skewed = CostConstants {
        t_global: 8.0,
        t_shared: 4.0,
        c_alu: 40.0,
        c_sfu: 160.0,
        gamma: 0.0,
    };
    let measured =
        MeasuredPolicy::from_constants(static_policy.fusion_config().clone(), skewed).unwrap();
    let policies: [&dyn PlanPolicy; 2] = [&static_policy, &measured];
    for app in kfuse_apps::paper_apps() {
        let p = (app.build_sized)(40, 32);
        for policy in policies {
            let fused = policy.fuse(&p).pipeline;
            fused.validate().expect("fused pipeline validates");
            assert_bit_identical(&p, &fused, &format!("{} under {}", app.name, policy.name()));
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

/// End to end through the runtime: serve a paper app until its
/// fingerprint is hot, retune, and check the tuned serving path still
/// matches both the reference interpreter and an untuned baseline job.
#[test]
fn runtime_retuning_serves_bit_identical_results() {
    use kfuse_dsl::Schedule;
    use kfuse_runtime::{Runtime, RuntimeConfig, TuneConfig};
    use kfuse_sim::synthetic_image;

    let app = kfuse_apps::paper_apps()
        .into_iter()
        .find(|a| a.name == "Unsharp")
        .unwrap();
    let p = (app.build_sized)(37, 29);
    let inputs: Vec<_> = p
        .inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), 23)))
        .collect();

    let cfg = RuntimeConfig {
        tuning: Some(TuneConfig {
            hot_threshold: 2,
            options: TuneOptions::smoke(),
            ..TuneConfig::default()
        }),
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(cfg);
    for _ in 0..3 {
        rt.execute("warm", &p, inputs.clone(), Schedule::Optimized)
            .expect("serve succeeds");
    }
    let report = rt.retune_now();
    assert_eq!(report.installed.len(), 1, "hot fingerprint gets tuned");

    let tuned = rt
        .execute("tuned", &p, inputs.clone(), Schedule::Optimized)
        .expect("tuned serve succeeds");
    let reference = execute_reference(&p, &inputs).expect("reference executes");
    for &out in p.outputs() {
        let (a, b) = (
            reference.image(out).expect("reference output"),
            tuned.image(out).expect("tuned output"),
        );
        assert!(a.bit_equal(b), "tuned serving path diverged from reference");
    }
    assert_eq!(rt.metrics().runtime.tuned_plans, 1);
    rt.shutdown();
}
