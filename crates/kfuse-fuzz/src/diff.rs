//! The differential harness: one pipeline, every execution path, bit
//! identity.
//!
//! The reference interpreter ([`kfuse_sim::execute_reference`]) defines the
//! semantics; everything else ships an optimization of it and must agree
//! **bit for bit** (the fusion paper's own correctness bar, Section IV).
//! Per pipeline the harness cross-checks:
//!
//! * the fast executor under several strip heights and thread counts,
//!   including tiles smaller than the mask radius;
//! * the separable rewrite ([`kfuse_core::factor_pipeline`]): when any
//!   stage splits, the factored pipeline must itself be bit-identical
//!   across the interpreter and the fast executor (factored vs
//!   *unfactored* differs by FP reassociation and is pinned with a
//!   tolerance in `tests/separable_factorization.rs`, not here);
//! * a [`CompiledPlan`] executed plain and traced (with the resulting
//!   Chrome trace validated by the strict checker);
//! * every fusion [`kfuse_dsl::Schedule`], each run through both the
//!   interpreter and the fast executor — this is where planner + synthesis
//!   bugs surface as wrong pixels;
//! * two planning policies ([`kfuse_core::StaticModelPolicy`] under the
//!   paper's constants and under seed-skewed ones): policies may pick
//!   *different partitions*, never different pixels;
//! * a [`Runtime`] round trip, cold then warm, asserting the warm
//!   submission actually hit the plan cache.

use kfuse_core::{FusionConfig, PlanPolicy, StaticModelPolicy};
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_obs::{validate_chrome_trace, Tracer};
use kfuse_runtime::{Runtime, RuntimeConfig};
use kfuse_sim::{
    execute_fast_with, execute_reference, synthetic_image, CompiledPlan, Execution, FastConfig,
    Scratch,
};
use std::fmt;

/// A fuzzing finding: either two execution paths disagreed, a path failed
/// outright, or a planner invariant was violated.
#[derive(Clone, Debug, PartialEq)]
pub enum Failure {
    /// Two execution paths produced different pixels for an output image.
    Mismatch {
        /// Which execution path disagreed with the reference.
        path: String,
        /// Name of the mismatched output image.
        image: String,
        /// Largest absolute per-pixel difference.
        max_abs_diff: f32,
    },
    /// One path materialized an output the other did not.
    MissingOutput {
        /// Which execution path lost the image.
        path: String,
        /// Name of the missing output image.
        image: String,
    },
    /// An execution path returned an error on a valid pipeline.
    ExecFailed {
        /// Which execution path failed.
        path: String,
        /// The error it reported.
        error: String,
    },
    /// A fusion schedule produced a pipeline that fails validation.
    InvalidPipeline {
        /// Which schedule produced it.
        path: String,
        /// The validation error.
        error: String,
    },
    /// The trace emitted by a traced execution failed the strict
    /// Chrome-trace checker.
    TraceInvalid {
        /// The checker's complaint.
        error: String,
    },
    /// A planner invariant was violated (see [`crate::invariants`]).
    Invariant {
        /// Description of the violated invariant.
        what: String,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Mismatch {
                path,
                image,
                max_abs_diff,
            } => write!(
                f,
                "{path}: output {image} differs from reference (max abs diff {max_abs_diff:e})"
            ),
            Failure::MissingOutput { path, image } => {
                write!(f, "{path}: output {image} was not materialized")
            }
            Failure::ExecFailed { path, error } => write!(f, "{path}: execution failed: {error}"),
            Failure::InvalidPipeline { path, error } => {
                write!(f, "{path}: fused pipeline fails validation: {error}")
            }
            Failure::TraceInvalid { error } => write!(f, "traced execution: {error}"),
            Failure::Invariant { what } => write!(f, "planner invariant violated: {what}"),
        }
    }
}

impl std::error::Error for Failure {}

/// Deterministic inputs for `p`, derived from the fuzz seed.
pub fn make_inputs(p: &Pipeline, seed: u64) -> Vec<(ImageId, Image)> {
    p.inputs()
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let img_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (id, synthetic_image(p.image(id).clone(), img_seed))
        })
        .collect()
}

/// Compares every marked output of `got` against `reference` bit-exactly.
///
/// Outputs missing from *both* executions are tolerated: a shrunk pipeline
/// may keep an output mark whose producer was removed, and then neither
/// path materializes the image.
fn compare(
    p: &Pipeline,
    reference: &Execution,
    got: &Execution,
    path: &str,
) -> Result<(), Failure> {
    for &out in p.outputs() {
        let name = || p.image(out).name.clone();
        match (reference.image(out), got.image(out)) {
            (Some(a), Some(b)) => {
                if !a.bit_equal(b) {
                    return Err(Failure::Mismatch {
                        path: path.to_string(),
                        image: name(),
                        max_abs_diff: a.max_abs_diff(b),
                    });
                }
            }
            (None, None) => {}
            _ => {
                return Err(Failure::MissingOutput {
                    path: path.to_string(),
                    image: name(),
                })
            }
        }
    }
    Ok(())
}

fn run_fast(
    p: &Pipeline,
    inputs: &[(ImageId, Image)],
    cfg: &FastConfig,
    path: &str,
) -> Result<Execution, Failure> {
    execute_fast_with(p, inputs, cfg).map_err(|e| Failure::ExecFailed {
        path: path.to_string(),
        error: e.to_string(),
    })
}

/// Runs every execution path on `p` and checks bit identity against the
/// reference interpreter. `seed` only seeds the input images.
pub fn differential(p: &Pipeline, seed: u64) -> Result<(), Failure> {
    let inputs = make_inputs(p, seed);
    let reference = execute_reference(p, &inputs).map_err(|e| Failure::ExecFailed {
        path: "reference".into(),
        error: e.to_string(),
    })?;

    // Fast executor under strip heights that straddle the image sizes the
    // generator picks — including strips shorter than any mask radius.
    let strip_configs = [
        ("fast:default", FastConfig::default()),
        (
            "fast:2-row-strips-2-threads",
            FastConfig {
                strip_rows: Some(2),
                threads: Some(2),
            },
        ),
        (
            "fast:1-row-strips",
            FastConfig {
                strip_rows: Some(1),
                threads: Some(1),
            },
        ),
    ];
    for (path, cfg) in &strip_configs {
        let got = run_fast(p, &inputs, cfg, path)?;
        compare(p, &reference, &got, path)?;
    }

    // Separable lane: split exactly-separable convolution stages (the
    // generator is biased to emit them) and require the *factored*
    // pipeline to agree bit for bit across the interpreter and the fast
    // executor. The factored form matches the original only to FP
    // reassociation, so its own reference run is the oracle here.
    let (factored, splits) = kfuse_core::factor_pipeline(p);
    if splits > 0 {
        factored.validate().map_err(|e| Failure::InvalidPipeline {
            path: "separable:factor".into(),
            error: e.to_string(),
        })?;
        let sep_reference =
            execute_reference(&factored, &inputs).map_err(|e| Failure::ExecFailed {
                path: "separable:reference".into(),
                error: e.to_string(),
            })?;
        let got = run_fast(&factored, &inputs, &FastConfig::default(), "separable:fast")?;
        compare(p, &sep_reference, &got, "separable:fast")?;
    }

    // Compiled plan: plain, then traced with a validated Chrome export.
    let plan = CompiledPlan::compile(p).map_err(|e| Failure::ExecFailed {
        path: "plan:compile".into(),
        error: e.to_string(),
    })?;
    let cfg = FastConfig::default();
    let mut scratch = Scratch::default();
    let got = plan
        .run(inputs.clone(), &cfg, &mut scratch, &Tracer::disabled())
        .map_err(|e| Failure::ExecFailed {
            path: "plan:execute".into(),
            error: e.to_string(),
        })?;
    compare(p, &reference, &got, "plan:execute")?;

    let tracer = Tracer::enabled();
    let got = plan
        .run(inputs.clone(), &cfg, &mut scratch, &tracer)
        .map_err(|e| Failure::ExecFailed {
            path: "plan:traced".into(),
            error: e.to_string(),
        })?;
    compare(p, &reference, &got, "plan:traced")?;
    validate_chrome_trace(&tracer.to_chrome_json()).map_err(|e| Failure::TraceInvalid {
        error: e.to_string(),
    })?;

    // Every fusion schedule, through both executors: synthesis must be
    // semantics-preserving under interpreter *and* tiled semantics.
    let fusion_cfg = kfuse_dsl::default_config(GpuSpec::gtx680());
    for schedule in kfuse_dsl::Schedule::ALL {
        let label = schedule.label();
        let fused = kfuse_dsl::compile(p, schedule, &fusion_cfg);
        fused.validate().map_err(|e| Failure::InvalidPipeline {
            path: format!("sched:{label}"),
            error: e.to_string(),
        })?;
        let path = format!("sched:{label}:reference");
        let got = execute_reference(&fused, &inputs).map_err(|e| Failure::ExecFailed {
            path: path.clone(),
            error: e.to_string(),
        })?;
        compare(p, &reference, &got, &path)?;
        let path = format!("sched:{label}:fast");
        let got = run_fast(&fused, &inputs, &FastConfig::default(), &path)?;
        compare(p, &reference, &got, &path)?;
    }

    // Policy lane: planning policies own the fusion decision, not the
    // semantics. The second policy prices with constants whose ratios
    // are skewed by the seed — so across a corpus the two policies
    // genuinely disagree on partitions — and both must still produce
    // reference-identical pixels.
    let static_policy = StaticModelPolicy::paper_default();
    let skew = 1.0 + (seed % 16) as f64;
    let skewed_policy = StaticModelPolicy::new(FusionConfig::new(BenefitModel::new(GpuSpec {
        t_global: 50.0 * skew,
        t_shared: 4.0,
        c_alu: 4.0 + (seed % 5) as f64,
        c_sfu: 16.0,
        ..GpuSpec::gtx680()
    })));
    for (label, policy) in [("static", &static_policy), ("skewed", &skewed_policy)] {
        let fused = policy.fuse(p).pipeline;
        fused.validate().map_err(|e| Failure::InvalidPipeline {
            path: format!("policy:{label}"),
            error: e.to_string(),
        })?;
        let path = format!("policy:{label}:reference");
        let got = execute_reference(&fused, &inputs).map_err(|e| Failure::ExecFailed {
            path: path.clone(),
            error: e.to_string(),
        })?;
        compare(p, &reference, &got, &path)?;
        let path = format!("policy:{label}:fast");
        let got = run_fast(&fused, &inputs, &FastConfig::default(), &path)?;
        compare(p, &reference, &got, &path)?;
    }

    // Planner + separable rewrite end to end: an Optimized compile with
    // the separable knob on (factored φ pricing plus post-plan stage
    // splits). Where a stage split the output differs from the original
    // by reassociation, so the compiled pipeline's own reference run is
    // the oracle for the fast executor.
    let sep_cfg = kfuse_dsl::default_config(GpuSpec::gtx680()).with_separable();
    let fused = kfuse_dsl::compile(p, kfuse_dsl::Schedule::Optimized, &sep_cfg);
    fused.validate().map_err(|e| Failure::InvalidPipeline {
        path: "sched:optimized+separable".into(),
        error: e.to_string(),
    })?;
    let sep_ref = execute_reference(&fused, &inputs).map_err(|e| Failure::ExecFailed {
        path: "sched:optimized+separable:reference".into(),
        error: e.to_string(),
    })?;
    let path = "sched:optimized+separable:fast";
    let got = run_fast(&fused, &inputs, &FastConfig::default(), path)?;
    compare(p, &sep_ref, &got, path)?;

    // Runtime round trip: cold compiles and caches, warm must hit.
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        plan_cache_capacity: 8,
        ..RuntimeConfig::default()
    });
    for pass in ["runtime:cold", "runtime:warm"] {
        let got = rt
            .execute("fuzz", p, inputs.clone(), kfuse_dsl::Schedule::Optimized)
            .map_err(|e| Failure::ExecFailed {
                path: pass.into(),
                error: e.to_string(),
            })?;
        compare(p, &reference, &got, pass)?;
    }
    let snapshot = rt.metrics();
    let pm = snapshot
        .pipeline("fuzz")
        .expect("runtime served two requests");
    if pm.cache_hits == 0 {
        return Err(Failure::Invariant {
            what: "warm runtime submission missed the plan cache".into(),
        });
    }
    rt.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel};

    /// A hand-written sanity pipeline passes the full harness.
    #[test]
    fn harness_accepts_known_good_pipeline() {
        let mut p = Pipeline::new("sane");
        let input = p.add_input(ImageDesc::new("in", 9, 7, 1));
        let mid = p.add_image(ImageDesc::new("mid", 9, 7, 1));
        let out = p.add_image(ImageDesc::new("out", 9, 7, 1));
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        p.add_kernel(Kernel::simple(
            "blur",
            vec![input],
            mid,
            vec![BorderMode::Mirror],
            vec![Expr::convolve(0, 0, &mask)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "sq",
            vec![mid],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::load(0)],
            vec![],
        ));
        p.mark_output(out);
        differential(&p, 42).unwrap();
    }

    #[test]
    fn inputs_are_seed_deterministic() {
        let mut p = Pipeline::new("t");
        let a = p.add_input(ImageDesc::new("a", 4, 4, 2));
        let b = p.add_input(ImageDesc::new("b", 4, 4, 1));
        let x = make_inputs(&p, 7);
        let y = make_inputs(&p, 7);
        let z = make_inputs(&p, 8);
        assert_eq!(x.len(), 2);
        assert_eq!(x[0].0, a);
        assert_eq!(x[1].0, b);
        assert!(x[0].1.bit_equal(&y[0].1) && x[1].1.bit_equal(&y[1].1));
        assert!(!x[0].1.bit_equal(&z[0].1));
    }
}
