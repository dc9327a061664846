//! Planning policies: *who decides* the fusion configuration.
//!
//! Algorithm 1 is policy-agnostic — it partitions whatever edge weights it
//! is given. What varies is where those weights come from:
//!
//! * [`StaticModelPolicy`] prices edges with the paper's analytic
//!   [`BenefitModel`] and its data-sheet GPU constants — planning as the
//!   paper evaluates it, with no feedback from the machine.
//!
//! Skewed constants make a [`PlanPolicy`] differential-testable: a
//! policy only ever changes *which* legal partition is chosen, never the
//! semantics of the fused pipeline, so every policy's output must stay
//! bit-identical to the reference interpreter (the fuzzer enforces this
//! per seed).

use crate::planner::{fuse_optimized, plan_optimized, FusionConfig, FusionPlan, FusionResult};
use kfuse_ir::Pipeline;
use kfuse_model::BenefitModel;

/// A planning policy: owns the [`FusionConfig`] (benefit model, block
/// shape, thresholds) that Algorithm 1 runs under.
///
/// The contract every implementation must honor: policies select among
/// *legal* plans only. Applying the plan of any policy yields a pipeline
/// bit-identical to the unfused reference — a policy that could change
/// output pixels is a miscompilation, not a policy.
pub trait PlanPolicy: Send + Sync + std::fmt::Debug {
    /// Short stable name (`"static"`) for logs and benchmarks.
    fn name(&self) -> &'static str;

    /// The fusion configuration this policy plans with.
    fn fusion_config(&self) -> &FusionConfig;

    /// Runs Algorithm 1 under this policy's configuration.
    fn plan(&self, p: &Pipeline) -> FusionPlan {
        plan_optimized(p, self.fusion_config())
    }

    /// Plans and applies: the fused pipeline plus its provenance.
    fn fuse(&self, p: &Pipeline) -> FusionResult {
        fuse_optimized(p, self.fusion_config())
    }
}

/// Today's behavior behind the trait: the analytic [`BenefitModel`] with
/// whatever constants the caller configured (by default the paper's
/// data-sheet values).
#[derive(Clone, Debug)]
pub struct StaticModelPolicy {
    cfg: FusionConfig,
}

impl StaticModelPolicy {
    /// Wraps an existing configuration.
    pub fn new(cfg: FusionConfig) -> Self {
        Self { cfg }
    }

    /// The evaluation default: paper model, GTX 680 constants.
    pub fn paper_default() -> Self {
        Self::new(FusionConfig::new(BenefitModel::new(
            kfuse_model::GpuSpec::gtx680(),
        )))
    }
}

impl PlanPolicy for StaticModelPolicy {
    fn name(&self) -> &'static str {
        "static"
    }

    fn fusion_config(&self) -> &FusionConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel};
    use kfuse_model::GpuSpec;

    fn chain() -> Pipeline {
        let mut p = Pipeline::new("chain");
        let input = p.add_input(ImageDesc::new("in", 24, 24, 1));
        let m1 = p.add_image(ImageDesc::new("m1", 24, 24, 1));
        let out = p.add_image(ImageDesc::new("out", 24, 24, 1));
        p.add_kernel(Kernel::simple(
            "a",
            vec![input],
            m1,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) + Expr::Const(1.0)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "b",
            vec![m1],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::Const(2.0)],
            vec![],
        ));
        p.mark_output(out);
        p.validate().unwrap();
        p
    }

    #[test]
    fn static_policy_matches_direct_planner_call() {
        let p = chain();
        let policy = StaticModelPolicy::paper_default();
        assert_eq!(policy.name(), "static");
        let via_policy = policy.fuse(&p);
        let direct = fuse_optimized(&p, policy.fusion_config());
        assert_eq!(
            via_policy.plan.partition.blocks().len(),
            direct.plan.partition.blocks().len()
        );
        assert_eq!(via_policy.plan.total_benefit, direct.plan.total_benefit);
        assert_eq!(
            via_policy.pipeline.kernels().len(),
            direct.pipeline.kernels().len()
        );
    }

    /// Skewed constants fuse the point chain as completely as the
    /// paper's: where the model is clear-cut, the decisions coincide.
    #[test]
    fn policies_agree_on_clear_cut_fusion() {
        let p = chain();
        let s = StaticModelPolicy::paper_default();
        let m = StaticModelPolicy::new(FusionConfig::new(BenefitModel::new(GpuSpec {
            t_global: 900.0,
            t_shared: 3.0,
            c_alu: 2.0,
            c_sfu: 10.0,
            ..GpuSpec::gtx680()
        })));
        assert_eq!(s.fuse(&p).pipeline.kernels().len(), 1);
        assert_eq!(m.fuse(&p).pipeline.kernels().len(), 1);
    }
}
