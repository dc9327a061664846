//! Scheduling entry points: the three evaluation versions of the paper.
//!
//! Section V-C compares a **baseline** (no fusion), the **basic** fusion of
//! previous work \[12\], and the **optimized** min-cut fusion of this paper.
//! [`compile`] produces any of the three from one DSL pipeline.

use kfuse_core::{fuse_basic, fuse_optimized, FusionConfig, FusionResult};
use kfuse_ir::Pipeline;
use kfuse_model::{BenefitModel, GpuSpec};

/// Which fusion pass to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// No fusion: every DSL kernel becomes one GPU kernel.
    Baseline,
    /// Pair-wise greedy fusion of previous work (SCOPES 2018 \[12\]).
    Basic,
    /// Min-cut driven fusion of this paper (Algorithm 1).
    Optimized,
}

impl Schedule {
    /// All schedules — the paper's three — in presentation order.
    pub const ALL: [Schedule; 3] = [Schedule::Baseline, Schedule::Basic, Schedule::Optimized];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Schedule::Baseline => "Baseline",
            Schedule::Basic => "Basic Fusion",
            Schedule::Optimized => "Optimized Fusion",
        }
    }
}

/// Compiles a pipeline under `schedule` with an explicit configuration.
pub fn compile(p: &Pipeline, schedule: Schedule, cfg: &FusionConfig) -> Pipeline {
    match schedule {
        Schedule::Baseline => p.clone(),
        Schedule::Basic => fuse_basic(p, cfg).pipeline,
        Schedule::Optimized => fuse_optimized(p, cfg).pipeline,
    }
}

/// Compiles with full plan/trace output (baseline returns `None`).
pub fn compile_with_plan(
    p: &Pipeline,
    schedule: Schedule,
    cfg: &FusionConfig,
) -> (Pipeline, Option<FusionResult>) {
    match schedule {
        Schedule::Baseline => (p.clone(), None),
        Schedule::Basic => {
            let r = fuse_basic(p, cfg);
            (r.pipeline.clone(), Some(r))
        }
        Schedule::Optimized => {
            let r = fuse_optimized(p, cfg);
            (r.pipeline.clone(), Some(r))
        }
    }
}

/// The default configuration used by the evaluation harness for `gpu`.
pub fn default_config(gpu: GpuSpec) -> FusionConfig {
    FusionConfig::new(BenefitModel::new(gpu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{c, v, PipelineBuilder};

    fn chain() -> Pipeline {
        let mut b = PipelineBuilder::new("chain", 32, 32);
        let input = b.gray_input("in");
        let a = b.point("a", &[input], vec![v(0) + c(1.0)]);
        let d = b.point("b", &[a], vec![v(0) * c(2.0)]);
        let e = b.point("c", &[d], vec![v(0) - c(3.0)]);
        b.output(e);
        b.build()
    }

    #[test]
    fn schedules_produce_expected_kernel_counts() {
        let p = chain();
        let cfg = default_config(GpuSpec::gtx680());
        assert_eq!(compile(&p, Schedule::Baseline, &cfg).kernels().len(), 3);
        // Basic fuses one pair; optimized fuses the whole chain.
        assert_eq!(compile(&p, Schedule::Basic, &cfg).kernels().len(), 2);
        assert_eq!(compile(&p, Schedule::Optimized, &cfg).kernels().len(), 1);
    }

    #[test]
    fn labels_match_figure6() {
        assert_eq!(Schedule::Baseline.label(), "Baseline");
        assert_eq!(Schedule::Basic.label(), "Basic Fusion");
        assert_eq!(Schedule::Optimized.label(), "Optimized Fusion");
        assert_eq!(Schedule::ALL.len(), 3);
    }

    #[test]
    fn plan_is_returned_for_fusing_schedules() {
        let p = chain();
        let cfg = default_config(GpuSpec::gtx680());
        assert!(compile_with_plan(&p, Schedule::Baseline, &cfg).1.is_none());
        let (_, plan) = compile_with_plan(&p, Schedule::Optimized, &cfg);
        assert!(plan.unwrap().plan.total_benefit > 0.0);
    }
}
