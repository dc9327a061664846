//! The kernel-fusion optimization of Qiao et al. (CGO 2019).
//!
//! This crate is the paper's primary contribution:
//!
//! * [`legality`] — the dependence scenarios of Figure 2, header
//!   compatibility (Section II-B), and block structure extraction.
//! * [`resources`] — shared-memory usage estimation and the Eq. (2)
//!   resource constraint.
//! * [`synthesis`] — fused-kernel construction: stage concatenation
//!   (Listing 1), register/shared-memory placement of eliminated
//!   intermediates, halo/absolute-extent analysis backing the
//!   index-exchange border handling of Section IV.
//! * [`planner`] — the benefit-weighted dependence graph, **Algorithm 1**
//!   (recursive Stoer–Wagner min-cut partitioning) with a replayable
//!   trace, objective Eq. (1), and plan application.
//! * [`policy`] — the [`PlanPolicy`] trait, who decides the fusion
//!   configuration, and its one implementation, the paper's analytic
//!   model ([`StaticModelPolicy`]).
//! * [`explain`] — planner explainability: [`PlanTrace`] flattens a plan
//!   into per-edge benefit breakdowns (δ, φ, g, γ, ε-clamp reasons),
//!   legality verdicts, and the recursion log, rendered as a text report
//!   or a Graphviz DOT graph.
//! * [`basic`] — the pair-wise greedy baseline of previous work
//!   (SCOPES 2018, reference \[12\]), used as the evaluation comparator.
//!
//! # Quick start
//!
//! ```
//! use kfuse_core::{fuse_optimized, FusionConfig};
//! use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel, Pipeline};
//! use kfuse_model::{BenefitModel, GpuSpec};
//!
//! // in → inc → dbl (two point kernels: they fuse into one).
//! let mut p = Pipeline::new("demo");
//! let input = p.add_input(ImageDesc::new("in", 64, 64, 1));
//! let mid = p.add_image(ImageDesc::new("mid", 64, 64, 1));
//! let out = p.add_image(ImageDesc::new("out", 64, 64, 1));
//! p.add_kernel(Kernel::simple(
//!     "inc", vec![input], mid, vec![BorderMode::Clamp],
//!     vec![Expr::load(0) + Expr::Const(1.0)], vec![],
//! ));
//! p.add_kernel(Kernel::simple(
//!     "dbl", vec![mid], out, vec![BorderMode::Clamp],
//!     vec![Expr::load(0) * Expr::Const(2.0)], vec![],
//! ));
//! p.mark_output(out);
//! p.validate().unwrap();
//!
//! let cfg = FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()));
//! let result = fuse_optimized(&p, &cfg);
//! assert_eq!(result.pipeline.kernels().len(), 1);
//! ```

pub mod basic;
pub mod explain;
pub mod legality;
pub mod planner;
pub mod policy;
pub mod resources;
pub mod separable;
pub mod synthesis;

pub use basic::{basic_edge_is_fusible, fuse_basic, plan_basic};
pub use explain::{EdgeExplain, PlanTrace};
pub use legality::{check_block, edge_is_legal, BlockInfo, Illegal};
pub use planner::{
    apply_partition, apply_plan, block_legality, compute_edge_weights, fuse_optimized, objective,
    pair_is_legal, pair_verdict, plan_optimized, EdgeInfo, FusionConfig, FusionPlan, FusionResult,
    Trace, TraceEvent,
};
pub use policy::{PlanPolicy, StaticModelPolicy};
pub use resources::{fits_device, resource_check, shared_usage_bytes};
pub use separable::{factor_kernel, factor_pipeline};
pub use synthesis::{absolute_extents, input_access_extents, synthesize};
