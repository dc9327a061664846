//! Execution substrate for the `kfuse` kernel-fusion library.
//!
//! The paper evaluates fused CUDA code on three physical Nvidia GPUs; this
//! crate replaces that testbed with two complementary engines:
//!
//! * [`exec`] — a **functional executor** that runs kernel IR over images
//!   with full border handling, including the index-exchange semantics of
//!   paper Section IV-B for inlined stages. It is the correctness oracle:
//!   fused pipelines must match unfused ones bit-exactly.
//! * [`cost`] + [`timing`] — a **static launch cost analysis** and an
//!   analytic, roofline-style **GPU timing model** parameterized by
//!   [`kfuse_model::GpuSpec`]. Fusion's effect is precisely a change in
//!   where intermediate traffic goes (global → shared/register), extra
//!   recompute, and fewer launches; the model charges exactly those
//!   quantities, preserving the *shape* of the paper's speedups.
//!
//! [`timing::noisy_runs`] adds the measurement-noise protocol used to
//! reproduce the box-plot statistics of Figure 6, and [`micro`] provides a
//! warp-level micro-simulator as a cycle-accurate cross-check of the
//! analytic model (`ablation_microsim`).
//!
//! The functional executor itself has two implementations with
//! bit-identical results:
//!
//! * [`exec::execute_reference`] — the tree-walking interpreter (the
//!   oracle, kept maximally simple);
//! * [`fast`] — the compiled engine behind [`execute`]: stages lowered to
//!   CSE'd instruction [`tape`]s, executed in full-width row strips
//!   ([`tile`]) with halo-plane materialization of inlined stages and
//!   multi-threaded row bands. Per-tap transcendental subexpressions are
//!   staged as planes of their own first ([`hoist`]).
//!
//! For repeated execution of the same pipeline, [`plan::CompiledPlan`]
//! captures the validated/ordered/lowered form once; `kfuse-runtime` caches
//! these plans across requests.

pub mod cost;
pub mod exec;
pub mod fast;
pub mod hoist;
pub mod micro;
pub mod plan;
mod simd;
pub mod tape;
pub mod tile;
pub mod timing;

pub use cost::{analyze_kernel, analyze_pipeline, total_dram_bytes, LaunchCost, ThreadCost};
pub use exec::{execute, execute_kernel, execute_reference, synthetic_image, ExecError, Execution};
pub use fast::{execute_fast, execute_fast_with, FastConfig};
pub use hoist::stage_tap_subexpressions;
pub use micro::{build_trace, MicroSim, MicroTiming, WarpOp};
pub use plan::CompiledPlan;
pub use tape::{compile_stage, Tape};
pub use tile::{
    execute_kernel_compiled, modeled_traffic, CompiledKernel, KernelTraffic, Scratch, TileConfig,
    BAND_TID_BASE,
};
pub use timing::{noisy_runs, KernelTiming, PipelineTiming, RunStats, TimingModel};
