//! The CPU execution engine of the `kfuse` kernel-fusion library.
//!
//! The paper evaluates fused CUDA code on three Nvidia GPUs; that model
//! lives in `kfuse-paper`. This crate runs the same kernel IR on the host
//! CPU, with full border handling, including the index-exchange
//! semantics of paper Section IV-B for inlined stages. It has two
//! implementations with bit-identical results:
//!
//! * [`exec::execute_reference`] — the tree-walking interpreter (the
//!   correctness oracle, kept maximally simple: fused pipelines must match
//!   unfused ones bit-exactly);
//! * [`fast`] — the compiled engine behind [`execute`]: stages lowered to
//!   CSE'd instruction [`tape`]s, executed in full-width row strips
//!   ([`tile`]) with halo-plane materialization of inlined stages and
//!   multi-threaded row bands. Per-tap transcendental subexpressions are
//!   staged as planes of their own first ([`hoist`]).
//!
//! For repeated execution of the same pipeline, [`plan::CompiledPlan`]
//! captures the validated/ordered/lowered form once; `kfuse-runtime` caches
//! these plans across requests.

pub mod exec;
pub mod fast;
pub mod hoist;
pub mod plan;
mod simd;
pub mod tape;
pub mod tile;

pub use exec::{execute, execute_kernel, execute_reference, synthetic_image, ExecError, Execution};
pub use fast::{execute_fast, execute_fast_with, FastConfig};
pub use hoist::stage_tap_subexpressions;
pub use plan::CompiledPlan;
pub use tape::{compile_stage, Tape};
pub use tile::{
    execute_kernel_compiled, modeled_traffic, CompiledKernel, KernelTraffic, Scratch, TileConfig,
    BAND_TID_BASE,
};
