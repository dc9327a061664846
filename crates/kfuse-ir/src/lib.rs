//! Kernel intermediate representation for the `kfuse` kernel-fusion library.
//!
//! This crate models image-processing pipelines the way the fusion pass of
//! Qiao et al. (CGO 2019) sees them inside the Hipacc compiler:
//!
//! * [`ImageDesc`]/[`Image`] — constant-size, multi-channel `f32` images
//!   ([`image`]).
//! * [`BorderMode`] — out-of-bounds handling for stencil accesses: clamp,
//!   mirror, repeat, or a constant ([`border`]). The paper's index-exchange
//!   method (Section IV-B) is built on [`BorderMode::resolve`].
//! * [`Expr`] — scalar expression trees with *static-offset* loads
//!   ([`expr`]). A local operator (e.g. a 3×3 convolution) is an unrolled
//!   expression of nine loads, so a kernel's convolution-mask extent is
//!   **derived** from its accesses rather than declared; mask growth under
//!   fusion (paper Eq. 9) falls out of expression composition naturally.
//! * [`Kernel`] — a kernel is a DAG of [`Stage`]s ([`kernel`]). An unfused
//!   kernel has exactly one stage; fusion inlines producer kernels as
//!   additional stages whose results live in registers or shared memory.
//!   This uniform shape lets one executor and one cost analyzer handle both
//!   unfused and fused kernels.
//! * [`Pipeline`] — a validated DAG of kernels over images ([`pipeline`]),
//!   with the producer/consumer queries the legality analysis needs.
//! * [`Pipeline::fingerprint`] — a stable structural identity, independent
//!   of names and insertion order, used by plan caches to recognize repeat
//!   submissions of the same computation ([`fingerprint`]).
//! * [`math`] — the one definition of `exp`, `ln` and `pow` that every
//!   evaluator of the IR calls, scalar or vectorized.
//!
//! Apart from the scalar semantics of its operators ([`BinOp::apply`],
//! [`UnOp::apply`], [`math`]) the crate is structural: evaluation lives in
//! `kfuse-sim`, cost and benefit models in `kfuse-model`, and the fusion
//! transformation itself in `kfuse-core`.

pub mod border;
pub mod expr;
pub mod fingerprint;
pub mod image;
pub mod kernel;
pub mod math;
pub mod pipeline;
pub mod print;
pub mod stencil;

pub use border::BorderMode;
pub use expr::{BinOp, Expr, OpCounts, UnOp};
pub use image::{Image, ImageDesc, ImageId};
pub use kernel::{ComputePattern, Kernel, KernelId, MemSpace, Stage, StageRef};
pub use pipeline::{Pipeline, PipelineError};
pub use stencil::{
    extract_stencil, separable_op_counts, stage_factorization, Factorization, Stencil,
};
