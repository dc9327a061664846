//! The paper crate: everything that models or targets the GPUs of the
//! paper's evaluation, kept apart from the CPU engine (`kfuse-sim`) and the
//! serving path (`kfuse-runtime`, `kfuse-net`, `kfuse-stream`), none of
//! which depends on it.
//!
//! * [`cuda`], [`expr`], [`host`] — CUDA source emission, the
//!   source-to-source half of the reproduction. Hipacc rewrites the kernel
//!   DAG and its CUDA backend emits `__global__` functions, shared-memory
//!   staging and host launch code; [`cuda::emit_kernel`] emits one
//!   `__global__` function per (possibly fused) kernel — cooperative
//!   shared-tile fills with border handling, `__shared__` tiles for
//!   local-to-local intermediates, `__device__` functions for register
//!   stages (the recompute of Eq. 7) and explicit **index-exchange** calls
//!   (`kf_border_*`) for halo accesses to inlined producers (Section IV-B);
//!   [`host::emit_module`] adds launchers, a topological runner and a
//!   timing `main()` that follows the artifact's measurement protocol.
//!   There is no CUDA toolchain here, so the emitted source is validated
//!   structurally and, semantically, through `kfuse-sim`, which interprets
//!   the same IR the emitter walks.
//! * [`cost`] + [`timing`] — a static launch cost analysis and an
//!   analytic, roofline-style GPU timing model parameterized by
//!   [`kfuse_model::GpuSpec`]. Fusion's effect is a change in where
//!   intermediate traffic goes (global → shared/register), extra
//!   recompute and fewer launches; the model charges exactly those, which
//!   preserves the *shape* of the paper's speedups. [`timing::noisy_runs`]
//!   adds the measurement-noise protocol behind Figure 6's box plots.
//! * [`micro`] — a warp-level micro-simulator, the cycle-level cross-check
//!   of the analytic model (`ablation_microsim`).
//! * [`greedy`] — a PolyMage/Halide-style heaviest-edge-first grouping,
//!   the comparator of `ablation_greedy`.
//! * [`eval`] — the evaluation matrix: six apps × three GPUs × three
//!   versions.
//! * [`repro`] — one function per table, figure and ablation, returning
//!   the text its binary prints; a golden test pins all ten to
//!   `results/*.txt`.
//!
//! # Example
//!
//! ```
//! use kfuse_paper::emit_module;
//! use kfuse_model::BlockShape;
//! use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel, Pipeline};
//!
//! let mut p = Pipeline::new("demo");
//! let input = p.add_input(ImageDesc::new("in", 64, 64, 1));
//! let out = p.add_image(ImageDesc::new("out", 64, 64, 1));
//! p.add_kernel(Kernel::simple(
//!     "dbl", vec![input], out, vec![BorderMode::Clamp],
//!     vec![Expr::load(0) * Expr::Const(2.0)], vec![],
//! ));
//! p.mark_output(out);
//! let cu = emit_module(&p, BlockShape::DEFAULT, 500);
//! assert!(cu.contains("__global__ void kf_dbl"));
//! ```

pub mod cost;
pub mod cuda;
pub mod eval;
pub mod expr;
pub mod greedy;
pub mod host;
pub mod micro;
pub mod repro;
pub mod timing;

pub use cost::{analyze_kernel, analyze_pipeline, total_dram_bytes, LaunchCost, ThreadCost};
pub use cuda::{c_ident, emit_kernel, prelude};
pub use eval::{
    app_names, eval_config, evaluate_all, evaluate_cell, find, geomean_rows, short_gpu_name,
    speedup, speedup_table, Cell, RUNS,
};
pub use expr::{emit_expr, float_lit, LoadEmitter};
pub use greedy::{fuse_greedy, plan_greedy};
pub use host::{emit_launchers, emit_module, emit_runner};
pub use micro::{build_trace, MicroSim, MicroTiming, WarpOp};
pub use timing::{noisy_runs, KernelTiming, PipelineTiming, RunStats, TimingModel};
