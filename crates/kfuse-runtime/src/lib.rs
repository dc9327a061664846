//! Multi-tenant pipeline-serving runtime for the `kfuse` kernel-fusion
//! library.
//!
//! The fusion paper amortizes work *across kernels*; this crate amortizes
//! work *across requests*. A [`Runtime`] accepts pipeline executions from
//! many tenants, runs the fusion planner and tape lowering **once** per
//! distinct `(pipeline structure, schedule, executor config)` — recognized
//! via [`kfuse_ir::Pipeline::fingerprint`] — and serves every repeat
//! submission from an LRU cache of [`kfuse_sim::CompiledPlan`]s. That is
//! the plan-reuse discipline runtime-fusion systems (e.g. Bohrium's fusion
//! cache) rely on to make fusion pay off under sustained traffic.
//!
//! Architecture (see `DESIGN.md` §3.8):
//!
//! * [`runtime`] — one bounded queue with strict [`Priority`] classes and
//!   round-robin per-tenant lanes, configurable [`Admission`] control
//!   with early load shedding, a `std::thread` worker pool with
//!   per-worker scratch reuse, and graceful draining
//!   [`Runtime::shutdown`];
//! * [`session`] — streaming sessions whose frames run in order through
//!   the same queue and workers;
//! * [`cache`] — the LRU [`PlanCache`] keyed by [`PlanKey`], guarded by an
//!   id-layout hash so structural sharing can never bind a tenant's images
//!   to the wrong slots;
//! * [`metrics`] — per-tenant atomic counters and log-linear latency histograms,
//!   exported as a [`MetricsSnapshot`] with hand-rolled JSON and
//!   Prometheus text exposition (the workspace is zero-external-crate).
//!
//! Serving is traceable end to end: set a recording
//! [`kfuse_obs::Tracer`] in [`RuntimeConfig`] and every request emits
//! `queue_wait`/`plan`/`execute` spans plus the executor's per-kernel and
//! per-band spans, exportable as Chrome `trace_event` JSON. The default
//! tracer is disabled and records nothing.
//!
//! ```
//! use kfuse_dsl::Schedule;
//! use kfuse_runtime::{Runtime, RuntimeConfig};
//! use kfuse_sim::synthetic_image;
//!
//! let (pipeline, input, output) = kfuse_apps_example();
//! let rt = Runtime::new(RuntimeConfig::default());
//! let img = synthetic_image(pipeline.image(input).clone(), 1);
//! let exec = rt
//!     .execute("demo", &pipeline, vec![(input, img)], Schedule::Optimized)
//!     .unwrap();
//! assert!(exec.image(output).is_some());
//! let metrics = rt.metrics();
//! assert_eq!(metrics.pipeline("demo").unwrap().requests, 1);
//! # use kfuse_ir::{BorderMode, Expr, ImageDesc, ImageId, Kernel, Pipeline};
//! # fn kfuse_apps_example() -> (Pipeline, ImageId, ImageId) {
//! #     let mut p = Pipeline::new("demo");
//! #     let input = p.add_input(ImageDesc::new("in", 8, 8, 1));
//! #     let out = p.add_image(ImageDesc::new("out", 8, 8, 1));
//! #     p.add_kernel(Kernel::simple(
//! #         "id", vec![input], out, vec![BorderMode::Clamp],
//! #         vec![Expr::load(0)], vec![],
//! #     ));
//! #     p.mark_output(out);
//! #     (p, input, out)
//! # }
//! ```

pub mod cache;
pub mod metrics;
pub mod runtime;
pub mod session;

pub use cache::{CachedPlan, FingerprintStats, PlanCache, PlanKey};
pub use metrics::{
    LatencyExemplar, LatencyHistogram, MetricsRegistry, MetricsSnapshot, PipelineMetrics,
    PipelineSnapshot, RuntimeGauges,
};
pub use runtime::{Admission, Handle, JobHandle, Priority, Runtime, RuntimeConfig, RuntimeError};
pub use session::{FrameHandle, SessionStats};
