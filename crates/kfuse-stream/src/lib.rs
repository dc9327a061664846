//! Temporal streaming sessions: multi-frame pipelines with
//! frame-to-frame state reuse.
//!
//! The paper's six applications are single-frame; real serving workloads
//! are video. This crate adds the temporal layer on top of the per-frame
//! machinery, following the runtime-fusion framing of "Fusion of Array
//! Operations at Runtime" (PAPERS.md): plan once per *stream*, execute
//! per *frame*.
//!
//! * [`StreamPipeline`] wraps an ordinary per-frame [`Pipeline`] with a
//!   set of [`StateBinding`]s: each binding feeds a declared pipeline
//!   input (the **tap**) with a previous frame's value of a pipeline
//!   output or input (the **source**) at temporal depth `k ≥ 1` —
//!   `prev_frame(k)`. Frames before the stream warms up read zero images.
//! * [`StreamBuilder`] is the DSL entry point: build the frame body with
//!   the usual `kfuse-dsl` combinators, declare taps with
//!   [`StreamBuilder::prev_frame`], bind them on `build`.
//! * [`StreamSession`] executes the stream frame by frame against a
//!   compiled plan, recycling state planes **without copies**: frame N's
//!   tap images are frame N−k's materialized planes, moved (not cloned)
//!   out of the finished execution and back in as owned inputs.
//! * [`run_reference`] is the oracle: the same stream stepped through the
//!   tree-walking reference interpreter with naive cloning. Every session
//!   frame must match it bit for bit, under every schedule.
//!
//! Fingerprinting covers temporal structure: two streams with the same
//! per-frame body but different tap depths or sources get different
//! [`StreamPipeline::fingerprint`]s, so plan/session caches never mix
//! them.

pub mod builder;
pub mod pipeline;
pub mod session;

pub use builder::StreamBuilder;
pub use pipeline::{StateBinding, StateSource, StreamError, StreamPipeline, MAX_PREV_DEPTH};
pub use session::{run_reference, FrameOutput, StreamSession};

pub use kfuse_ir::{Image, ImageId, Pipeline};
