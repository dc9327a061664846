//! Observability layer for the `kfuse` workspace: tracing, trace export,
//! metrics exposition, and format validators — with **zero** external
//! dependencies and zero cost when disabled.
//!
//! The fusion paper's contribution is a *decision procedure* (per-edge
//! benefit weights, legality clamps, recursive min-cut bisection); a
//! reproduction that cannot show *why* an edge was fused or cut, or
//! *where* a request's time went, cannot support performance claims. This
//! crate is the shared substrate the other layers record into:
//!
//! * [`tracer`] — [`Tracer`], a lock-cheap, thread-safe span/event
//!   recorder with monotonic microsecond timestamps. The default
//!   [`Tracer::disabled`] state holds no storage and records nothing, so
//!   tracing hooks stay permanently wired into hot paths (the tiled
//!   executor, the serving runtime) without perturbing tier-1 numbers.
//! * [`chrome`] — renders recorded events in the Chrome `trace_event`
//!   JSON format, loadable in `chrome://tracing` and Perfetto.
//! * [`json`] — the single JSON string-escape/number-format helper shared
//!   by every hand-rolled serializer in the workspace, and
//!   [`render_json`], the JSON view of a list of metric [`Family`] values.
//! * [`recorder`] — [`FlightRecorder`], the always-on bounded ring of
//!   completed request span trees with tail-based retention (deadline
//!   misses, errors, and the slow tail survive eviction).
//! * [`prom`] — the metric-family model ([`Family`], [`Sample`]) that
//!   every exporter declares its metrics in once, its Prometheus text
//!   renderer [`render_prometheus`], and the exposition parser and
//!   validator.
//! * [`check`] — std-only strict JSON parser and Chrome-trace validator;
//!   CI round-trips every emitted artifact through these.
//!
//! ```
//! use kfuse_obs::{validate_chrome_trace, Tracer};
//!
//! let tracer = Tracer::enabled();
//! {
//!     let mut span = tracer.span("kernel:blur", "exec");
//!     span.arg("global_load_bytes", 4096u64);
//! }
//! let json = tracer.to_chrome_json();
//! let stats = validate_chrome_trace(&json).unwrap();
//! assert_eq!(stats.spans_with_prefix("kernel:"), 1);
//!
//! // Disabled tracers (the default) record nothing and read no clock.
//! let off = Tracer::disabled();
//! let _ = off.span("never-recorded", "exec");
//! assert!(off.is_empty());
//! ```

pub mod check;
pub mod chrome;
pub mod json;
pub mod prom;
pub mod recorder;
pub mod tracer;

pub use check::{parse_json, validate_chrome_trace, ChromeTraceStats, Json};
pub use chrome::to_chrome_json;
pub use json::{escape_json, fmt_json_f64, push_json_escaped, push_json_string, render_json};
pub use prom::{
    escape_label_value, is_valid_metric_name, parse_prometheus, render_prometheus,
    validate_prometheus, Family, Kind, PromSample, Sample,
};
pub use recorder::{
    ActiveRequest, FlightRecorder, RecorderConfig, RecorderStats, RequestOutcome, RequestRecord,
};
pub use tracer::{current_tid, ArgValue, Event, EventKind, SpanGuard, Tracer};
