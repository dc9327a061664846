//! The offline measurement instrument of the `kfuse` workspace: time what
//! the planner's analytic model did not pick.
//!
//! The fusion paper prices every decision with an analytic model over
//! data-sheet constants. That model is a prediction, and predictions
//! miss: PR 6 measured the "optimized" schedule *losing* to no fusion on
//! one app on this host. This crate measures the alternatives, offline —
//! the online feedback loop that once lived here lost a paired A/B
//! (EXPERIMENTS.md, "Negative result: online retuning and NNLS
//! calibration") — in two layers:
//!
//! * [`measure`] — median-of-N timing with a reported relative spread and
//!   an adaptive stopping rule; the shared measurement vocabulary of the
//!   benches and the tuner (single timings are how phantom regressions
//!   are born), plus the paired verdict ([`measure_paired`]).
//! * [`mod@autotune`] — empirical search over schedule × strip height
//!   (× optionally the separable rewrite) per
//!   `(fingerprint, size-class)` [`TuneKey`], with **bit identity versus
//!   the reference interpreter as a hard oracle**: tuning may change
//!   which plan runs, never its output. The verdict to quote is the
//!   winner re-timed against the static default in alternating pairs.
//!
//! Like every crate in this workspace, `kfuse-tune` has **zero external
//! dependencies** (enforced by a CI grep gate).

pub mod autotune;
pub mod measure;

pub use autotune::{
    autotune, output_pixels, probe_inputs, schedule_tag, size_class_of, Choice, Measured,
    TuneError, TuneKey, TuneOptions, TuneResult,
};
pub use measure::{
    measure_median, measure_paired, measure_until, paired_verdict, summarize, Paired, Sample,
};
