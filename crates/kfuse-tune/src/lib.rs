//! Feedback-directed planning for the `kfuse` workspace: close the loop
//! from *observed* execution behavior back into *planning* decisions.
//!
//! The fusion paper prices every decision with an analytic model over
//! data-sheet constants. That model is a prediction, and predictions
//! miss: PR 6 measured the "optimized" schedule *losing* to no fusion on
//! one app on this host. Following the runtime-fusion line of related
//! work (PAPERS.md, "Fusion of Array Operations at Runtime"), this crate
//! supplies the measured counterweight, in three layers:
//!
//! * [`measure`] — median-of-N timing with a reported relative spread and
//!   an adaptive stopping rule; the shared measurement vocabulary of the
//!   benches and the tuner (single timings are how phantom regressions
//!   are born).
//! * [`calibrate`] — [`Calibrator`] fits effective δ/φ-style cost
//!   constants ([`kfuse_model::CostConstants`]) from per-kernel profile
//!   observations ([`kfuse_obs::KernelObservation`]) by non-negative
//!   least squares; the result plugs into
//!   [`kfuse_core::MeasuredPolicy`] and is differential-tested against
//!   [`kfuse_core::StaticModelPolicy`].
//! * [`mod@autotune`] — empirical search over schedule × strip height
//!   (× optionally the separable rewrite) per
//!   `(fingerprint, size-class)` [`TuneKey`], with **bit identity versus
//!   the reference interpreter as a hard oracle**: tuning may change
//!   which plan runs, never its output. [`persist`] round-trips winners
//!   through a text file so warm tenants survive restarts.
//!
//! Like every crate in this workspace, `kfuse-tune` has **zero external
//! dependencies** (enforced by a CI grep gate).

pub mod autotune;
pub mod calibrate;
pub mod measure;
pub mod persist;

pub use autotune::{
    autotune, output_pixels, probe_inputs, schedule_from_tag, schedule_tag, size_class_of, Choice,
    Measured, TuneError, TuneKey, TuneOptions, TuneResult,
};
pub use calibrate::{CalibrationFit, Calibrator, MIN_OBSERVATIONS};
pub use measure::{measure_median, measure_until, summarize, Sample};
pub use persist::{from_text, load, save, to_text, TunedEntry, HEADER};

/// Why a calibration attempt produced no constants.
#[derive(Clone, Debug, PartialEq)]
pub enum CalibrationError {
    /// Not enough observations to fit four coefficients meaningfully.
    TooFewObservations {
        /// Observations available.
        have: usize,
        /// Observations required ([`MIN_OBSERVATIONS`]).
        need: usize,
    },
    /// The observations cannot identify any coefficient (all resource
    /// volumes zero, or the fit collapsed to all-zero costs).
    Degenerate,
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::TooFewObservations { have, need } => {
                write!(f, "too few observations to calibrate: {have} < {need}")
            }
            CalibrationError::Degenerate => {
                write!(f, "observations cannot identify any cost coefficient")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}
