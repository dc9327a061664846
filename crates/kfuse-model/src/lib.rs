//! Architecture and benefit models for the `kfuse` kernel-fusion library.
//!
//! This crate implements the quantitative half of Qiao et al. (CGO 2019):
//!
//! * [`GpuSpec`] — the simplified GPU hardware model of Section II-C2
//!   (registers / shared memory / global memory with cycle costs, plus the
//!   machine facts the timing simulator needs), with presets for the three
//!   evaluation GPUs: GeForce GTX 745, GeForce GTX 680, and Tesla K20c.
//! * [`BenefitModel`] — the analytic benefit-estimation model of Section
//!   II-C: locality improvements `δ` (Eqs. 3–4), producer arithmetic cost
//!   (Eq. 6), redundant-computation costs `φ` (Eqs. 7 and 10), fused-window
//!   growth `g` (Eq. 9), and the final clamped edge weight (Eq. 12).
//!
//! The model is deliberately separated from the legality analysis (which
//! lives in `kfuse-core`): the paper computes a weight for *every* edge, and
//! the legality verdict only selects between the `ε` clamp and the scenario
//! formulas.

pub mod benefit;
pub mod gpu;

pub use benefit::{
    cost_op, delta_register, delta_shared, eq9_fused_window, phi_local_to_local,
    phi_point_to_local, BenefitModel, ClampReason, EdgeEstimate, FusionScenario, IsMode,
    L2LRecompute,
};
pub use gpu::{BlockShape, GpuSpec};
