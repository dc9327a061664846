//! Deterministic differential fuzzing for the `kfuse` workspace.
//!
//! Six hand-written applications are a thin oracle for a system whose
//! whole claim is *semantics-preserving* fusion. This crate closes the gap
//! with adversarial coverage, dependency-free and replayable from a single
//! `u64` seed:
//!
//! * [`gen`] — a [`SplitMix64`]-seeded generator of random valid pipelines,
//!   biased toward degenerate images, radius ≥ dimension masks, every
//!   border mode, multi-channel images, pre-fused multi-stage kernels, and
//!   the Figure 2 topologies;
//! * [`diff`] — the differential harness: reference interpreter vs fast
//!   executor (several strip heights) vs [`kfuse_sim::CompiledPlan`] (plain
//!   and traced) vs every fusion schedule vs a warm-cache
//!   [`kfuse_runtime::Runtime`] round trip, all bit-identical;
//! * [`invariants`] — the planner audit: proper partition, block legality,
//!   Eq. 12 clamping exactness, finite positive min-cut weights, Eq. 13
//!   weight conservation, Eq. 1 objective consistency;
//! * [`stream`] — the temporal harness: random streaming pipelines with
//!   bounded `prev_frame(k)` depth, stepped through a session under every
//!   fusion schedule and checked frame for frame against the streaming
//!   oracle;
//! * [`wire`] — the `kfuse-net` frame-codec harness: random frames of
//!   all 14 types through encode → decode → re-encode for bit-identity, plus
//!   single-byte corruption probes that must never panic.
//!
//! The `fuzz` bin in `kfuse-bench` drives seed sweeps
//! (`fuzz --seeds 1024`); failing seeds are [`shrink`]-minimized and
//! checked in as named regression tests (`tests/fuzz_regressions.rs`).
//! See `DESIGN.md` §3.10 for the architecture and workflow.

pub mod diff;
pub mod gen;
pub mod invariants;
pub mod rng;
pub mod stream;
pub mod wire;

pub use diff::{differential, make_inputs, Failure};
pub use gen::{generate, generate_with, GenConfig};
pub use invariants::check_invariants;
pub use rng::SplitMix64;
pub use stream::{check_stream, check_stream_seed, generate_stream, StreamReport};
pub use wire::{check_wire_seed, generate_frame};

use kfuse_ir::Pipeline;
use kfuse_model::GpuSpec;

/// Shape summary of a checked seed, for sweep logging.
#[derive(Clone, Copy, Debug)]
pub struct SeedReport {
    /// Kernels in the generated pipeline.
    pub kernels: usize,
    /// Images (inputs + intermediates + outputs).
    pub images: usize,
    /// Marked pipeline outputs.
    pub outputs: usize,
}

/// Runs the full harness (differential + planner invariants) on an
/// explicit pipeline. `seed` only determines the input images.
pub fn check_pipeline(p: &Pipeline, seed: u64) -> Result<(), Failure> {
    differential(p, seed)?;
    let cfg = kfuse_dsl::default_config(GpuSpec::gtx680());
    check_invariants(p, &cfg)
}

/// Generates the pipeline for `seed` and runs the full harness on it.
pub fn check_seed(seed: u64) -> Result<SeedReport, Failure> {
    let p = generate(seed);
    check_pipeline(&p, seed)?;
    Ok(SeedReport {
        kernels: p.kernels().len(),
        images: p.images().len(),
        outputs: p.outputs().len(),
    })
}

/// Greedily minimizes a failing pipeline: repeatedly drops sink kernels
/// (kernels no other kernel consumes) while `still_fails` keeps returning
/// `true`, then reports the smallest failing pipeline found.
///
/// Dropping only sinks keeps the DAG closed under producers, so every
/// candidate is still a valid pipeline. Output marks of removed images are
/// retained but harmless: no execution path materializes them, and the
/// harness treats both-missing as agreement.
pub fn shrink(p: &Pipeline, still_fails: impl Fn(&Pipeline) -> bool) -> Pipeline {
    let mut current = p.clone();
    'outer: loop {
        let n = current.kernels().len();
        if n <= 1 {
            return current;
        }
        for drop in (0..n).rev() {
            let out = current.kernels()[drop].output;
            let consumed = current
                .kernels()
                .iter()
                .enumerate()
                .any(|(i, k)| i != drop && k.inputs.contains(&out));
            if consumed {
                continue;
            }
            let kernels: Vec<_> = current
                .kernels()
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, k)| k.clone())
                .collect();
            let candidate = current.with_kernels(kernels);
            if candidate.validate().is_ok() && still_fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel};

    /// Shrinking preserves the failure predicate and only drops sinks.
    #[test]
    fn shrink_drops_unconsumed_kernels() {
        let mut p = Pipeline::new("s");
        let input = p.add_input(ImageDesc::new("in", 4, 4, 1));
        let mid = p.add_image(ImageDesc::new("mid", 4, 4, 1));
        let o1 = p.add_image(ImageDesc::new("o1", 4, 4, 1));
        let o2 = p.add_image(ImageDesc::new("o2", 4, 4, 1));
        for (name, src, dst) in [("a", input, mid), ("b", mid, o1), ("c", mid, o2)] {
            p.add_kernel(Kernel::simple(
                name,
                vec![src],
                dst,
                vec![BorderMode::Clamp],
                vec![Expr::load(0) + Expr::Const(1.0)],
                vec![],
            ));
        }
        p.mark_output(o1);
        p.mark_output(o2);
        // Pretend the failure only needs kernel "b".
        let shrunk = shrink(&p, |q| q.kernels().iter().any(|k| k.name == "b"));
        let names: Vec<&str> = shrunk.kernels().iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(shrunk.validate().is_ok());
    }

    /// A small sweep of `check_seed` runs clean end to end. The broad
    /// sweep lives in the `fuzz` bin and CI; regression seeds live in
    /// `tests/fuzz_regressions.rs`.
    #[test]
    fn smoke_sweep_passes() {
        for seed in 0..8 {
            if let Err(f) = check_seed(seed) {
                panic!("seed {seed} failed: {f}");
            }
        }
    }
}
