//! The autotuner: empirical search over execution configurations.
//!
//! The planner's analytic model picks one configuration; the autotuner
//! *measures* the alternatives. Per `(pipeline fingerprint, size-class)`
//! key it sweeps schedule × strip height (× optionally the separable
//! rewrite), timing each candidate with the noise-aware rule of
//! [`crate::measure`] and keeping the fastest.
//!
//! Correctness is non-negotiable: every candidate's output is compared
//! **bit for bit** against [`kfuse_sim::execute_reference`] on the probe
//! inputs before it is timed; candidates that disagree (the separable
//! rewrite reassociates floating point, so it usually does) are rejected
//! outright. Tuning may change *which* plan runs — never what it computes.

use crate::measure::{measure_paired, measure_until, Paired, Sample};
use kfuse_core::FusionConfig;
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_obs::Tracer;
use kfuse_sim::{execute_reference, synthetic_image, CompiledPlan, Execution, FastConfig, Scratch};

/// What the autotuner tunes *for*: one pipeline structure at one
/// workload-size bucket. Structures come from
/// [`Pipeline::fingerprint`]; sizes are bucketed by [`size_class_of`]
/// (power-of-two pixel-count classes) so a tuning result generalizes to
/// nearby sizes without claiming to cover all of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// Structural pipeline fingerprint.
    pub fingerprint: u64,
    /// `floor(log2(total output pixels))`, 0 for empty outputs.
    pub size_class: u8,
}

impl TuneKey {
    /// The key for `p` at its declared image sizes.
    pub fn for_pipeline(p: &Pipeline) -> Self {
        Self {
            fingerprint: p.fingerprint(),
            size_class: size_class_of(output_pixels(p)),
        }
    }
}

/// Total pixels over all declared outputs of `p`.
pub fn output_pixels(p: &Pipeline) -> u64 {
    p.outputs()
        .iter()
        .map(|&id| {
            let d = p.image(id);
            (d.width * d.height) as u64
        })
        .sum()
}

/// Power-of-two size bucket: `floor(log2(pixels))`, 0 for 0 or 1.
pub fn size_class_of(pixels: u64) -> u8 {
    if pixels < 2 {
        0
    } else {
        (63 - pixels.leading_zeros() as u8).min(63)
    }
}

/// One point in the search space: how to compile and how to execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Choice {
    /// Fusion schedule to compile under.
    pub schedule: Schedule,
    /// Whether the separable mask factorization is applied at compile
    /// time (changes FP association — must survive the identity oracle).
    pub separable: bool,
    /// Executor strip height; `None` lets the executor derive it.
    pub strip_rows: Option<usize>,
}

impl Choice {
    /// The static planner's pick: optimized schedule, derived strip
    /// height, no separable rewrite.
    pub fn static_default() -> Self {
        Self {
            schedule: Schedule::Optimized,
            separable: false,
            strip_rows: FastConfig::default().strip_rows,
        }
    }

    /// The execution configuration of this choice (threads left at the
    /// executor default — thread count is a deployment property, not a
    /// per-pipeline tunable).
    pub fn fast_config(&self) -> FastConfig {
        FastConfig {
            strip_rows: self.strip_rows,
            ..FastConfig::default()
        }
    }

    /// Compiles `p` under this choice's schedule/rewrite flags.
    pub fn compile(&self, p: &Pipeline, base: &FusionConfig) -> Pipeline {
        let cfg = if self.separable {
            base.clone().with_separable()
        } else {
            base.clone()
        };
        kfuse_dsl::compile(p, self.schedule, &cfg)
    }

    /// Compact human label, e.g. `optimized+sep auto` or `basic 64`.
    pub fn label(&self) -> String {
        format!(
            "{}{} {}",
            schedule_tag(self.schedule),
            if self.separable { "+sep" } else { "" },
            strip_tag(self.strip_rows),
        )
    }
}

/// One-word label per strip height: the row count, or `auto` for the
/// derived height.
fn strip_tag(strip_rows: Option<usize>) -> String {
    strip_rows.map_or_else(|| "auto".into(), |n| n.to_string())
}

/// One-word label per schedule.
pub fn schedule_tag(s: Schedule) -> &'static str {
    match s {
        Schedule::Baseline => "baseline",
        Schedule::Basic => "basic",
        Schedule::Optimized => "optimized",
    }
}

/// Search-space and measurement knobs.
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Timed repeats per candidate before the spread check.
    pub min_repeats: usize,
    /// Hard ceiling on repeats per candidate.
    pub max_repeats: usize,
    /// Relative spread below which a measurement is considered settled.
    pub target_spread: f64,
    /// Whether separable-rewrite candidates enter the search. They must
    /// still pass the bit-identity oracle on the probe inputs, which only
    /// masks that factor *exactly* (e.g. binomial masks) survive — on
    /// that input: one probe input proves nothing about other inputs.
    pub include_separable: bool,
    /// Strip heights to sweep.
    pub strips: Vec<Option<usize>>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self {
            min_repeats: 3,
            max_repeats: 9,
            target_spread: 0.10,
            include_separable: false,
            strips: vec![None, Some(8), Some(64)],
        }
    }
}

impl TuneOptions {
    /// A cheap variant for smoke tests and CI: the derived strip height
    /// only, minimal repeats.
    pub fn smoke() -> Self {
        Self {
            min_repeats: 1,
            max_repeats: 2,
            target_spread: 1.0,
            include_separable: false,
            strips: vec![None],
        }
    }

    /// The full candidate list, deterministic order. Baseline/basic
    /// schedules participate: when the min-cut plan loses to no fusion on
    /// this host (the Enhance case), the tuner must be allowed to say so.
    pub fn candidates(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        for &schedule in &Schedule::ALL {
            let seps: &[bool] = if self.include_separable && schedule != Schedule::Baseline {
                &[false, true]
            } else {
                &[false]
            };
            for &separable in seps {
                for &strip_rows in &self.strips {
                    out.push(Choice {
                        schedule,
                        separable,
                        strip_rows,
                    });
                }
            }
        }
        out
    }
}

/// One measured candidate.
#[derive(Clone, Debug)]
pub struct Measured {
    /// The candidate.
    pub choice: Choice,
    /// Its timing summary.
    pub sample: Sample,
}

/// The autotuner's verdict for one [`TuneKey`].
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// What was tuned.
    pub key: TuneKey,
    /// The fastest bit-identical candidate.
    pub best: Choice,
    /// Its timing.
    pub best_sample: Sample,
    /// Every candidate that passed the oracle, fastest first.
    pub measured: Vec<Measured>,
    /// Candidates rejected for disagreeing with the reference bit-for-bit.
    pub rejected: usize,
    /// `best` re-timed against [`Choice::static_default`] in `max_repeats`
    /// alternating pairs — the verdict to quote; the search's medians are
    /// a best-of-N selection. `None` when the static default won or did
    /// not survive the oracle.
    pub versus_static: Option<Paired>,
}

/// Why tuning produced no result.
#[derive(Clone, Debug, PartialEq)]
pub enum TuneError {
    /// The reference interpreter failed on the probe inputs.
    ReferenceFailed(String),
    /// No candidate both executed and matched the reference.
    NoViableCandidate,
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::ReferenceFailed(e) => write!(f, "reference execution failed: {e}"),
            TuneError::NoViableCandidate => write!(f, "no candidate matched the reference"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Deterministic probe inputs for tuning `p` off the request path.
pub fn probe_inputs(p: &Pipeline, seed: u64) -> Vec<(ImageId, Image)> {
    p.inputs()
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let s = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (id, synthetic_image(p.image(id).clone(), s))
        })
        .collect()
}

fn outputs_bit_identical(p: &Pipeline, reference: &Execution, got: &Execution) -> bool {
    p.outputs()
        .iter()
        .all(|&out| match (reference.image(out), got.image(out)) {
            (Some(a), Some(b)) => a.bit_equal(b),
            (None, None) => true,
            _ => false,
        })
}

/// Tunes `p` on the given probe inputs.
///
/// Every candidate is compiled once, executed, and compared bit-for-bit
/// against the reference interpreter; only identical candidates are
/// timed. Measurement uses the adaptive spread rule, and the contenders
/// within noise of the provisional winner are re-measured at the repeat
/// ceiling before the final pick — spending repeats exactly where the
/// decision is close. The winner is then re-timed against the static
/// default in alternating pairs ([`TuneResult::versus_static`]).
pub fn autotune(
    p: &Pipeline,
    inputs: &[(ImageId, Image)],
    base: &FusionConfig,
    opts: &TuneOptions,
) -> Result<TuneResult, TuneError> {
    let reference =
        execute_reference(p, inputs).map_err(|e| TuneError::ReferenceFailed(e.to_string()))?;
    let mut rejected = 0usize;
    let mut measured: Vec<Measured> = Vec::new();
    let mut survivors: Vec<(Choice, CompiledPlan)> = Vec::new();
    for choice in opts.candidates() {
        let plan = CompiledPlan::compile(&choice.compile(p, base));
        let cfg = choice.fast_config();
        match plan.and_then(|plan| plan.execute(inputs, &cfg).map(|exec| (exec, plan))) {
            Ok((exec, plan)) if outputs_bit_identical(p, &reference, &exec) => {
                survivors.push((choice, plan));
            }
            _ => rejected += 1,
        }
    }
    let run = |choice: &Choice, plan: &CompiledPlan, scratch: &mut Scratch| {
        let exec = plan.run(
            inputs.to_vec(),
            &choice.fast_config(),
            scratch,
            &Tracer::disabled(),
        );
        std::hint::black_box(exec.expect("oracle-checked candidate"));
    };
    let plan_of = |choice: &Choice| survivors.iter().find(|(c, _)| c == choice).map(|(_, p)| p);
    let mut scratch = Scratch::default();
    for (choice, plan) in &survivors {
        let sample = measure_until(
            opts.min_repeats,
            opts.max_repeats,
            opts.target_spread,
            || run(choice, plan, &mut scratch),
        );
        measured.push(Measured {
            choice: *choice,
            sample,
        });
    }
    if measured.is_empty() {
        return Err(TuneError::NoViableCandidate);
    }
    measured.sort_by(|a, b| {
        a.sample
            .median_s
            .partial_cmp(&b.sample.median_s)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // Re-measure the leaders that are within noise of each other at the
    // repeat ceiling, if the initial pass could not separate them.
    if opts.max_repeats > opts.min_repeats && measured.len() > 1 {
        let leader = measured[0].sample;
        let contended: Vec<usize> = (0..measured.len())
            .filter(|&i| !leader.clearly_faster_than(&measured[i].sample))
            .collect();
        if contended.len() > 1 {
            for &i in &contended {
                let choice = measured[i].choice;
                let plan = plan_of(&choice).expect("measured candidate came from survivors");
                measured[i].sample = measure_until(opts.max_repeats, opts.max_repeats, 0.0, || {
                    run(&choice, plan, &mut scratch)
                });
            }
            measured.sort_by(|a, b| {
                a.sample
                    .median_s
                    .partial_cmp(&b.sample.median_s)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
    }
    let best = measured[0].choice;
    let best_sample = measured[0].sample;
    let fixed = Choice::static_default();
    let mut fixed_scratch = Scratch::default();
    let versus_static = match (plan_of(&best), plan_of(&fixed)) {
        (Some(best_plan), Some(fixed_plan)) if best != fixed => Some(measure_paired(
            opts.max_repeats,
            || run(&best, best_plan, &mut scratch),
            || run(&fixed, fixed_plan, &mut fixed_scratch),
        )),
        _ => None,
    };
    Ok(TuneResult {
        key: TuneKey::for_pipeline(p),
        best,
        best_sample,
        measured,
        rejected,
        versus_static,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_dsl::default_config;
    use kfuse_model::GpuSpec;
    use kfuse_sim::execute_fast_with;

    fn small_app() -> Pipeline {
        // Sobel at a small size: multi-kernel, local windows, realistic.
        let app = kfuse_apps::paper_apps()
            .into_iter()
            .find(|a| a.name == "Sobel")
            .unwrap();
        (app.build_sized)(48, 40)
    }

    #[test]
    fn size_classes_bucket_by_log2() {
        assert_eq!(size_class_of(0), 0);
        assert_eq!(size_class_of(1), 0);
        assert_eq!(size_class_of(2), 1);
        assert_eq!(size_class_of(1 << 20), 20);
        assert_eq!(size_class_of((1 << 20) + 5), 20);
        assert_eq!(size_class_of(u64::MAX), 63);
    }

    #[test]
    fn candidate_space_shape() {
        let opts = TuneOptions::default();
        let n = opts.candidates().len();
        // 3 schedules × 3 strip heights, no separable by default.
        assert_eq!(n, 9);
        // The static default is a candidate, so tuned ≥ static holds by
        // construction.
        assert!(opts.candidates().contains(&Choice::static_default()));
        let mut with_sep = opts.clone();
        with_sep.include_separable = true;
        // + (basic, optimized) × 3 strip heights.
        assert_eq!(with_sep.candidates().len(), 15);
    }

    #[test]
    fn choice_labels() {
        assert_eq!(Choice::static_default().label(), "optimized auto");
    }

    #[test]
    fn autotune_finds_a_bit_identical_winner() {
        let p = small_app();
        let inputs = probe_inputs(&p, 7);
        let base = default_config(GpuSpec::gtx680());
        let mut opts = TuneOptions::smoke();
        opts.strips = vec![None, Some(5)];
        let result = autotune(&p, &inputs, &base, &opts).unwrap();
        assert!(!result.measured.is_empty());
        assert_eq!(result.key, TuneKey::for_pipeline(&p));
        // The winner, re-executed, is still bit-identical to the reference.
        let reference = execute_reference(&p, &inputs).unwrap();
        let compiled = result.best.compile(&p, &base);
        let exec = execute_fast_with(&compiled, &inputs, &result.best.fast_config()).unwrap();
        assert!(outputs_bit_identical(&p, &reference, &exec));
        // Winner is first in the measured list and at least as fast.
        assert_eq!(result.measured[0].choice, result.best);
        for m in &result.measured[1..] {
            assert!(m.sample.median_s >= result.best_sample.median_s);
        }
        // A winner other than the static default carries a paired verdict
        // over `max_repeats` pairs.
        let pairs = (result.best != Choice::static_default()).then_some(opts.max_repeats);
        assert_eq!(result.versus_static.map(|v| v.pairs), pairs);
    }

    #[test]
    fn separable_candidates_face_the_oracle() {
        // Unsharp contains a binomial gaussian: its factorization is one
        // of the few that *can* be bit-identical; whether it survives is
        // decided by the oracle, not assumed. Either way the tuner must
        // return a winner and count rejections consistently.
        let app = kfuse_apps::paper_apps()
            .into_iter()
            .find(|a| a.name == "Unsharp")
            .unwrap();
        let p = (app.build_sized)(40, 32);
        let inputs = probe_inputs(&p, 3);
        let base = default_config(GpuSpec::gtx680());
        let mut opts = TuneOptions::smoke();
        opts.include_separable = true;
        let result = autotune(&p, &inputs, &base, &opts).unwrap();
        assert_eq!(
            result.measured.len() + result.rejected,
            opts.candidates().len()
        );
    }
}
