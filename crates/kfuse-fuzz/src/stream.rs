//! Temporal fuzzing: random valid **streaming pipelines** with bounded
//! `prev_frame(k)` depth, checked frame for frame against the streaming
//! oracle.
//!
//! The spatial generator ([`crate::gen`]) covers one frame; this module
//! lifts its pipelines over time. Each seed grows a random base pipeline,
//! then grafts 1–2 temporal state taps onto it: a new input whose plane
//! the session carries from frame N−k, consumed by a new kernel whose
//! output is (usually) the state's own source — a genuine feedback loop,
//! the shape where a moved-instead-of-copied plane or an off-by-one ring
//! rotation corrupts every later frame. Depths are drawn from
//! `{1, 1, 2, 3, MAX_PREV_DEPTH}`, so warmup (zero initial state) and the
//! deepest legal ring are both swept.
//!
//! [`check_stream_seed`] steps the generated stream through a
//! [`StreamSession`] under **every** fusion schedule and requires each
//! frame to match [`run_reference`] exactly: the single-frame
//! bit-identity oracle lifted over time.

use crate::diff::Failure;
use crate::gen::{generate_with, GenConfig};
use crate::rng::SplitMix64;
use kfuse_ir::{BinOp, BorderMode, Expr, ImageDesc, Kernel};
use kfuse_sim::{synthetic_image, FastConfig};
use kfuse_stream::{
    run_reference, StateBinding, StateSource, StreamPipeline, StreamSession, MAX_PREV_DEPTH,
};

/// Temporal depths the generator draws from: shallow feedback dominates
/// (matching the temporal apps), with the legal maximum in the mix so the
/// longest warmup and the largest ring stay covered.
const DEPTHS: [usize; 5] = [1, 1, 2, 3, MAX_PREV_DEPTH];

/// Generates a random valid streaming pipeline, deterministically from
/// `seed`.
pub fn generate_stream(seed: u64) -> StreamPipeline {
    // Decorrelate from the base-pipeline generator, which consumes the
    // raw seed itself.
    let mut rng = SplitMix64::new(seed ^ 0x7374_7265_616d_2131);
    let cfg = GenConfig {
        max_kernels: 3,
        ..GenConfig::default()
    };
    let mut p = generate_with(seed, &cfg);
    let (w, h) = {
        let d = p.image(kfuse_ir::ImageId(0));
        (d.width, d.height)
    };

    let n_states = 1 + usize::from(rng.chance(1, 3));
    let mut states = Vec::with_capacity(n_states);
    for si in 0..n_states {
        // An `Input` source replays a fresh input k frames late (frame
        // differencing); the default is a feedback loop through the tap's
        // own consumer (temporal accumulation).
        let input_source = rng.chance(1, 3);
        let ch = if input_source {
            let candidates: Vec<_> = p
                .inputs()
                .iter()
                .copied()
                .filter(|id| !states.iter().any(|s: &StateBinding| s.tap == *id))
                .collect();
            p.image(*rng.pick(&candidates)).channels
        } else {
            *rng.pick(&[1usize, 1, 2, 3])
        };
        let tap = p.add_input(ImageDesc::new(format!("tap{si}"), w, h, ch));
        let source = if input_source {
            let candidates: Vec<_> = p
                .inputs()
                .iter()
                .copied()
                .filter(|&id| {
                    id != tap
                        && !states.iter().any(|s: &StateBinding| s.tap == id)
                        && p.image(id).channels == ch
                })
                .collect();
            StateSource::Input(*rng.pick(&candidates))
        } else {
            StateSource::Output(kfuse_ir::ImageId(0)) // patched below
        };

        // The consuming kernel mixes the tap's neighborhood with a point
        // read of some existing image — a small stencil, so the state
        // plane crosses tile halos too.
        let other = {
            let imgs: Vec<_> = (0..p.images().len())
                .map(kfuse_ir::ImageId)
                .filter(|&id| id != tap)
                .collect();
            *rng.pick(&imgs)
        };
        let other_ch = p.image(other).channels;
        let out = p.add_image(ImageDesc::new(format!("tout{si}"), w, h, ch));
        let mut body = Vec::with_capacity(ch);
        for c in 0..ch {
            let stencil = Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Bin(
                    BinOp::Mul,
                    Box::new(Expr::Const(rng.coef())),
                    Box::new(Expr::Load {
                        slot: 0,
                        dx: 0,
                        dy: 0,
                        ch: c,
                    }),
                )),
                Box::new(Expr::Bin(
                    BinOp::Mul,
                    Box::new(Expr::Const(rng.coef())),
                    Box::new(Expr::Load {
                        slot: 0,
                        dx: if rng.chance(1, 2) { 1 } else { -1 },
                        dy: if rng.chance(1, 2) { 1 } else { 0 },
                        ch: c,
                    }),
                )),
            );
            let point = Expr::Load {
                slot: 1,
                dx: 0,
                dy: 0,
                ch: rng.below(other_ch as u64) as usize,
            };
            body.push(Expr::Bin(
                match rng.below(3) {
                    0 => BinOp::Sub,
                    1 => BinOp::Max,
                    _ => BinOp::Add,
                },
                Box::new(stencil),
                Box::new(point),
            ));
        }
        p.add_kernel(Kernel::simple(
            format!("t{si}"),
            vec![tap, other],
            out,
            vec![
                match rng.below(3) {
                    0 => BorderMode::Clamp,
                    1 => BorderMode::Mirror,
                    _ => BorderMode::Constant(0.0),
                },
                BorderMode::Clamp,
            ],
            body,
            vec![],
        ));
        p.mark_output(out);

        let source = match source {
            StateSource::Output(_) => StateSource::Output(out),
            s => s,
        };
        states.push(StateBinding {
            tap,
            source,
            depth: *rng.pick(&DEPTHS),
        });
    }

    StreamPipeline::new(p, states)
        .unwrap_or_else(|e| panic!("generator emitted an invalid stream for seed {seed:#x}: {e}"))
}

/// Shape summary of a checked stream seed, for sweep logging.
#[derive(Clone, Copy, Debug)]
pub struct StreamReport {
    /// Kernels in the per-frame pipeline (including grafted consumers).
    pub kernels: usize,
    /// Temporal state bindings.
    pub states: usize,
    /// Deepest `prev_frame(k)` in the stream.
    pub max_depth: usize,
}

/// Runs the temporal differential harness on an explicit stream: a
/// session under every fusion schedule, every frame bit-identical to the
/// streaming oracle. The frame count covers full warmup plus three
/// steady-state frames, so the deepest ring rotates more than once.
pub fn check_stream(stream: &StreamPipeline, seed: u64) -> Result<(), Failure> {
    let n_frames = stream.max_depth() + 3;
    let frames: Vec<Vec<_>> = (0..n_frames)
        .map(|f| {
            stream
                .fresh_inputs()
                .iter()
                .map(|&id| {
                    let img_seed = seed
                        ^ (f as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (id.0 as u64) << 32;
                    (
                        id,
                        synthetic_image(stream.frame().image(id).clone(), img_seed),
                    )
                })
                .collect()
        })
        .collect();
    let oracle = run_reference(stream, &frames).map_err(|e| Failure::ExecFailed {
        path: "stream:reference".into(),
        error: e.to_string(),
    })?;

    let fusion_cfg = kfuse_dsl::default_config(kfuse_model::GpuSpec::gtx680());
    for schedule in kfuse_dsl::Schedule::ALL {
        let label = schedule.label();
        let mut session =
            StreamSession::new(stream.clone(), schedule, &fusion_cfg, FastConfig::default())
                .map_err(|e| Failure::ExecFailed {
                    path: format!("stream:{label}:open"),
                    error: e.to_string(),
                })?;
        for (f, fresh) in frames.iter().enumerate() {
            let path = format!("stream:{label}:frame{f}");
            let out = session
                .step(fresh.clone())
                .map_err(|e| Failure::ExecFailed {
                    path: path.clone(),
                    error: e.to_string(),
                })?;
            for ((id, img), (want_id, want)) in out.outputs.iter().zip(&oracle[f]) {
                let name = || stream.frame().image(*id).name.clone();
                if id != want_id {
                    return Err(Failure::MissingOutput {
                        path: path.clone(),
                        image: name(),
                    });
                }
                if !want.bit_equal(img) {
                    return Err(Failure::Mismatch {
                        path: path.clone(),
                        image: name(),
                        max_abs_diff: want.max_abs_diff(img),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Generates the stream for `seed` and runs the temporal harness on it.
pub fn check_stream_seed(seed: u64) -> Result<StreamReport, Failure> {
    let stream = generate_stream(seed);
    check_stream(&stream, seed)?;
    Ok(StreamReport {
        kernels: stream.frame().kernels().len(),
        states: stream.states().len(),
        max_depth: stream.max_depth(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed in a sweep yields a valid stream with at least one
    /// state binding (the generator itself asserts validity; this pins
    /// the property in `cargo test`).
    #[test]
    fn generated_streams_validate() {
        for seed in 0..100 {
            let s = generate_stream(seed);
            assert!(!s.states().is_empty(), "seed {seed}: stateless stream");
            assert!(s.max_depth() >= 1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 5, 0xBEEF] {
            let a = generate_stream(seed);
            let b = generate_stream(seed);
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_eq!(a.states(), b.states());
        }
    }

    /// The sweep actually covers the temporal feature matrix: both source
    /// kinds, multiple taps, shallow and maximum depth.
    #[test]
    fn sweep_covers_temporal_shapes() {
        let mut input_source = false;
        let mut output_source = false;
        let mut multi_tap = false;
        let mut max_depth = false;
        for seed in 0..200 {
            let s = generate_stream(seed);
            multi_tap |= s.states().len() > 1;
            max_depth |= s.max_depth() == MAX_PREV_DEPTH;
            for b in s.states() {
                match b.source {
                    StateSource::Input(_) => input_source = true,
                    StateSource::Output(_) => output_source = true,
                }
            }
        }
        assert!(
            input_source && output_source && multi_tap && max_depth,
            "coverage: input={input_source} output={output_source} multi={multi_tap} deep={max_depth}"
        );
    }

    /// A small sweep of the full temporal harness runs clean. The broad
    /// sweep lives in the `fuzz` bin (`--stream N`) and CI.
    #[test]
    fn smoke_sweep_passes() {
        for seed in 0..4 {
            if let Err(f) = check_stream_seed(seed) {
                panic!("stream seed {seed} failed: {f}");
            }
        }
    }
}
