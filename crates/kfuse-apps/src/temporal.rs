//! Temporal (multi-frame) applications for `kfuse-stream`.
//!
//! The paper's six benchmarks are single-frame; these three lift the same
//! kernel vocabulary (convolutions, point merges, thresholds) into video
//! workloads with frame-to-frame state:
//!
//! | App | State | Shape exercised |
//! |---|---|---|
//! | TemporalDenoise | `prev(acc)`, depth 1 | local → point with an output feedback loop |
//! | BackgroundSubtract | `prev(bg)`, depth 1 | one state plane read by *two* kernels; two outputs |
//! | FrameDiff | `prev(frame)`, depth 2 | input-valued state at depth > 1 |
//!
//! Each constructor returns a validated [`StreamPipeline`]; the naive
//! per-frame oracle is [`kfuse_stream::run_reference`], exactly as
//! `execute_reference` is for the single-frame apps.

use kfuse_dsl::{abs, c, clamp, select, v, Mask};
use kfuse_ir::BorderMode;
use kfuse_stream::{StreamBuilder, StreamPipeline};

/// Default blend weight of the new frame in [`temporal_denoise`].
pub const DEFAULT_ALPHA: f32 = 0.3;
/// Default background adaptation rate in [`background_subtract`].
pub const DEFAULT_RATE: f32 = 0.05;
/// Default foreground threshold in [`background_subtract`].
pub const DEFAULT_THRESHOLD: f32 = 24.0;

/// Temporal denoising by exponential accumulation: each frame is spatially
/// smoothed, then blended into a running accumulator
/// `acc = α·blur(frame) + (1−α)·prev(acc)` that is both the displayed
/// output and the next frame's state.
pub fn temporal_denoise(width: usize, height: usize, alpha: f32) -> StreamPipeline {
    let mut b = StreamBuilder::new("TemporalDenoise", width, height);
    let frame = b.gray_input("frame");
    let acc_prev = b.prev_frame("acc_prev", frame, 1);
    let blurred = b.convolve("blur", frame, &Mask::gaussian3(), BorderMode::Mirror);
    let acc = b.point(
        "acc",
        &[blurred, acc_prev],
        vec![v(0) * c(alpha) + v(1) * c(1.0 - alpha)],
    );
    b.output(acc);
    b.feedback(acc_prev, acc);
    b.build()
}

/// Running-mean background subtraction: the background model adapts as
/// `bg = r·frame + (1−r)·prev(bg)`, and pixels deviating from the
/// *previous* background by more than `threshold` are flagged, then the
/// mask is smoothed by a box filter to suppress single-pixel noise. Both
/// the updated model and the cleaned mask are outputs; the model plane is
/// the feedback state, read by two kernels per frame.
pub fn background_subtract(
    width: usize,
    height: usize,
    rate: f32,
    threshold: f32,
) -> StreamPipeline {
    let mut b = StreamBuilder::new("BackgroundSubtract", width, height);
    let frame = b.gray_input("frame");
    let bg_prev = b.prev_frame("bg_prev", frame, 1);
    let bg = b.point(
        "bg",
        &[frame, bg_prev],
        vec![v(0) * c(rate) + v(1) * c(1.0 - rate)],
    );
    let fg = b.point(
        "fg",
        &[frame, bg_prev],
        vec![select(abs(v(0) - v(1)) - c(threshold), c(255.0), c(0.0))],
    );
    let cleaned = b.convolve("clean", fg, &Mask::box3(), BorderMode::Clamp);
    b.output(bg);
    b.output(cleaned);
    b.feedback(bg_prev, bg);
    b.build()
}

/// Frame differencing at temporal depth 2: motion is the absolute
/// difference between frame N and frame N−2 (skipping one frame doubles
/// the effective motion signal), smoothed and tone-clamped. The state is
/// the raw *input* frame — no feedback loop.
pub fn frame_difference(width: usize, height: usize) -> StreamPipeline {
    let mut b = StreamBuilder::new("FrameDiff", width, height);
    let frame = b.gray_input("frame");
    let prev = b.prev_frame("frame_prev", frame, 2);
    let delta = b.point("delta", &[frame, prev], vec![abs(v(0) - v(1))]);
    let smooth = b.convolve("smooth", delta, &Mask::gaussian3(), BorderMode::Clamp);
    let motion = b.point("motion", &[smooth], vec![clamp(v(0), 0.0, 255.0)]);
    b.output(motion);
    b.build()
}

/// A named temporal application constructor, mirroring [`crate::App`].
#[derive(Clone, Copy)]
pub struct StreamApp {
    /// Display name.
    pub name: &'static str,
    /// Builds a scaled instance at `w × h`.
    pub build_sized: fn(usize, usize) -> StreamPipeline,
}

impl std::fmt::Debug for StreamApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamApp")
            .field("name", &self.name)
            .finish()
    }
}

/// The three temporal applications.
pub fn temporal_apps() -> Vec<StreamApp> {
    vec![
        StreamApp {
            name: "TemporalDenoise",
            build_sized: |w, h| temporal_denoise(w, h, DEFAULT_ALPHA),
        },
        StreamApp {
            name: "BackgroundSubtract",
            build_sized: |w, h| background_subtract(w, h, DEFAULT_RATE, DEFAULT_THRESHOLD),
        },
        StreamApp {
            name: "FrameDiff",
            build_sized: frame_difference,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_dsl::{default_config, Schedule};
    use kfuse_model::GpuSpec;
    use kfuse_sim::{synthetic_image, FastConfig};
    use kfuse_stream::{run_reference, StateSource, StreamSession};

    fn frames(stream: &StreamPipeline, n: usize) -> Vec<Vec<(kfuse_ir::ImageId, kfuse_ir::Image)>> {
        let fresh = stream.fresh_inputs();
        (0..n)
            .map(|f| {
                fresh
                    .iter()
                    .map(|&id| {
                        let desc = stream.frame().image(id).clone();
                        (id, synthetic_image(desc, (f * 131 + id.0 + 11) as u64))
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn registry_lists_all_three() {
        let names: Vec<&str> = temporal_apps().iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            vec!["TemporalDenoise", "BackgroundSubtract", "FrameDiff"]
        );
    }

    #[test]
    fn temporal_structure_is_as_documented() {
        let d = temporal_denoise(16, 12, DEFAULT_ALPHA);
        assert_eq!(d.max_depth(), 1);
        assert!(matches!(d.states()[0].source, StateSource::Output(_)));

        let b = background_subtract(16, 12, DEFAULT_RATE, DEFAULT_THRESHOLD);
        assert_eq!(b.frame().outputs().len(), 2);
        assert!(matches!(b.states()[0].source, StateSource::Output(_)));

        let f = frame_difference(16, 12);
        assert_eq!(f.max_depth(), 2);
        assert!(matches!(f.states()[0].source, StateSource::Input(_)));
    }

    /// The temporal oracle: every app, under every schedule, matches the
    /// naive per-frame reference bit for bit across a whole sequence —
    /// warmup frames included.
    #[test]
    fn sessions_match_naive_reference_under_all_schedules() {
        for app in temporal_apps() {
            let stream = (app.build_sized)(21, 17);
            let seq = frames(&stream, stream.max_depth() + 3);
            let want = run_reference(&stream, &seq).unwrap();
            for schedule in Schedule::ALL {
                let mut session = StreamSession::new(
                    stream.clone(),
                    schedule,
                    &default_config(GpuSpec::gtx680()),
                    FastConfig::default(),
                )
                .unwrap();
                for (f, fresh) in seq.iter().enumerate() {
                    let out = session.step(fresh.clone()).unwrap();
                    for ((gid, got), (wid, wanted)) in out.outputs.iter().zip(&want[f]) {
                        assert_eq!(gid, wid);
                        assert!(
                            got.bit_equal(wanted),
                            "{} under {schedule:?}: frame {f} image {} diverges \
                             (max |Δ| = {:e})",
                            app.name,
                            gid.0,
                            got.max_abs_diff(wanted)
                        );
                    }
                }
            }
        }
    }
}
