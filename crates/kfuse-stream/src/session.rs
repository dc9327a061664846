//! Frame-by-frame execution of a [`StreamPipeline`] with zero-copy state
//! reuse, plus the naive per-frame reference oracle.

use std::collections::VecDeque;
use std::sync::Arc;

use kfuse_core::FusionConfig;
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId};
use kfuse_obs::Tracer;
use kfuse_sim::{execute_reference, CompiledPlan, FastConfig, Scratch};

use crate::pipeline::{StreamError, StreamPipeline};

/// The marked outputs of one frame, owned by the caller.
#[derive(Clone, Debug)]
pub struct FrameOutput {
    /// Zero-based index of the frame these outputs belong to.
    pub frame: u64,
    /// The pipeline's marked outputs, in declaration order.
    pub outputs: Vec<(ImageId, Image)>,
}

/// A live streaming session: one compiled plan plus the temporal state it
/// carries between frames.
///
/// State lives in per-binding rings of materialized planes. Stepping frame
/// N *moves* frame N−k's plane out of the ring and into the execution as
/// an owned input ([`CompiledPlan::run`]), and moves the frame's
/// source plane back out of the finished execution
/// ([`kfuse_sim::Execution::take_image`]) — the steady-state hot path
/// copies a state plane only when the same image is simultaneously a
/// returned output or feeds several taps.
pub struct StreamSession {
    stream: StreamPipeline,
    plan: Arc<CompiledPlan>,
    cfg: FastConfig,
    /// Buffers for [`StreamSession::step`]; a session stepped only through
    /// [`StreamSession::step_with`] never grows them.
    scratch: Scratch,
    /// One ring per state binding, oldest plane at the front. A ring
    /// shorter than its binding's depth is still warming up: taps read
    /// zero images until frame `depth`.
    rings: Vec<VecDeque<Image>>,
    frame_no: u64,
}

impl StreamSession {
    /// Compiles the stream's per-frame pipeline under `schedule` and opens
    /// a cold session.
    pub fn new(
        stream: StreamPipeline,
        schedule: Schedule,
        fusion: &FusionConfig,
        cfg: FastConfig,
    ) -> Result<Self, StreamError> {
        let fused = kfuse_dsl::compile(stream.frame(), schedule, fusion);
        let plan = Arc::new(CompiledPlan::compile(&fused)?);
        Self::with_plan(stream, plan, cfg)
    }

    /// Opens a session over an already-compiled plan — the runtime path,
    /// where plans are cached per (fingerprint, schedule) and shared across
    /// sessions. The plan must be a fusion of this stream's frame pipeline:
    /// fusion preserves the image table, inputs, marked outputs, and name,
    /// so all four are checked. (This is a wiring sanity check; semantic
    /// identity is the plan cache's key, [`StreamPipeline::fingerprint`].)
    pub fn with_plan(
        stream: StreamPipeline,
        plan: Arc<CompiledPlan>,
        cfg: FastConfig,
    ) -> Result<Self, StreamError> {
        let frame = stream.frame();
        let planned = plan.pipeline();
        if planned.name != frame.name
            || planned.images().len() != frame.images().len()
            || planned.inputs() != frame.inputs()
            || planned.outputs() != frame.outputs()
        {
            return Err(StreamError::Invalid(
                "plan was not compiled from this stream's frame pipeline".into(),
            ));
        }
        let rings = stream.states().iter().map(|_| VecDeque::new()).collect();
        Ok(Self {
            stream,
            plan,
            cfg,
            scratch: Scratch::default(),
            rings,
            frame_no: 0,
        })
    }

    /// The stream this session executes.
    pub fn stream(&self) -> &StreamPipeline {
        &self.stream
    }

    /// The shared compiled plan.
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        &self.plan
    }

    /// Frames executed since the session was opened (or last reset).
    pub fn frame_no(&self) -> u64 {
        self.frame_no
    }

    /// True once every state ring holds its full temporal depth, i.e. no
    /// tap reads initial zero state anymore.
    pub fn warmed_up(&self) -> bool {
        self.rings
            .iter()
            .zip(self.stream.states())
            .all(|(ring, s)| ring.len() == s.depth)
    }

    /// Drops all temporal state, returning the session to frame 0.
    pub fn reset(&mut self) {
        for ring in &mut self.rings {
            ring.clear();
        }
        self.frame_no = 0;
    }

    /// Executes one frame on the session's own scratch buffers, untraced.
    /// `fresh` must bind exactly the stream's
    /// [`StreamPipeline::fresh_inputs`] (any order); state taps are bound
    /// internally from the rings.
    pub fn step(&mut self, fresh: Vec<(ImageId, Image)>) -> Result<FrameOutput, StreamError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = self.step_with(fresh, &mut scratch, &Tracer::disabled());
        self.scratch = scratch;
        out
    }

    /// [`StreamSession::step`] on the caller's `scratch` and under the
    /// caller's `tracer` — the serving path, where a worker steps whichever
    /// session it dequeued on its one long-lived [`Scratch`] and the
    /// frame's `kernel:` spans land in the request's trace.
    pub fn step_with(
        &mut self,
        fresh: Vec<(ImageId, Image)>,
        scratch: &mut Scratch,
        tracer: &Tracer,
    ) -> Result<FrameOutput, StreamError> {
        let expected = self.stream.fresh_inputs();
        if fresh.len() != expected.len() {
            return Err(StreamError::Invalid(format!(
                "frame {} bound {} fresh inputs, stream needs {}",
                self.frame_no,
                fresh.len(),
                expected.len()
            )));
        }
        for (i, (id, _)) in fresh.iter().enumerate() {
            if !expected.contains(id) {
                return Err(StreamError::Invalid(format!(
                    "frame {}: image {} is not a fresh input (state taps are bound by the session)",
                    self.frame_no, id.0
                )));
            }
            if fresh[..i].iter().any(|(prev, _)| prev == id) {
                return Err(StreamError::Invalid(format!(
                    "frame {}: image {} bound twice",
                    self.frame_no, id.0
                )));
            }
        }

        let mut inputs = fresh;
        for (ring, s) in self.rings.iter_mut().zip(self.stream.states()) {
            let plane = if ring.len() == s.depth {
                ring.pop_front().expect("ring length just checked")
            } else {
                Image::zeros(self.stream.frame().image(s.tap).clone())
            };
            inputs.push((s.tap, plane));
        }

        let mut exec = self.plan.run(inputs, &self.cfg, scratch, tracer)?;

        // Refill the rings before taking the returned outputs: a source
        // plane that is also a marked output (or feeds several taps) must
        // be cloned for all but its last consumer.
        let states = self.stream.states();
        let outputs = self.stream.frame().outputs();
        for (i, s) in states.iter().enumerate() {
            let src = s.source.id();
            let shared = states[i + 1..].iter().any(|later| later.source.id() == src)
                || outputs.contains(&src);
            let plane = if shared {
                exec.image(src)
                    .expect("validated sources are always materialized")
                    .clone()
            } else {
                exec.take_image(src)
                    .expect("validated sources are always materialized")
            };
            self.rings[i].push_back(plane);
        }

        let outputs = outputs
            .iter()
            .map(|&id| {
                let img = exec
                    .take_image(id)
                    .expect("marked outputs are always materialized");
                (id, img)
            })
            .collect();
        let frame = self.frame_no;
        self.frame_no += 1;
        Ok(FrameOutput { frame, outputs })
    }
}

/// The streaming oracle: steps the **unfused** frame pipeline through the
/// tree-walking reference interpreter with naively cloned state history.
///
/// Returns the marked outputs of every frame. Sessions must match this bit
/// for bit, frame for frame, under every schedule — the single-frame
/// bit-identity oracle lifted over time.
pub fn run_reference(
    stream: &StreamPipeline,
    frames: &[Vec<(ImageId, Image)>],
) -> Result<Vec<Vec<(ImageId, Image)>>, StreamError> {
    let frame_p = stream.frame();
    let mut rings: Vec<VecDeque<Image>> = stream.states().iter().map(|_| VecDeque::new()).collect();
    let mut all = Vec::with_capacity(frames.len());
    for fresh in frames {
        let mut inputs: Vec<(ImageId, Image)> = fresh.clone();
        for (ring, s) in rings.iter_mut().zip(stream.states()) {
            let plane = if ring.len() == s.depth {
                ring.pop_front().expect("ring length just checked")
            } else {
                Image::zeros(frame_p.image(s.tap).clone())
            };
            inputs.push((s.tap, plane));
        }
        let exec = execute_reference(frame_p, &inputs)?;
        for (ring, s) in rings.iter_mut().zip(stream.states()) {
            ring.push_back(
                exec.image(s.source.id())
                    .expect("validated sources are always materialized")
                    .clone(),
            );
        }
        all.push(
            frame_p
                .outputs()
                .iter()
                .map(|&id| (id, exec.expect_image(id).clone()))
                .collect(),
        );
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{StateBinding, StateSource};
    use kfuse_dsl::builder::{at, c, v, PipelineBuilder};
    use kfuse_dsl::{default_config, Mask};
    use kfuse_ir::BorderMode;
    use kfuse_model::GpuSpec;
    use kfuse_sim::synthetic_image;

    /// Blur + exponential accumulation: `acc = 0.3·blur(frame) + 0.7·prev(acc)`.
    fn denoise_stream(w: usize, h: usize) -> StreamPipeline {
        let mut b = PipelineBuilder::new("denoise", w, h);
        let frame = b.gray_input("frame");
        let prev = b.prev_frame("prev_acc", frame);
        let blurred = b.convolve("blur", frame, &Mask::gaussian3(), BorderMode::Mirror);
        let acc = b.point("acc", &[blurred, prev], vec![v(0) * c(0.3) + v(1) * c(0.7)]);
        b.output(acc);
        StreamPipeline::new(
            b.build(),
            vec![StateBinding {
                tap: prev,
                source: StateSource::Output(acc),
                depth: 1,
            }],
        )
        .unwrap()
    }

    /// Depth-2 frame differencing against the raw input: a gradient of the
    /// difference between frame N and frame N−2.
    fn diff_stream(w: usize, h: usize) -> StreamPipeline {
        let mut b = PipelineBuilder::new("diff2", w, h);
        let frame = b.gray_input("frame");
        let prev = b.prev_frame("prev_frame", frame);
        let delta = b.point("delta", &[frame, prev], vec![v(0) - v(1)]);
        let edge = b.kernel(
            "edge",
            &[delta],
            vec![BorderMode::Clamp],
            vec![at(0, 1, 0) - at(0, -1, 0)],
            vec![],
        );
        b.output(edge);
        StreamPipeline::new(
            b.build(),
            vec![StateBinding {
                tap: prev,
                source: StateSource::Input(frame),
                depth: 2,
            }],
        )
        .unwrap()
    }

    fn frames(stream: &StreamPipeline, n: usize) -> Vec<Vec<(ImageId, Image)>> {
        let fresh = stream.fresh_inputs();
        (0..n)
            .map(|f| {
                fresh
                    .iter()
                    .map(|&id| {
                        let desc = stream.frame().image(id).clone();
                        (id, synthetic_image(desc, (f * 31 + id.0 + 7) as u64))
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_session_matches_reference(stream: StreamPipeline, schedule: Schedule) {
        let n = stream.max_depth() + 3;
        let seq = frames(&stream, n);
        let want = run_reference(&stream, &seq).unwrap();
        let mut session = StreamSession::new(
            stream,
            schedule,
            &default_config(GpuSpec::gtx680()),
            FastConfig::default(),
        )
        .unwrap();
        for (f, fresh) in seq.into_iter().enumerate() {
            let out = session.step(fresh).unwrap();
            assert_eq!(out.frame, f as u64);
            assert_eq!(out.outputs.len(), want[f].len());
            for ((gid, got), (wid, wanted)) in out.outputs.iter().zip(&want[f]) {
                assert_eq!(gid, wid);
                assert!(
                    got.bit_equal(wanted),
                    "{schedule:?}: frame {f} image {} diverges from reference (max \
                     |Δ| = {:e})",
                    gid.0,
                    got.max_abs_diff(wanted)
                );
            }
        }
        assert!(session.warmed_up());
    }

    #[test]
    fn denoise_matches_reference_under_all_schedules() {
        for schedule in Schedule::ALL {
            assert_session_matches_reference(denoise_stream(19, 13), schedule);
        }
    }

    #[test]
    fn depth2_diff_matches_reference_under_all_schedules() {
        for schedule in Schedule::ALL {
            assert_session_matches_reference(diff_stream(16, 11), schedule);
        }
    }

    #[test]
    fn warmup_frames_read_zero_state() {
        let stream = diff_stream(8, 6);
        let seq = frames(&stream, 2);
        let want = run_reference(&stream, &seq).unwrap();
        // Frames 0 and 1 of a depth-2 stream see zero previous frames, so
        // delta == frame and the output is just the edge filter of each
        // frame alone.
        let mut b = PipelineBuilder::new("edge-only", 8, 6);
        let frame = b.gray_input("frame");
        let edge = b.kernel(
            "edge",
            &[frame],
            vec![BorderMode::Clamp],
            vec![at(0, 1, 0) - at(0, -1, 0)],
            vec![],
        );
        b.output(edge);
        let solo = b.build();
        for (f, fresh) in seq.iter().enumerate() {
            let inputs = vec![(frame, fresh[0].1.clone())];
            let exec = execute_reference(&solo, &inputs).unwrap();
            assert!(want[f][0].1.bit_equal(exec.expect_image(edge)));
        }
    }

    #[test]
    fn reset_returns_to_cold_state() {
        let stream = denoise_stream(9, 7);
        let seq = frames(&stream, 3);
        let mut session = StreamSession::new(
            stream,
            Schedule::Optimized,
            &default_config(GpuSpec::gtx680()),
            FastConfig::default(),
        )
        .unwrap();
        let first: Vec<_> = seq
            .iter()
            .map(|f| session.step(f.clone()).unwrap())
            .collect();
        assert!(session.warmed_up());
        session.reset();
        assert_eq!(session.frame_no(), 0);
        assert!(!session.warmed_up());
        for (f, fresh) in seq.iter().enumerate() {
            let again = session.step(fresh.clone()).unwrap();
            assert!(again.outputs[0].1.bit_equal(&first[f].outputs[0].1));
        }
    }

    #[test]
    fn step_rejects_bad_bindings() {
        let stream = denoise_stream(8, 6);
        let frame_id = stream.fresh_inputs()[0];
        let tap = stream.states()[0].tap;
        let desc = stream.frame().image(frame_id).clone();
        let mut session = StreamSession::new(
            stream,
            Schedule::Optimized,
            &default_config(GpuSpec::gtx680()),
            FastConfig::default(),
        )
        .unwrap();
        // Missing inputs.
        assert!(session.step(vec![]).is_err());
        // Binding the tap directly is refused: state is session-owned.
        assert!(session
            .step(vec![(tap, Image::zeros(desc.clone()))])
            .is_err());
        // Duplicate binding.
        assert!(session
            .step(vec![
                (frame_id, Image::zeros(desc.clone())),
                (frame_id, Image::zeros(desc.clone())),
            ])
            .is_err());
        // A session that rejected a frame is still usable.
        assert!(session.step(vec![(frame_id, Image::zeros(desc))]).is_ok());
    }

    #[test]
    fn with_plan_rejects_foreign_plans() {
        let stream = denoise_stream(8, 6);
        let other = diff_stream(8, 6);
        let fused = kfuse_dsl::compile(
            other.frame(),
            Schedule::Optimized,
            &default_config(GpuSpec::gtx680()),
        );
        let plan = Arc::new(CompiledPlan::compile(&fused).unwrap());
        assert!(StreamSession::with_plan(stream, plan, FastConfig::default()).is_err());
    }
}
