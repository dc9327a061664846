//! Streaming sessions: stateful frame-by-frame serving on the runtime's
//! worker pool.
//!
//! A session holds a [`kfuse_stream::StreamSession`] — a compiled plan
//! from the runtime's plan cache plus the temporal state rings it carries
//! between frames. Frames are *submitted* ([`Runtime::submit_frame`]) into
//! a per-session pending FIFO and *executed* by a session runner — a
//! `Payload::Session` job on the runtime's ordinary work queue. The whole
//! in-order guarantee rests on one invariant:
//!
//! > **At most one runner per session is ever queued or running**, and
//! > `pending` is non-empty only while `runner_queued` holds.
//!
//! The single runner drains the FIFO front-to-back, so a session's frames
//! execute in submission order on *some* worker (frame N−1's state is
//! always in the rings before frame N steps), while distinct sessions run
//! concurrently across workers. A runner yields the queue after a bounded
//! turn (`TURN_FRAMES`) and re-enqueues itself, so one firehose session
//! cannot starve stateless traffic.
//!
//! A frame is a unit of work like any stateless job: it is answered
//! through the same [`Handle`] ([`FrameHandle`]), and the runner hands
//! each frame to the runtime's one worker envelope, which traces, meters
//! and answers it exactly as it does a stateless request. Only the body
//! differs — lock the session, step its rings
//! ([`StreamSession::step_with`]) on the worker's scratch under the
//! request's tracer — so a frame's flight record holds the same
//! `queue_wait` → `execute` → `kernel:` span tree as a request's.
//!
//! Lifecycle: `Open → (drain) → Draining → (close) → Closed`. Draining is
//! a fence — frames already accepted still complete in order, new submits
//! are refused with [`RuntimeError::SessionDraining`]. Closing frees the
//! state planes and fails any still-pending frames with
//! [`RuntimeError::SessionClosed`]; frames a runner can no longer run
//! because the runtime is shutting down get
//! [`RuntimeError::ShuttingDown`]. A panic inside a frame step closes the
//! session (its state rings can no longer be trusted) but never kills the
//! worker.
//!
//! Lock order is `state → session → queue`; no path takes them in any
//! other order. Submitters only ever touch `state` (the pending FIFO),
//! never `session` (the rings), so admission stays fast while a frame
//! executes.

use crate::cache::PlanKey;
use crate::metrics::PipelineMetrics;
use crate::runtime::{
    enqueue_session_runner, execute_span, serve, Handle, Meter, Priority, Runtime, RuntimeError,
    Shared, Ticket,
};
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId};
use kfuse_obs::Tracer;
use kfuse_sim::Scratch;
use kfuse_stream::{FrameOutput, StreamPipeline, StreamSession};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Frames a runner may execute before re-enqueueing itself, so a saturated
/// session shares the workers with everyone else at queue granularity.
const TURN_FRAMES: usize = 16;

/// The open-session registry: id → entry.
#[derive(Default)]
pub(crate) struct SessionTable {
    entries: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    next_id: AtomicU64,
}

impl SessionTable {
    fn get(&self, id: u64) -> Option<Arc<SessionEntry>> {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .cloned()
    }
}

/// Where a session is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Open,
    Draining,
    Closed,
}

/// A frame accepted into a session's FIFO but not yet executed.
struct PendingFrame {
    inputs: Vec<(ImageId, Image)>,
    ticket: Ticket<FrameOutput>,
}

/// The submit-side half of a session: pending FIFO, lifecycle phase, and
/// the runner invariant bit. Deliberately separate from the `session`
/// mutex so submitting never waits behind an executing frame.
struct SessionState {
    pending: VecDeque<PendingFrame>,
    runner_queued: bool,
    phase: Phase,
}

/// Monotonic per-session counters (relaxed atomics; read by
/// [`Runtime::session_stats`] without any lock).
#[derive(Default)]
pub(crate) struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    errored: AtomicU64,
    rejected: AtomicU64,
}

impl Counters {
    /// Counts one frame's terminal outcome.
    pub(crate) fn count(&self, ok: bool) {
        let counter = if ok { &self.completed } else { &self.errored };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of one session's frame accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames accepted into the pending FIFO.
    pub frames_submitted: u64,
    /// Frames executed to a successful [`FrameOutput`].
    pub frames_completed: u64,
    /// Frames that failed in execution (including those failed by a
    /// close or shutdown after acceptance).
    pub frames_errored: u64,
    /// Submits refused at admission (draining/closed/backlog full).
    pub frames_rejected: u64,
}

/// One open session. Shared between the submit path, the runner job on
/// the queue, and the registry; the `Arc` keeps an entry alive for
/// a runner even after `close_session` removes it from the table.
pub(crate) struct SessionEntry {
    pub(crate) tenant: String,
    pub(crate) priority: Priority,
    pub(crate) metrics: Arc<PipelineMetrics>,
    stats: Counters,
    state: Mutex<SessionState>,
    /// The temporal state itself. Only a runner locks this, and only one
    /// runner exists per session, so it is in practice uncontended.
    session: Mutex<StreamSession>,
}

impl SessionEntry {
    fn meter(&self) -> Meter<'_> {
        Meter {
            tenant: &self.tenant,
            metrics: &self.metrics,
            frames: Some(&self.stats),
        }
    }

    /// Answers frames that will never run with `err`, counting each as an
    /// error.
    fn fail(&self, frames: VecDeque<PendingFrame>, err: impl Fn() -> RuntimeError) {
        for frame in frames {
            self.meter().answer(&frame.ticket.slot, Err(err()));
        }
    }

    fn stats_snapshot(&self) -> SessionStats {
        SessionStats {
            frames_submitted: self.stats.submitted.load(Ordering::Relaxed),
            frames_completed: self.stats.completed.load(Ordering::Relaxed),
            frames_errored: self.stats.errored.load(Ordering::Relaxed),
            frames_rejected: self.stats.rejected.load(Ordering::Relaxed),
        }
    }
}

/// Handle to one submitted frame; resolves to the frame's
/// [`FrameOutput`] (or the error that stopped it).
pub type FrameHandle = Handle<FrameOutput>;

impl Runtime {
    /// Opens a streaming session for `tenant` over `stream` at
    /// [`Priority::Normal`], returning its id.
    pub fn open_session(
        &self,
        tenant: &str,
        stream: &StreamPipeline,
        schedule: Schedule,
    ) -> Result<u64, RuntimeError> {
        self.open_session_with(tenant, stream, schedule, Priority::Normal)
    }

    /// Opens a streaming session with an explicit [`Priority`] for its
    /// frame runner.
    ///
    /// The per-frame plan is obtained through the runtime's plan cache
    /// under the same `(fingerprint, schedule, exec)` key the
    /// stateless path uses, so a session and ordinary submissions of the
    /// same pipeline share one compiled plan, pinned for the session's
    /// lifetime.
    pub fn open_session_with(
        &self,
        tenant: &str,
        stream: &StreamPipeline,
        schedule: Schedule,
        priority: Priority,
    ) -> Result<u64, RuntimeError> {
        let shared = &*self.shared;
        let frame = stream.frame();
        let key = PlanKey {
            fingerprint: frame.fingerprint(),
            schedule,
            exec: shared.cfg.exec,
        };
        let (entry, _) = shared.plan_for(key, frame, &Tracer::disabled(), RuntimeError::Stream)?;
        let session = StreamSession::with_plan(stream.clone(), entry.plan, shared.cfg.exec)
            .map_err(|e| RuntimeError::Stream(e.to_string()))?;
        let metrics = shared.metrics.handle(tenant);
        let id = self.sessions.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Arc::new(SessionEntry {
            tenant: tenant.to_string(),
            priority,
            metrics,
            stats: Counters::default(),
            state: Mutex::new(SessionState {
                pending: VecDeque::new(),
                runner_queued: false,
                phase: Phase::Open,
            }),
            session: Mutex::new(session),
        });
        self.sessions
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, entry);
        Ok(id)
    }

    /// Submits the next frame of session `id`. `fresh` binds exactly the
    /// stream's fresh inputs; state taps are bound by the session from
    /// its rings. Frames of one session complete strictly in submission
    /// order.
    pub fn submit_frame(
        &self,
        id: u64,
        fresh: Vec<(ImageId, Image)>,
    ) -> Result<FrameHandle, RuntimeError> {
        self.submit_frame_with_ctx(id, fresh, 0, 0)
    }

    /// [`Runtime::submit_frame`] with a propagated trace context, so each
    /// frame's serving spans and flight-recorder record land under the
    /// client's trace id (zero = none).
    pub fn submit_frame_with_ctx(
        &self,
        id: u64,
        fresh: Vec<(ImageId, Image)>,
        trace_id: u64,
        span_id: u64,
    ) -> Result<FrameHandle, RuntimeError> {
        let entry = self
            .sessions
            .get(id)
            .ok_or(RuntimeError::UnknownSession(id))?;
        entry.metrics.record_request();
        let shared = &*self.shared;
        let mut state = entry.state.lock().unwrap_or_else(PoisonError::into_inner);
        match state.phase {
            Phase::Open => {}
            Phase::Draining => {
                entry.stats.rejected.fetch_add(1, Ordering::Relaxed);
                entry.metrics.record_rejected();
                return Err(RuntimeError::SessionDraining);
            }
            Phase::Closed => {
                entry.stats.rejected.fetch_add(1, Ordering::Relaxed);
                entry.metrics.record_rejected();
                return Err(RuntimeError::SessionClosed);
            }
        }
        // The per-session backlog is bounded like the queue: a client
        // outrunning its session's throughput is shed, not buffered
        // without limit.
        if state.pending.len() >= shared.cfg.queue_capacity {
            entry.stats.rejected.fetch_add(1, Ordering::Relaxed);
            entry.metrics.record_shed();
            return Err(RuntimeError::QueueFull);
        }
        let (ticket, handle) = Ticket::issue(None, trace_id, span_id);
        state.pending.push_back(PendingFrame {
            inputs: fresh,
            ticket,
        });
        if !state.runner_queued {
            if let Err(e) = enqueue_session_runner(shared, &entry) {
                state.pending.pop_back();
                entry.stats.rejected.fetch_add(1, Ordering::Relaxed);
                entry.metrics.record_rejected();
                return Err(e);
            }
            state.runner_queued = true;
        }
        entry.stats.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }

    /// Drain fence: frames already accepted still complete in order;
    /// every later [`Runtime::submit_frame`] is refused with
    /// [`RuntimeError::SessionDraining`]. Idempotent; refused on a closed
    /// session.
    pub fn drain_session(&self, id: u64) -> Result<(), RuntimeError> {
        let entry = self
            .sessions
            .get(id)
            .ok_or(RuntimeError::UnknownSession(id))?;
        let mut state = entry.state.lock().unwrap_or_else(PoisonError::into_inner);
        match state.phase {
            Phase::Closed => Err(RuntimeError::SessionClosed),
            _ => {
                state.phase = Phase::Draining;
                Ok(())
            }
        }
    }

    /// Closes session `id`: frees its state planes, fails any
    /// still-pending frames with [`RuntimeError::SessionClosed`], and
    /// returns the final frame accounting. A frame already executing
    /// finishes normally (its submitter holds a live handle).
    pub fn close_session(&self, id: u64) -> Result<SessionStats, RuntimeError> {
        let entry = self
            .sessions
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id)
            .ok_or(RuntimeError::UnknownSession(id))?;
        let pending = {
            let mut state = entry.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.phase = Phase::Closed;
            std::mem::take(&mut state.pending)
        };
        entry.fail(pending, || RuntimeError::SessionClosed);
        Ok(entry.stats_snapshot())
    }

    /// The frame accounting of an open session.
    pub fn session_stats(&self, id: u64) -> Result<SessionStats, RuntimeError> {
        self.sessions
            .get(id)
            .map(|e| e.stats_snapshot())
            .ok_or(RuntimeError::UnknownSession(id))
    }

    /// Number of sessions currently registered (open or draining).
    pub fn session_count(&self) -> usize {
        self.sessions
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// One scheduling turn of a session's frame runner, called from the
/// worker loop with the worker's scratch. Drains up to [`TURN_FRAMES`]
/// pending frames in FIFO order, each through the worker envelope
/// ([`serve`]), then either re-enqueues itself (more work waiting) or
/// clears the runner invariant bit (FIFO empty).
pub(crate) fn run_session_turn(shared: &Shared, entry: &Arc<SessionEntry>, scratch: &mut Scratch) {
    for _ in 0..TURN_FRAMES {
        let PendingFrame { inputs, ticket } = {
            let mut state = entry.state.lock().unwrap_or_else(PoisonError::into_inner);
            if state.phase == Phase::Closed {
                // Closed mid-turn (or by a panic): the session's rings
                // are gone or untrustworthy; answer everything pending.
                let pending = std::mem::take(&mut state.pending);
                state.runner_queued = false;
                drop(state);
                entry.fail(pending, || RuntimeError::SessionClosed);
                return;
            }
            match state.pending.pop_front() {
                Some(f) => f,
                None => {
                    state.runner_queued = false;
                    return;
                }
            }
        };
        serve(shared, scratch, entry.meter(), ticket, |scratch, tracer| {
            // Declared before the session lock so that, on unwind, the
            // lock is released first and the lock order holds.
            let _close_on_panic = CloseOnUnwind(entry);
            let mut session = entry.session.lock().unwrap_or_else(PoisonError::into_inner);
            // A step refused at validation (bad bindings) leaves the rings
            // untouched: the session stays usable and only this frame fails.
            execute_span(tracer, &entry.tenant, || {
                session.step_with(inputs, scratch, tracer)
            })
            .map_err(|e| RuntimeError::Stream(e.to_string()))
        });
    }
    // Turn budget spent: yield the worker and get back in line, keeping
    // the one-runner invariant (`runner_queued` stays true across the
    // re-enqueue, so no submitter races a second runner in).
    let mut state = entry.state.lock().unwrap_or_else(PoisonError::into_inner);
    if state.pending.is_empty() {
        state.runner_queued = false;
        return;
    }
    if enqueue_session_runner(shared, entry).is_err() {
        // Shutting down: the accepted backlog can no longer run, but
        // every submitter still gets an answer — the typed error a submit
        // refused at shutdown gets.
        let pending = std::mem::take(&mut state.pending);
        state.runner_queued = false;
        drop(state);
        entry.fail(pending, || RuntimeError::ShuttingDown);
    }
}

/// Closes the session if a frame step unwinds: the state rings may hold a
/// half-updated frame, and frames whose temporal history is corrupt must
/// not be served.
struct CloseOnUnwind<'a>(&'a SessionEntry);

impl Drop for CloseOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .phase = Phase::Closed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use kfuse_dsl::{c, v, Mask};
    use kfuse_ir::BorderMode;
    use kfuse_sim::synthetic_image;
    use kfuse_stream::{run_reference, StreamBuilder};

    /// Exponential-accumulator denoise: one fresh input, one depth-1
    /// output-fed state tap.
    fn denoise(w: usize, h: usize) -> StreamPipeline {
        let mut b = StreamBuilder::new("TemporalDenoise", w, h);
        let frame = b.gray_input("frame");
        let acc_prev = b.prev_frame("acc_prev", frame, 1);
        let blurred = b.convolve("blur", frame, &Mask::gaussian3(), BorderMode::Mirror);
        let acc = b.point(
            "acc",
            &[blurred, acc_prev],
            vec![v(0) * c(0.3) + v(1) * c(0.7)],
        );
        b.output(acc);
        b.feedback(acc_prev, acc);
        b.build()
    }

    fn frames(stream: &StreamPipeline, n: usize) -> Vec<Vec<(ImageId, Image)>> {
        let fresh = stream.fresh_inputs();
        (0..n)
            .map(|f| {
                fresh
                    .iter()
                    .map(|&id| {
                        let desc = stream.frame().image(id).clone();
                        (id, synthetic_image(desc, (f * 97 + id.0 + 5) as u64))
                    })
                    .collect()
            })
            .collect()
    }

    /// The core serving guarantee: frames of one session complete in
    /// submission order and bit-match the naive streaming oracle, even
    /// with several workers racing for the queue.
    #[test]
    fn frames_complete_in_order_and_match_reference() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 4,
            ..RuntimeConfig::default()
        });
        let stream = denoise(19, 13);
        let seq = frames(&stream, 8);
        let want = run_reference(&stream, &seq).unwrap();
        let id = rt
            .open_session("vid", &stream, Schedule::Optimized)
            .unwrap();
        assert_eq!(rt.session_count(), 1);
        let handles: Vec<FrameHandle> = seq
            .iter()
            .map(|fresh| rt.submit_frame(id, fresh.clone()).unwrap())
            .collect();
        for (f, h) in handles.into_iter().enumerate() {
            let out = h.wait().unwrap();
            assert_eq!(out.frame, f as u64, "frames must complete in order");
            for ((gid, got), (wid, wanted)) in out.outputs.iter().zip(&want[f]) {
                assert_eq!(gid, wid);
                assert!(got.bit_equal(wanted), "frame {f} diverges from oracle");
            }
        }
        let stats = rt.close_session(id).unwrap();
        assert_eq!(stats.frames_submitted, 8);
        assert_eq!(stats.frames_completed, 8);
        assert_eq!(stats.frames_errored, 0);
        assert_eq!(rt.session_count(), 0);
        rt.shutdown();
    }

    /// A session's plan comes from (and lands in) the runtime's plan
    /// cache, shared with the stateless submit path.
    #[test]
    fn sessions_share_the_plan_cache() {
        let rt = Runtime::new(RuntimeConfig::default());
        let stream = denoise(16, 12);
        rt.open_session("a", &stream, Schedule::Optimized).unwrap();
        assert_eq!(rt.cached_plans(), 1);
        // A second session over the same stream reuses the cached plan.
        rt.open_session("b", &stream, Schedule::Optimized).unwrap();
        assert_eq!(rt.cached_plans(), 1);
        rt.shutdown();
    }

    /// Draining is a fence: accepted frames complete, later submits get
    /// the typed [`RuntimeError::SessionDraining`].
    #[test]
    fn drain_fences_new_frames() {
        let rt = Runtime::new(RuntimeConfig::default());
        let stream = denoise(17, 11);
        let seq = frames(&stream, 4);
        let id = rt
            .open_session("vid", &stream, Schedule::Optimized)
            .unwrap();
        let handles: Vec<FrameHandle> = seq
            .iter()
            .take(3)
            .map(|fresh| rt.submit_frame(id, fresh.clone()).unwrap())
            .collect();
        rt.drain_session(id).unwrap();
        match rt.submit_frame(id, seq[3].clone()) {
            Err(RuntimeError::SessionDraining) => {}
            other => panic!("expected SessionDraining, got {other:?}"),
        }
        // Everything accepted before the fence still completes, in order.
        for (f, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait().unwrap().frame, f as u64);
        }
        // Draining again is idempotent; closing still works.
        rt.drain_session(id).unwrap();
        let stats = rt.close_session(id).unwrap();
        assert_eq!(stats.frames_completed, 3);
        assert_eq!(stats.frames_rejected, 1);
        rt.shutdown();
    }

    /// Closing removes the session: pending frames are answered with
    /// [`RuntimeError::SessionClosed`], later operations see
    /// [`RuntimeError::UnknownSession`], and every accepted frame is
    /// accounted as completed or errored — none dangle.
    #[test]
    fn close_answers_pending_and_frees_the_id() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        });
        let stream = denoise(33, 29);
        let seq = frames(&stream, 16);
        let id = rt
            .open_session("vid", &stream, Schedule::Optimized)
            .unwrap();
        let handles: Vec<FrameHandle> = seq
            .iter()
            .map(|fresh| rt.submit_frame(id, fresh.clone()).unwrap())
            .collect();
        let stats = rt.close_session(id).unwrap();
        let mut completed = 0;
        let mut closed = 0;
        for h in handles {
            match h.wait() {
                Ok(_) => completed += 1,
                Err(RuntimeError::SessionClosed) => closed += 1,
                Err(e) => panic!("unexpected frame error: {e}"),
            }
        }
        assert_eq!(completed + closed, 16, "every accepted frame is answered");
        assert_eq!(stats.frames_submitted, 16);
        match rt.submit_frame(id, seq[0].clone()) {
            Err(RuntimeError::UnknownSession(got)) => assert_eq!(got, id),
            other => panic!("expected UnknownSession, got {other:?}"),
        }
        match rt.session_stats(id) {
            Err(RuntimeError::UnknownSession(_)) => {}
            other => panic!("expected UnknownSession, got {other:?}"),
        }
        rt.shutdown();
    }

    /// A frame refused at validation fails alone: the rings are
    /// untouched and the session keeps serving correct frames.
    #[test]
    fn bad_frame_fails_without_poisoning_the_session() {
        let rt = Runtime::new(RuntimeConfig::default());
        let stream = denoise(15, 10);
        let seq = frames(&stream, 3);
        let want = run_reference(&stream, &seq).unwrap();
        let id = rt
            .open_session("vid", &stream, Schedule::Optimized)
            .unwrap();
        let good0 = rt.submit_frame(id, seq[0].clone()).unwrap();
        let bad = rt.submit_frame(id, Vec::new()).unwrap();
        let good1 = rt.submit_frame(id, seq[1].clone()).unwrap();
        assert!(good0.wait().unwrap().outputs[0].1.bit_equal(&want[0][0].1));
        match bad.wait() {
            Err(RuntimeError::Stream(_)) => {}
            other => panic!("expected Stream error, got {other:?}"),
        }
        // The bad frame consumed no temporal state: the next good frame
        // is still oracle-frame 1.
        let out = good1.wait().unwrap();
        assert!(out.outputs[0].1.bit_equal(&want[1][0].1));
        let stats = rt.close_session(id).unwrap();
        assert_eq!(stats.frames_completed, 2);
        assert_eq!(stats.frames_errored, 1);
        rt.shutdown();
    }

    /// A session frame goes through the same worker envelope as a
    /// stateless request, so its flight record holds the same span tree —
    /// queue_wait, execute and the executor's kernel spans — under the
    /// propagated trace id.
    #[test]
    fn traced_frames_record_the_request_span_tree() {
        let recorder = Arc::new(kfuse_obs::FlightRecorder::default());
        let rt = Runtime::new(RuntimeConfig {
            recorder: Some(Arc::clone(&recorder)),
            ..RuntimeConfig::default()
        });
        let stream = denoise(17, 11);
        let seq = frames(&stream, 1);
        let id = rt
            .open_session("vid", &stream, Schedule::Optimized)
            .unwrap();
        rt.submit_frame_with_ctx(id, seq[0].clone(), 0x51, 0x3)
            .unwrap()
            .wait()
            .unwrap();
        let rec = recorder.record_for(0x51).expect("frame recorded");
        assert_eq!(rec.outcome, kfuse_obs::RequestOutcome::Ok);
        assert_eq!(rec.span_id, 0x3);
        let has = |name: &str| rec.events.iter().any(|e| e.name == name);
        assert!(has("queue_wait") && has("execute"));
        assert!(rec.events.iter().any(|e| e.name.starts_with("kernel:")));
        assert!(rec.events.iter().all(|e| e.trace_id == 0x51));
        rt.shutdown();
    }

    /// A runner that cannot re-enqueue itself at shutdown answers the
    /// frames it strands with the typed [`RuntimeError::ShuttingDown`]
    /// (`Draining` on the wire), like a submit refused at shutdown.
    #[test]
    fn frames_stranded_at_shutdown_are_shutting_down() {
        let rt = Runtime::without_workers(RuntimeConfig::default());
        let stream = denoise(9, 7);
        let id = rt
            .open_session("vid", &stream, Schedule::Optimized)
            .unwrap();
        let handles: Vec<FrameHandle> = frames(&stream, TURN_FRAMES + 4)
            .into_iter()
            .map(|fresh| rt.submit_frame(id, fresh).unwrap())
            .collect();
        // One worker loop on this thread: the runner executes one turn,
        // then its re-enqueue meets the stopped queue.
        rt.drain_for_test();
        let outcomes: Vec<&str> = handles
            .into_iter()
            .map(|h| match h.wait() {
                Ok(_) => "ok",
                Err(RuntimeError::ShuttingDown) => "shutting_down",
                Err(e) => panic!("unexpected frame error: {e}"),
            })
            .collect();
        let mut want = vec!["ok"; TURN_FRAMES];
        want.extend(["shutting_down"; 4]);
        assert_eq!(outcomes, want);
        let stats = rt.session_stats(id).unwrap();
        assert_eq!(stats.frames_completed, TURN_FRAMES as u64);
        assert_eq!(stats.frames_errored, 4);
    }

    /// Conservation over the one job path: with stateless and session
    /// traffic mixed on one runtime — a full-queue reject, a frame shed at
    /// its session's backlog bound, expired deadlines, a bad frame, a
    /// drained-session refusal and a close with frames still pending —
    /// every request of every tenant ends in
    /// exactly one terminal counter, and the gauges return to rest.
    #[test]
    fn every_request_gets_exactly_one_terminal_outcome() {
        use crate::runtime::Admission;
        use std::time::{Duration, Instant};
        let rt = Runtime::without_workers(RuntimeConfig {
            queue_capacity: 4,
            admission: Admission::Reject,
            ..RuntimeConfig::default()
        });
        let stream = denoise(11, 9);
        let seq = frames(&stream, 4);
        let p = stream.frame().clone();
        let inputs: Vec<(ImageId, Image)> = p
            .inputs()
            .iter()
            .map(|&id| (id, synthetic_image(p.image(id).clone(), 3)))
            .collect();
        let submit = |tenant: &str, deadline: Option<Instant>| {
            rt.submit_with_deadline(tenant, &p, inputs.clone(), Schedule::Optimized, deadline)
        };
        let mut frames_ok = Vec::new();
        let mut jobs_ok = Vec::new();

        // Session 1 queues the first runner: good, bad, good.
        let s1 = rt
            .open_session("vid", &stream, Schedule::Optimized)
            .unwrap();
        frames_ok.push(rt.submit_frame(s1, seq[0].clone()).unwrap());
        let bad = rt.submit_frame(s1, Vec::new()).unwrap();
        frames_ok.push(rt.submit_frame(s1, seq[1].clone()).unwrap());
        // Tenant "a" queues two jobs beside the runner.
        jobs_ok.push(submit("a", None).unwrap());
        jobs_ok.push(submit("a", None).unwrap());
        // Tenant "b": dead on arrival, then one that expires in the queue.
        let past = Instant::now() - Duration::from_millis(1);
        assert!(matches!(
            submit("b", Some(past)),
            Err(RuntimeError::DeadlineExceeded)
        ));
        let late = submit("b", Some(Instant::now() + Duration::from_millis(20))).unwrap();
        // The queue is full: tenant "c" is rejected outright.
        assert!(matches!(submit("c", None), Err(RuntimeError::QueueFull)));
        // Session 2 drains with one frame in flight; the next is refused.
        let s2 = rt
            .open_session("vid", &stream, Schedule::Optimized)
            .unwrap();
        frames_ok.push(rt.submit_frame(s2, seq[0].clone()).unwrap());
        rt.drain_session(s2).unwrap();
        assert!(matches!(
            rt.submit_frame(s2, seq[1].clone()),
            Err(RuntimeError::SessionDraining)
        ));
        // Session 3 fills its backlog (queue_capacity frames), so the next
        // frame is shed; it then closes with all four still pending.
        let s3 = rt
            .open_session("cam", &stream, Schedule::Optimized)
            .unwrap();
        let closed: Vec<FrameHandle> = seq
            .iter()
            .map(|fresh| rt.submit_frame(s3, fresh.clone()).unwrap())
            .collect();
        assert!(matches!(
            rt.submit_frame(s3, seq[0].clone()),
            Err(RuntimeError::QueueFull)
        ));
        let cam_stats = rt.close_session(s3).unwrap();
        assert_eq!(cam_stats.frames_submitted, 4);
        assert_eq!(cam_stats.frames_rejected, 1);

        std::thread::sleep(Duration::from_millis(40));
        rt.drain_for_test();
        for h in frames_ok {
            h.wait().unwrap();
        }
        for h in jobs_ok {
            h.wait().unwrap();
        }
        assert!(matches!(bad.wait(), Err(RuntimeError::Stream(_))));
        assert!(matches!(late.wait(), Err(RuntimeError::DeadlineExceeded)));
        for h in closed {
            assert!(matches!(h.wait(), Err(RuntimeError::SessionClosed)));
        }
        rt.close_session(s1).unwrap();
        rt.close_session(s2).unwrap();

        let snap = rt.metrics();
        let tenants: Vec<&str> = snap.pipelines.iter().map(|m| m.name.as_str()).collect();
        for tenant in ["a", "b", "c", "vid", "cam"] {
            assert!(tenants.contains(&tenant), "{tenant} not metered");
        }
        for m in &snap.pipelines {
            let terminal = m.completed
                + m.errors
                + m.rejected
                + m.shed
                + m.deadline_misses
                + m.admission_timeouts;
            assert_eq!(m.requests, terminal, "tenant {} leaks requests", m.name);
        }
        let vid = snap.pipeline("vid").unwrap();
        assert_eq!((vid.requests, vid.completed, vid.errors), (5, 3, 1));
        assert_eq!(vid.rejected, 1);
        let cam = snap.pipeline("cam").unwrap();
        assert_eq!((cam.requests, cam.errors, cam.shed), (5, 4, 1));
        assert_eq!(snap.runtime.in_flight, 0);
        assert_eq!(snap.runtime.queue_depth, 0);
        assert_eq!(snap.runtime.sessions_open, 0);
    }

    #[test]
    fn unknown_session_is_typed() {
        let rt = Runtime::new(RuntimeConfig::default());
        match rt.submit_frame(999, Vec::new()) {
            Err(RuntimeError::UnknownSession(999)) => {}
            other => panic!("expected UnknownSession(999), got {other:?}"),
        }
        match rt.drain_session(999) {
            Err(RuntimeError::UnknownSession(999)) => {}
            other => panic!("expected UnknownSession(999), got {other:?}"),
        }
        rt.shutdown();
    }
}
