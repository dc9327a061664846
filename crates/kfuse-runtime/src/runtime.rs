//! The serving runtime: one worker pool, one admission queue with
//! priority classes, and plan-cached execution.
//!
//! A [`Runtime`] owns one bounded work queue, one plan cache and one
//! worker pool. Jobs are not a FIFO: each of the three [`Priority`]
//! classes holds per-tenant lanes drained round-robin, one job per lane
//! per turn, so one tenant flooding the queue can no longer head-of-line
//! block everyone else. Each job names a tenant pipeline, carries its
//! input images and requested fusion [`Schedule`], and is answered
//! through a one-shot result [`Handle`] ([`JobHandle`]).
//!
//! **One job path.** Every admitted unit of work — a stateless job or a
//! frame of a streaming session ([`crate::session`]) — carries a `Ticket`
//! (result slot, admission instant, deadline, trace context) through one
//! push onto the queue and, once dequeued, through one worker
//! envelope (`serve`): flight-recorder begin, the `queue_wait` span, the
//! dequeue-side deadline check, the `in_flight` gauge, `catch_unwind`,
//! latency and SLO accounting, recorder finish, and the counted slot
//! fill behind a drop guard, so every dequeued unit gets exactly one
//! terminal outcome even if the worker unwinds. Only the body differs.
//! The stateless body:
//!
//! 1. fingerprints the submitted pipeline (structural + id-layout hashes),
//! 2. consults the shared LRU [`PlanCache`] under
//!    `(fingerprint, schedule, exec config)` — reusing a plan only when the
//!    layout hash also matches (see [`crate::cache`]),
//! 3. on miss: runs the fusion planner (`kfuse_dsl::compile`) and lowers
//!    the fused pipeline to a [`CompiledPlan`], caching the result; each
//!    phase is a `fuse` or `lower` span inside the request's `plan` span,
//! 4. runs the plan ([`CompiledPlan::run`]) on the job's inputs under the
//!    request's tracer, reusing the worker's persistent [`Scratch`] so the
//!    steady state does not allocate.
//!
//! The session body steps the session's state rings on that same scratch
//! and under that same tracer.
//!
//! Admission control is configurable: when the queue is full, [`Admission::Reject`]
//! fails the submit with [`RuntimeError::QueueFull`] (shed load, keep
//! latency bounded), [`Admission::Block`] parks the submitter until a
//! worker frees a slot (backpressure), and
//! [`Admission::BlockWithTimeout`] parks with an upper bound — the mode a
//! network front-end needs, since a connection handler can never wait
//! forever. Load is additionally shed *early*, at admission, where a
//! rejection costs nothing: a job whose deadline has already expired at
//! submit time is refused with [`RuntimeError::DeadlineExceeded`] before
//! it can occupy queue capacity (or park the submitter waiting to admit
//! provably-dead work); and `Normal`/`Low`-priority work is refused with
//! [`RuntimeError::QueueFull`] once queue depth crosses its
//! class's pressure threshold, reserving the remaining capacity for
//! higher classes. Jobs may still carry a deadline that expires *in* the
//! queue ([`Runtime::submit_with_deadline`]): those are answered with
//! [`RuntimeError::DeadlineExceeded`] at dequeue, before any planning or
//! execution. [`Runtime::shutdown`] is graceful: it stops admission,
//! lets the workers drain every queued job, and joins them — no accepted
//! request is ever dropped.

use crate::cache::{CachedPlan, PlanCache, PlanKey};
use crate::metrics::{MetricsRegistry, MetricsSnapshot, PipelineMetrics, RuntimeGauges};
use kfuse_core::{PlanPolicy, StaticModelPolicy};
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_obs::{ActiveRequest, ArgValue, FlightRecorder, RequestOutcome, Tracer};
use kfuse_sim::{CompiledPlan, ExecError, Execution, FastConfig, Scratch};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What `submit` does when the work queue is at capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Park the submitting thread until a slot frees up (backpressure).
    Block,
    /// Fail fast with [`RuntimeError::QueueFull`] (load shedding).
    Reject,
    /// Park the submitting thread like [`Admission::Block`], but give up
    /// with [`RuntimeError::AdmissionTimeout`] once the wait exceeds the
    /// given duration. A network front-end must use this (or `Reject`):
    /// an unbounded `Block` wait would let one saturated runtime pin every
    /// connection-handler thread forever.
    BlockWithTimeout(Duration),
}

/// Scheduling class of a submitted job. Classes are drained strictly in
/// order — every queued `High` job is served before any `Normal` job,
/// and `Normal` before `Low` — while *within* a class tenants share
/// capacity via round-robin. Sustained `High` load can starve
/// `Low`; the pressure thresholds in [`RuntimeConfig`] exist to shed
/// low classes early instead of letting them rot in the queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Latency-sensitive interactive work; served first, never
    /// pressure-shed (only a completely full queue refuses it).
    High,
    /// The default class.
    #[default]
    Normal,
    /// Batch/background work; served last, shed first under pressure.
    Low,
}

impl Priority {
    /// Dense index used for the per-class queues (`High`=0 .. `Low`=2).
    pub(crate) fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Stable lowercase label for metrics and wire diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Configuration of a [`Runtime`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Maximum queued (admitted but not yet executing) jobs; also the
    /// bound on each streaming session's pending-frame backlog.
    pub queue_capacity: usize,
    /// Behavior when the queue is full.
    pub admission: Admission,
    /// Queue-depth fraction past which `Low`-priority submissions are
    /// shed immediately instead of queued/blocked. `1.0` disables.
    pub shed_low_fraction: f64,
    /// Queue-depth fraction past which `Normal`-priority submissions are
    /// shed immediately. `1.0` disables. `High` is never pressure-shed.
    pub shed_normal_fraction: f64,
    /// Maximum cached compiled plans; 0 disables plan caching.
    pub plan_cache_capacity: usize,
    /// Executor configuration used for every job (part of the cache key).
    pub exec: FastConfig,
    /// Planning policy used on cache misses: who prices the fusion
    /// decisions ([`StaticModelPolicy`] by default).
    pub policy: Arc<dyn PlanPolicy>,
    /// Trace recorder for per-request serving spans (`queue_wait`, `plan`,
    /// `execute`) and per-kernel executor spans. Disabled by default: the
    /// hot path then only branches on an `Option` and records nothing.
    pub tracer: Tracer,
    /// Always-on flight recorder: every job's span tree is captured under
    /// its (propagated or synthesized) trace id into a bounded ring with
    /// tail-based retention — see [`kfuse_obs::FlightRecorder`]. `None`
    /// (the default) disables per-request recording entirely.
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            admission: Admission::Block,
            // Pressure shedding is opt-in: by default the runtime queues
            // everything until full. The network server keeps these
            // defaults too (it sets only `admission`); `loadgen --sweep`
            // turns the thresholds on for its overload phase.
            shed_low_fraction: 1.0,
            shed_normal_fraction: 1.0,
            plan_cache_capacity: 32,
            // One executor thread per job: in a serving runtime the
            // parallelism lives across requests, not inside one.
            exec: FastConfig {
                threads: Some(1),
                ..FastConfig::default()
            },
            policy: Arc::new(StaticModelPolicy::paper_default()),
            tracer: Tracer::disabled(),
            recorder: None,
        }
    }
}

/// Errors a submission or execution can produce.
#[derive(Debug)]
pub enum RuntimeError {
    /// The executor rejected the pipeline or its inputs.
    Exec(ExecError),
    /// The queue was full and admission control is [`Admission::Reject`].
    QueueFull,
    /// The runtime is shutting down and no longer accepts work.
    ShuttingDown,
    /// The queue stayed full past the [`Admission::BlockWithTimeout`]
    /// deadline; the job was never admitted.
    AdmissionTimeout,
    /// The job's deadline had already passed when a worker dequeued it;
    /// the job was dropped without executing (doing work nobody can use
    /// anymore only adds queueing delay for everyone behind it).
    DeadlineExceeded,
    /// The job panicked inside a worker (a bug, but contained: the worker
    /// survives and the panic message is forwarded to the caller).
    Panicked(String),
    /// No session with the given id exists on this runtime (never opened,
    /// already closed, or opened on a different runtime).
    UnknownSession(u64),
    /// The session is draining: frames submitted before the drain still
    /// complete in order, but new frames are refused.
    SessionDraining,
    /// The session was closed; its state planes are freed and no further
    /// frames are accepted.
    SessionClosed,
    /// The temporal stream itself is invalid or failed to compile/step
    /// (see [`kfuse_stream::StreamError`]).
    Stream(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Exec(e) => write!(f, "execution failed: {e}"),
            RuntimeError::QueueFull => write!(f, "work queue is full"),
            RuntimeError::ShuttingDown => write!(f, "runtime is shutting down"),
            RuntimeError::AdmissionTimeout => {
                write!(f, "work queue stayed full past the admission timeout")
            }
            RuntimeError::DeadlineExceeded => {
                write!(f, "job deadline expired before a worker picked it up")
            }
            RuntimeError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            RuntimeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            RuntimeError::SessionDraining => {
                write!(f, "session is draining and no longer accepts frames")
            }
            RuntimeError::SessionClosed => write!(f, "session is closed"),
            RuntimeError::Stream(msg) => write!(f, "stream error: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ExecError> for RuntimeError {
    fn from(e: ExecError) -> Self {
        RuntimeError::Exec(e)
    }
}

/// One-shot result slot a worker fills and exactly one [`Handle`]
/// consumes — by blocking in [`Handle::wait`] or through an
/// [`Handle::on_ready`] watcher.
pub(crate) struct Slot<T> {
    state: Mutex<SlotState<T>>,
    done: Condvar,
}

type Watcher<T> = Box<dyn FnOnce(Result<T, RuntimeError>) + Send>;

struct SlotState<T> {
    result: Option<Result<T, RuntimeError>>,
    /// Watcher registered by [`Handle::on_ready`] before the result
    /// arrived: the fill hands it the result instead of storing it.
    watcher: Option<Watcher<T>>,
}

impl<T> Slot<T> {
    /// Poisoned slot locks are ignored: the state is valid at every
    /// instant the lock is held.
    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores the result and wakes the waiter, or hands the result to the
    /// registered watcher (outside the slot lock).
    fn fill(&self, result: Result<T, RuntimeError>) {
        let mut state = self.lock();
        match state.watcher.take() {
            Some(watcher) => {
                drop(state);
                watcher(result);
            }
            None => {
                state.result = Some(result);
                self.done.notify_all();
            }
        }
    }
}

/// Handle to one admitted unit of work — a stateless job ([`JobHandle`])
/// or a session frame ([`crate::FrameHandle`]). The result is consumed
/// once: by [`Handle::wait`] or by an [`Handle::on_ready`] watcher.
///
/// Every dequeued unit is answered, even if the worker panics mid-unit
/// (the result is then [`RuntimeError::Panicked`]): the worker envelope
/// fills the slot through a drop guard that also fires on unwind.
pub struct Handle<T> {
    slot: Arc<Slot<T>>,
}

/// Handle to a submitted stateless job.
pub type JobHandle = Handle<Execution>;

impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle").finish_non_exhaustive()
    }
}

impl<T> Handle<T> {
    /// Blocks until the unit completes and returns its result.
    pub fn wait(self) -> Result<T, RuntimeError> {
        let mut state = self.slot.lock();
        loop {
            if let Some(result) = state.result.take() {
                return result;
            }
            state = self
                .slot
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Hands the result to `f` as soon as it exists: immediately, on the
    /// caller's thread, if it already does; otherwise on the worker thread
    /// that completes the unit. This is what lets a connection handler
    /// keep N units in flight and write replies in completion order
    /// instead of submission order (no head-of-line blocking on a slow
    /// request).
    pub fn on_ready(self, f: impl FnOnce(Result<T, RuntimeError>) + Send + 'static) {
        let mut state = self.slot.lock();
        match state.result.take() {
            Some(result) => {
                drop(state);
                f(result);
            }
            None => state.watcher = Some(Box::new(f)),
        }
    }
}

/// What every admitted unit of work carries to the worker envelope: the
/// slot its answer goes to, its admission instant, its deadline, and its
/// propagated trace context (0 = none; a flight recorder then synthesizes
/// a high-bit-tagged id at dequeue).
pub(crate) struct Ticket<T> {
    pub(crate) slot: Arc<Slot<T>>,
    submitted: Instant,
    deadline: Option<Instant>,
    trace_id: u64,
    span_id: u64,
}

impl<T> Ticket<T> {
    /// A ticket stamped now, and the handle its answer will reach.
    pub(crate) fn issue(
        deadline: Option<Instant>,
        trace_id: u64,
        span_id: u64,
    ) -> (Self, Handle<T>) {
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState {
                result: None,
                watcher: None,
            }),
            done: Condvar::new(),
        });
        let ticket = Self {
            slot: Arc::clone(&slot),
            submitted: Instant::now(),
            deadline,
            trace_id,
            span_id,
        };
        (ticket, Handle { slot })
    }
}

/// Who a unit of work is metered against: its tenant's metrics and, for a
/// session frame, the session's own frame counters.
#[derive(Clone, Copy)]
pub(crate) struct Meter<'a> {
    pub(crate) tenant: &'a str,
    pub(crate) metrics: &'a PipelineMetrics,
    pub(crate) frames: Option<&'a crate::session::Counters>,
}

impl Meter<'_> {
    /// Counts `result` as the unit's terminal outcome, then delivers it.
    pub(crate) fn answer<T>(&self, slot: &Slot<T>, result: Result<T, RuntimeError>) {
        match &result {
            Ok(_) => self.metrics.record_completed(),
            Err(RuntimeError::DeadlineExceeded) => self.metrics.record_deadline_miss(),
            Err(_) => self.metrics.record_error(),
        }
        if let Some(frames) = self.frames {
            frames.count(result.is_ok());
        }
        slot.fill(result);
    }
}

/// Guarantees a dequeued unit is answered — and its outcome counted —
/// exactly once.
///
/// The envelope answers normally via [`CompletionGuard::answer`]; if
/// it unwinds first — a panic anywhere between dequeue and slot fill
/// outside the `catch_unwind` around the body, e.g. in the metrics or
/// tracing paths — the drop impl counts an error and answers the
/// submitter with [`RuntimeError::Panicked`] instead of leaving it
/// blocked in [`Handle::wait`] forever.
struct CompletionGuard<'a, T> {
    slot: Option<Arc<Slot<T>>>,
    meter: Meter<'a>,
}

impl<T> CompletionGuard<'_, T> {
    fn answer(&mut self, result: Result<T, RuntimeError>) {
        if let Some(slot) = self.slot.take() {
            self.meter.answer(&slot, result);
        }
    }
}

impl<T> Drop for CompletionGuard<'_, T> {
    fn drop(&mut self) {
        self.answer(Err(RuntimeError::Panicked(
            "worker unwound before completing the job".to_string(),
        )));
    }
}

/// A unit of queued work: an ordinary pipeline execution, or one turn of
/// a streaming session's frame runner.
pub(crate) struct Job {
    tenant: String,
    priority: Priority,
    metrics: Arc<PipelineMetrics>,
    payload: Payload,
}

impl Job {
    /// A stateless job, as opposed to a session runner: only these count
    /// toward the queue depth (see [`QueueState::len`]).
    fn is_stateless(&self) -> bool {
        matches!(self.payload, Payload::Pipeline(_))
    }
}

pub(crate) enum Payload {
    /// A single stateless pipeline execution (the classic request path).
    Pipeline(PipelineJob),
    /// One scheduling turn of a session's frame runner: the worker drains
    /// (a bounded slice of) the session's pending-frame FIFO in order.
    /// At most one runner per session is ever queued, which is what
    /// serializes a session's frames while letting different sessions run
    /// on different workers.
    Session(Arc<crate::session::SessionEntry>),
}

pub(crate) struct PipelineJob {
    pipeline: Pipeline,
    inputs: Vec<(ImageId, Image)>,
    schedule: Schedule,
    ticket: Ticket<Execution>,
}

/// One tenant's FIFO lane within a priority class. Lanes are removed the
/// moment they empty, so the lane vector only ever holds tenants with
/// queued work.
struct TenantLane {
    tenant: String,
    jobs: VecDeque<Job>,
}

/// One priority class: per-tenant lanes drained round-robin, one job per
/// lane per turn. Every active tenant is visited once per round, so a
/// flooding tenant delays a light tenant by at most one round, not by its
/// whole backlog.
#[derive(Default)]
struct ClassQueue {
    lanes: Vec<TenantLane>,
    cursor: usize,
}

impl ClassQueue {
    fn push(&mut self, job: Job) {
        match self.lanes.iter_mut().find(|l| l.tenant == job.tenant) {
            Some(lane) => lane.jobs.push_back(job),
            None => self.lanes.push(TenantLane {
                tenant: job.tenant.clone(),
                jobs: VecDeque::from([job]),
            }),
        }
    }

    /// Pops the front job of the lane under the cursor and moves the
    /// cursor on; an emptied lane is removed, which leaves the cursor on
    /// what was the next lane.
    fn pop(&mut self) -> Option<Job> {
        if self.lanes.is_empty() {
            return None;
        }
        if self.cursor >= self.lanes.len() {
            self.cursor = 0;
        }
        let lane = &mut self.lanes[self.cursor];
        let job = lane.jobs.pop_front().expect("lanes are never empty");
        if lane.jobs.is_empty() {
            self.lanes.remove(self.cursor);
        } else {
            self.cursor += 1;
        }
        Some(job)
    }
}

/// The work queue: three strict-priority classes, each a round-robin set
/// of per-tenant lanes.
struct QueueState {
    classes: [ClassQueue; 3],
    /// Queued stateless jobs across all classes (kept so depth checks do
    /// not walk the lanes): what capacity, the pressure thresholds and the
    /// `queue_depth` gauge count. Session runners stay out of it; they
    /// bypass capacity, and at most one per open session is ever queued
    /// (`sessions_open`).
    len: usize,
    accepting: bool,
}

impl QueueState {
    fn new() -> Self {
        Self {
            classes: [
                ClassQueue::default(),
                ClassQueue::default(),
                ClassQueue::default(),
            ],
            len: 0,
            accepting: true,
        }
    }

    fn push(&mut self, job: Job) {
        self.len += usize::from(job.is_stateless());
        self.classes[job.priority.index()].push(job);
    }

    fn pop(&mut self) -> Option<Job> {
        let job = self.classes.iter_mut().find_map(ClassQueue::pop)?;
        self.len -= usize::from(job.is_stateless());
        Some(job)
    }
}

/// State shared between the API side and the workers: the queue, the plan
/// cache and the tenant metrics.
pub(crate) struct Shared {
    queue: Mutex<QueueState>,
    job_available: Condvar,
    space_available: Condvar,
    pub(crate) cache: Mutex<PlanCache>,
    pub(crate) metrics: MetricsRegistry,
    /// Jobs currently executing on worker threads (gauge).
    in_flight: AtomicU64,
    /// Deepest the queue has ever been (high-water mark): an instantaneous
    /// `queue_depth` sampled at `metrics()` time says nothing about bursts
    /// between scrapes; the HWM pins the worst backlog since startup.
    queue_depth_hwm: AtomicU64,
    pub(crate) cfg: RuntimeConfig,
}

/// A multi-tenant pipeline-serving runtime. See the [module docs](crate::runtime).
pub struct Runtime {
    pub(crate) shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Open streaming sessions (see [`crate::session`]).
    pub(crate) sessions: crate::session::SessionTable,
}

impl Runtime {
    /// Starts a runtime with `cfg.workers` worker threads.
    pub fn new(cfg: RuntimeConfig) -> Self {
        Self::start(cfg, true)
    }

    fn start(cfg: RuntimeConfig, spawn: bool) -> Self {
        let workers = if spawn { cfg.workers.max(1) } else { 0 };
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::new()),
            job_available: Condvar::new(),
            space_available: Condvar::new(),
            cache: Mutex::new(PlanCache::new(cfg.plan_cache_capacity)),
            metrics: MetricsRegistry::default(),
            in_flight: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            cfg,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kfuse-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning runtime worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(handles),
            sessions: crate::session::SessionTable::default(),
        }
    }

    /// A runtime whose queue is never drained — deterministic admission
    /// tests fill it without racing the workers.
    #[cfg(test)]
    pub(crate) fn without_workers(cfg: RuntimeConfig) -> Self {
        Self::start(cfg, false)
    }

    /// Submits a job for `name` (the tenant/metrics key) and returns a
    /// handle to wait on. `pipeline` is the *unfused* pipeline; the
    /// requested `schedule` decides how much fusion the planner applies.
    pub fn submit(
        &self,
        name: &str,
        pipeline: &Pipeline,
        inputs: Vec<(ImageId, Image)>,
        schedule: Schedule,
    ) -> Result<JobHandle, RuntimeError> {
        self.submit_with_deadline(name, pipeline, inputs, schedule, None)
    }

    /// Like [`Runtime::submit`], with a completion deadline. A job whose
    /// deadline has passed when a worker dequeues it is answered with
    /// [`RuntimeError::DeadlineExceeded`] **without executing** — the
    /// caller (e.g. a network client that gave up) can no longer use the
    /// result, so spending worker time on it would only grow the queue
    /// wait of every job behind it. `None` means no deadline.
    pub fn submit_with_deadline(
        &self,
        name: &str,
        pipeline: &Pipeline,
        inputs: Vec<(ImageId, Image)>,
        schedule: Schedule,
        deadline: Option<Instant>,
    ) -> Result<JobHandle, RuntimeError> {
        self.submit_with_ctx(
            name,
            pipeline,
            inputs,
            schedule,
            Priority::Normal,
            deadline,
            0,
            0,
        )
    }

    /// Like [`Runtime::submit_with_deadline`], carrying a scheduling
    /// [`Priority`] and a propagated trace context. `trace_id`/`span_id`
    /// travel with the job so every serving span (and the flight-recorder
    /// record) lands under the client's trace id — the server anchors the
    /// wire-decoded context here. Zero means "no client trace": with a
    /// recorder installed, a synthesized high-bit-tagged id is used
    /// instead.
    ///
    /// Admission sheds cheap-to-reject work before it costs anything:
    ///
    /// * a deadline already expired at submit time → immediate
    ///   [`RuntimeError::DeadlineExceeded`] (counted as a deadline miss;
    ///   nothing is queued, no worker ever sees it);
    /// * queue depth past the class's pressure threshold → immediate
    ///   [`RuntimeError::QueueFull`] (counted as shed), even under
    ///   blocking admission — blocking is reserved for work the runtime
    ///   actually intends to take.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_with_ctx(
        &self,
        name: &str,
        pipeline: &Pipeline,
        inputs: Vec<(ImageId, Image)>,
        schedule: Schedule,
        priority: Priority,
        deadline: Option<Instant>,
        trace_id: u64,
        span_id: u64,
    ) -> Result<JobHandle, RuntimeError> {
        let shared = &*self.shared;
        let metrics = shared.metrics.handle(name);
        metrics.record_request();
        // Dead on arrival: the deadline expired before admission. The
        // whole point of early shedding — the reject costs one clock
        // read instead of queue capacity plus a dequeue-side drop.
        if let Some(d) = deadline {
            if Instant::now() >= d {
                metrics.record_deadline_miss();
                return Err(RuntimeError::DeadlineExceeded);
            }
        }
        let (ticket, handle) = Ticket::issue(deadline, trace_id, span_id);
        let job = Job {
            tenant: name.to_string(),
            priority,
            metrics: Arc::clone(&metrics),
            payload: Payload::Pipeline(PipelineJob {
                pipeline: pipeline.clone(),
                inputs,
                schedule,
                ticket,
            }),
        };
        let cfg = &shared.cfg;
        let capacity = cfg.queue_capacity;
        // Per-class pressure threshold, in queue slots. A threshold at or
        // past capacity is disabled (the plain full-queue admission policy
        // already covers it).
        let pressure = match priority {
            Priority::High => capacity,
            Priority::Normal => (cfg.shed_normal_fraction * capacity as f64).ceil() as usize,
            Priority::Low => (cfg.shed_low_fraction * capacity as f64).ceil() as usize,
        };
        // For BlockWithTimeout: the instant at which waiting for queue
        // space becomes a failed admission.
        let give_up = match cfg.admission {
            Admission::BlockWithTimeout(t) => Some(Instant::now() + t),
            _ => None,
        };
        let mut queue = shared.queue.lock().unwrap();
        let depth = loop {
            if !queue.accepting {
                metrics.record_rejected();
                return Err(RuntimeError::ShuttingDown);
            }
            if pressure < capacity && queue.len >= pressure {
                metrics.record_shed();
                return Err(RuntimeError::QueueFull);
            }
            if queue.len < capacity {
                break shared.push(&mut queue, job);
            }
            match cfg.admission {
                Admission::Reject => {
                    metrics.record_rejected();
                    return Err(RuntimeError::QueueFull);
                }
                Admission::Block => {
                    queue = shared.space_available.wait(queue).unwrap();
                }
                Admission::BlockWithTimeout(_) => {
                    let now = Instant::now();
                    let give_up = give_up.expect("deadline computed above");
                    if now >= give_up {
                        metrics.record_admission_timeout();
                        return Err(RuntimeError::AdmissionTimeout);
                    }
                    let (guard, _timed_out) = shared
                        .space_available
                        .wait_timeout(queue, give_up - now)
                        .unwrap();
                    queue = guard;
                }
            }
        };
        drop(queue);
        // Trace-counter emission happens *after* the queue lock is
        // released: a recording tracer takes its own lock and formats
        // arguments, and doing that under the queue mutex serialized
        // every submitter behind tracing cost (see DESIGN.md §3.15).
        cfg.tracer.counter("queue_depth", "serve", depth as f64);
        Ok(handle)
    }

    /// Convenience: submit and wait.
    pub fn execute(
        &self,
        name: &str,
        pipeline: &Pipeline,
        inputs: Vec<(ImageId, Image)>,
        schedule: Schedule,
    ) -> Result<Execution, RuntimeError> {
        self.submit(name, pipeline, inputs, schedule)?.wait()
    }

    /// A point-in-time snapshot of every tenant's metrics plus the
    /// runtime-wide gauges (queue depth, in-flight jobs, plan-cache
    /// state) and the plan cache's per-fingerprint lookup tallies.
    pub fn metrics(&self) -> MetricsSnapshot {
        let shared = &*self.shared;
        let queue_depth = shared.queue.lock().unwrap().len as u64;
        let sessions_open = self.session_count() as u64;
        let mut snap = shared.metrics.snapshot();
        let cache = shared.cache.lock().unwrap();
        snap.runtime = RuntimeGauges {
            queue_depth,
            queue_depth_hwm: shared.queue_depth_hwm.load(Ordering::Relaxed),
            in_flight: shared.in_flight.load(Ordering::Relaxed),
            cache_size: cache.len() as u64,
            cache_capacity: cache.capacity() as u64,
            cache_evictions: cache.evictions(),
            sessions_open,
        };
        snap.fingerprints = cache.fingerprint_stats();
        snap
    }

    /// Number of compiled plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.shared.cache.lock().unwrap().len()
    }

    /// The installed flight recorder, if any (the HTTP sidecar's
    /// `/debug/requests` endpoint dumps it).
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.shared.cfg.recorder.as_ref()
    }

    /// Graceful shutdown: stops admission, drains every queued job, and
    /// joins the workers. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        let shared = &*self.shared;
        shared.queue.lock().unwrap().accepting = false;
        // Wake idle workers (to observe the flag and exit) and any
        // submitters parked on backpressure (to reject).
        shared.job_available.notify_all();
        shared.space_available.notify_all();
        for h in std::mem::take(&mut *self.workers.lock().unwrap()) {
            let _ = h.join();
        }
    }

    /// Test-only synchronous drain: stops admission and runs a worker
    /// loop on the calling thread until every queued job is answered.
    /// Lets queue-order and dequeue-path tests execute deterministically
    /// against a [`Runtime::without_workers`] runtime.
    #[cfg(test)]
    pub(crate) fn drain_for_test(&self) {
        self.shared.queue.lock().unwrap().accepting = false;
        self.shared.job_available.notify_all();
        worker_loop(&self.shared);
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Queues one turn of a session's frame runner.
///
/// Runners bypass queue capacity and the QoS shed thresholds on purpose,
/// and are not counted in the queue depth: at most one runner per open
/// session ever exists, the per-session pending FIFO is bounded
/// separately (see [`crate::session`]), and a runner that cannot be
/// queued would strand already-accepted frames. Only a shut-down runtime
/// refuses.
pub(crate) fn enqueue_session_runner(
    shared: &Shared,
    entry: &Arc<crate::session::SessionEntry>,
) -> Result<(), RuntimeError> {
    let mut queue = shared.queue.lock().unwrap();
    if !queue.accepting {
        return Err(RuntimeError::ShuttingDown);
    }
    shared.push(
        &mut queue,
        Job {
            tenant: entry.tenant.clone(),
            priority: entry.priority,
            metrics: Arc::clone(&entry.metrics),
            payload: Payload::Session(Arc::clone(entry)),
        },
    );
    Ok(())
}

fn worker_loop(shared: &Shared) {
    // One scratch pool per worker, reused for every job and every session
    // frame: after a few units the buffers reach their high-water mark and
    // execution stops allocating.
    let mut scratch = Scratch::default();
    loop {
        let polled = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop() {
                    // Only a stateless job held a slot a submitter waits for.
                    if job.is_stateless() {
                        shared.space_available.notify_one();
                    }
                    break Some((job, queue.len));
                }
                if !queue.accepting {
                    break None;
                }
                queue = shared.job_available.wait(queue).unwrap();
            }
        };
        let Some((job, depth)) = polled else { return };
        // Counter emission deliberately outside the queue lock — a
        // recording tracer serializes on its own lock and must not extend
        // the queue critical section (DESIGN.md §3.15).
        shared
            .cfg
            .tracer
            .counter("queue_depth", "serve", depth as f64);
        match job.payload {
            Payload::Pipeline(PipelineJob {
                pipeline,
                inputs,
                schedule,
                ticket,
            }) => {
                let meter = Meter {
                    tenant: &job.tenant,
                    metrics: &job.metrics,
                    frames: None,
                };
                serve(shared, &mut scratch, meter, ticket, |scratch, tracer| {
                    run_job(shared, meter, &pipeline, inputs, schedule, scratch, tracer)
                });
            }
            Payload::Session(entry) => {
                crate::session::run_session_turn(shared, &entry, &mut scratch);
            }
        }
    }
}

/// The worker envelope: the one function every dequeued unit of work — a
/// stateless job or a session frame — runs through. Around `body` it
/// does, in order: flight-recorder begin and the choice of span tracer;
/// the `queue_wait` span; the dequeue-side deadline check; the
/// `in_flight` gauge; `catch_unwind` (a panicking body fails its own
/// caller, not the worker and every unit queued behind it); latency plus
/// exemplar and SLO accounting; recorder finish; and the outcome count
/// plus slot fill through a [`CompletionGuard`].
///
/// Spans go to the request-scoped tracer when a flight recorder is active
/// (so they carry the trace id and land in the request's record), to the
/// runtime's tracer scoped to the propagated trace id otherwise.
pub(crate) fn serve<T>(
    shared: &Shared,
    scratch: &mut Scratch,
    meter: Meter<'_>,
    ticket: Ticket<T>,
    body: impl FnOnce(&mut Scratch, &Tracer) -> Result<T, RuntimeError>,
) {
    let Ticket {
        slot,
        submitted,
        deadline,
        trace_id,
        span_id,
    } = ticket;
    // From here on the submitter is owed an answer.
    let mut guard = CompletionGuard {
        slot: Some(slot),
        meter,
    };
    let cfg = &shared.cfg;
    // Request-scoped recording: the flight recorder hands out a private
    // tracer (uncontended; mirrored into the global tracer at finish)
    // under the unit's propagated — or synthesized — trace id.
    let mut request = cfg
        .recorder
        .as_ref()
        .map(|r| r.begin(trace_id, span_id, meter.tenant, &cfg.tracer));
    let tracer = match &request {
        Some(active) => active.tracer().clone(),
        None if trace_id != 0 => cfg.tracer.scoped(trace_id),
        None => cfg.tracer.clone(),
    };
    if tracer.is_enabled() {
        // Time spent admitted but waiting for a worker (for a frame, also
        // behind earlier frames of its session).
        tracer.complete(
            "queue_wait",
            "serve",
            tracer.ts_of(submitted),
            tracer.now_us(),
            vec![("pipeline", ArgValue::Str(meter.tenant.to_string()))],
        );
    }
    // A unit whose deadline expired in the queue is answered before any
    // planning or execution and costs no worker time (the network layer
    // turns this into a typed wire error instead of a late result).
    let result = if deadline.is_some_and(|d| Instant::now() >= d) {
        Err(RuntimeError::DeadlineExceeded)
    } else {
        #[cfg(test)]
        fail_point_after_dequeue(meter.tenant);
        let gauge = |n: u64| cfg.tracer.counter("in_flight", "serve", n as f64);
        gauge(shared.in_flight.fetch_add(1, Ordering::Relaxed) + 1);
        let result = catch_unwind(AssertUnwindSafe(|| body(scratch, &tracer)))
            .unwrap_or_else(|panic| Err(RuntimeError::Panicked(panic_message(&*panic))));
        gauge(shared.in_flight.fetch_sub(1, Ordering::Relaxed) - 1);
        result
    };
    let us = micros(submitted.elapsed());
    // SLO accounting for deadlined units: how much of the deadline budget
    // the runtime burned, and whether the SLO was met.
    if let Some(deadline) = deadline {
        let budget_us = deadline.checked_duration_since(submitted).map_or(0, micros);
        meter.metrics.record_slo(budget_us, us);
    }
    let latency_trace = request.as_ref().map_or(trace_id, ActiveRequest::trace_id);
    meter.metrics.record_latency_traced(us, latency_trace);
    if let (Some(r), Some(active)) = (cfg.recorder.as_ref(), request.take()) {
        let outcome = match &result {
            Ok(_) => RequestOutcome::Ok,
            Err(RuntimeError::DeadlineExceeded) => RequestOutcome::DeadlineMissed,
            Err(e) => RequestOutcome::Errored(e.to_string()),
        };
        r.finish(active, outcome);
    }
    guard.answer(result);
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The message a caught panic carried.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

/// Runs `f` under an `execute` span — the execution span of both the
/// stateless and the session body.
pub(crate) fn execute_span<R>(tracer: &Tracer, tenant: &str, f: impl FnOnce() -> R) -> R {
    let start = tracer.now_us();
    let out = f();
    if tracer.is_enabled() {
        tracer.complete(
            "execute",
            "serve",
            start,
            tracer.now_us(),
            vec![("pipeline", ArgValue::Str(tenant.to_string()))],
        );
    }
    out
}

/// Test-only panic injection: submitting under this tenant name makes the
/// worker unwind *outside* the `catch_unwind` envelope, in the region the
/// [`CompletionGuard`] exists to cover. Without the guard the submitter
/// would block in [`Handle::wait`] forever.
#[cfg(test)]
const PANIC_AFTER_DEQUEUE_TENANT: &str = "__kfuse_test_panic_after_dequeue__";

#[cfg(test)]
fn fail_point_after_dequeue(tenant: &str) {
    assert!(
        tenant != PANIC_AFTER_DEQUEUE_TENANT,
        "injected panic after dequeue"
    );
}

impl Shared {
    /// Pushes `job` onto the locked queue, raises the high-water mark and
    /// wakes one worker; returns the new depth.
    fn push(&self, queue: &mut QueueState, job: Job) -> u64 {
        queue.push(job);
        let depth = queue.len as u64;
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
        self.job_available.notify_one();
        depth
    }

    /// The cache entry for `key` and whether the cache already had it: on
    /// a miss `p` is fused, lowered and inserted, each phase under its own
    /// `tracer` span (`fuse`, `lower`); a hit records
    /// none. `p` is validated on a miss only (planning assumes a
    /// well-formed DAG); `invalid` turns the validation message into the
    /// caller's error.
    pub(crate) fn plan_for(
        &self,
        key: PlanKey,
        p: &Pipeline,
        tracer: &Tracer,
        invalid: impl FnOnce(String) -> RuntimeError,
    ) -> Result<(CachedPlan, bool), RuntimeError> {
        let layout = p.binding_fingerprint();
        if let Some(entry) = self.cache.lock().unwrap().lookup(&key, layout) {
            return Ok((entry, true));
        }
        p.validate().map_err(|e| invalid(e.to_string()))?;
        let fused = {
            let _span = tracer.span("fuse", "plan");
            kfuse_dsl::compile(p, key.schedule, self.cfg.policy.fusion_config())
        };
        let plan = {
            let _span = tracer.span("lower", "plan");
            Arc::new(CompiledPlan::compile(&fused)?)
        };
        let entry = CachedPlan { layout, plan };
        self.cache.lock().unwrap().insert(key, entry.clone());
        Ok((entry, false))
    }
}

/// The stateless body: plan (with cache) and execute one job.
fn run_job(
    shared: &Shared,
    meter: Meter<'_>,
    pipeline: &Pipeline,
    inputs: Vec<(ImageId, Image)>,
    schedule: Schedule,
    scratch: &mut Scratch,
    tracer: &Tracer,
) -> Result<Execution, RuntimeError> {
    let plan_start = tracer.now_us();
    let key = PlanKey {
        fingerprint: pipeline.fingerprint(),
        schedule,
        exec: shared.cfg.exec,
    };
    let planned = shared.plan_for(key, pipeline, tracer, |m| ExecError::Invalid(m).into());
    let hit = matches!(planned, Ok((_, true)));
    if hit {
        meter.metrics.record_cache_hit();
    } else {
        meter.metrics.record_cache_miss();
    }
    let plan = planned?.0.plan;
    if tracer.is_enabled() {
        tracer.complete(
            "plan",
            "serve",
            plan_start,
            tracer.now_us(),
            vec![
                ("pipeline", ArgValue::Str(meter.tenant.to_string())),
                (
                    "cache",
                    ArgValue::Str(if hit { "hit" } else { "miss" }.into()),
                ),
            ],
        );
    }
    execute_span(tracer, meter.tenant, || {
        plan.run(inputs, &shared.cfg.exec, scratch, tracer)
    })
    .map_err(RuntimeError::Exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel};
    use kfuse_sim::synthetic_image;

    fn blur_pipeline(w: usize, h: usize) -> (Pipeline, ImageId, ImageId) {
        let mut p = Pipeline::new("blur");
        let input = p.add_input(ImageDesc::new("in", w, h, 1));
        let out = p.add_image(ImageDesc::new("out", w, h, 1));
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        p.add_kernel(Kernel::simple(
            "blur",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::convolve(0, 0, &mask)],
            vec![],
        ));
        p.mark_output(out);
        (p, input, out)
    }

    fn small_cfg() -> RuntimeConfig {
        RuntimeConfig {
            workers: 2,
            queue_capacity: 8,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn executes_and_matches_reference() {
        let (p, input, out) = blur_pipeline(17, 11);
        let img = synthetic_image(p.image(input).clone(), 3);
        let reference = kfuse_sim::execute_reference(&p, &[(input, img.clone())]).unwrap();
        let rt = Runtime::new(small_cfg());
        let exec = rt
            .execute("blur", &p, vec![(input, img)], Schedule::Optimized)
            .unwrap();
        assert!(exec
            .expect_image(out)
            .bit_equal(reference.expect_image(out)));
    }

    #[test]
    fn second_submission_hits_plan_cache() {
        let (p, input, _) = blur_pipeline(9, 9);
        let rt = Runtime::new(small_cfg());
        for seed in [1, 2] {
            let img = synthetic_image(p.image(input).clone(), seed);
            rt.execute("t", &p, vec![(input, img)], Schedule::Optimized)
                .unwrap();
        }
        let snap = rt.metrics();
        let m = snap.pipeline("t").unwrap();
        assert_eq!(m.requests, 2);
        assert_eq!(m.completed, 2);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(rt.cached_plans(), 1);
    }

    #[test]
    fn bad_inputs_return_error_not_poison() {
        let (p, input, _) = blur_pipeline(9, 9);
        let rt = Runtime::new(small_cfg());
        // Missing input: the job errors but the worker survives.
        let err = rt
            .execute("t", &p, vec![], Schedule::Optimized)
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Exec(ExecError::MissingInput { .. })
        ));
        // Wrong shape: ditto.
        let wrong = synthetic_image(ImageDesc::new("in", 3, 3, 1), 1);
        let err = rt
            .execute("t", &p, vec![(input, wrong)], Schedule::Optimized)
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Exec(ExecError::ShapeMismatch { .. })
        ));
        // And the runtime still serves good requests afterwards.
        let img = synthetic_image(p.image(input).clone(), 1);
        rt.execute("t", &p, vec![(input, img)], Schedule::Optimized)
            .unwrap();
        let snap = rt.metrics();
        let m = snap.pipeline("t").unwrap();
        assert_eq!(m.errors, 2);
        assert_eq!(m.completed, 1);
    }

    /// A worker panic after dequeue but before the slot fill must wake the
    /// submitter with [`RuntimeError::Panicked`]. Without the
    /// [`CompletionGuard`] the unwind leaves the result slot empty and this
    /// test never returns — `wait` blocks forever on a job nobody will
    /// answer (the pre-guard behavior).
    #[test]
    fn worker_panic_after_dequeue_wakes_submitter() {
        let (p, input, _) = blur_pipeline(5, 5);
        let rt = Runtime::new(small_cfg());
        let img = synthetic_image(p.image(input).clone(), 1);
        let err = rt
            .execute(
                PANIC_AFTER_DEQUEUE_TENANT,
                &p,
                vec![(input, img.clone())],
                Schedule::Optimized,
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Panicked(_)));
        assert!(err.to_string().contains("panicked"));
        // The panicking job is metered as a request against its tenant,
        // and the guard's fill counts it: every dequeued job gets a
        // terminal outcome.
        let snap = rt.metrics();
        let m = snap.pipeline(PANIC_AFTER_DEQUEUE_TENANT).unwrap();
        assert_eq!(m.requests, 1);
        assert_eq!(m.errors, 1);
        // The other worker keeps serving; shutdown joins the dead thread
        // without hanging.
        rt.execute("t", &p, vec![(input, img)], Schedule::Optimized)
            .unwrap();
        rt.shutdown();
    }

    #[test]
    fn reject_admission_when_queue_full() {
        let cfg = RuntimeConfig {
            queue_capacity: 2,
            admission: Admission::Reject,
            ..RuntimeConfig::default()
        };
        let rt = Runtime::without_workers(cfg);
        let (p, input, _) = blur_pipeline(5, 5);
        let img = synthetic_image(p.image(input).clone(), 1);
        for _ in 0..2 {
            rt.submit("t", &p, vec![(input, img.clone())], Schedule::Baseline)
                .unwrap();
        }
        let err = rt
            .submit("t", &p, vec![(input, img)], Schedule::Baseline)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::QueueFull));
        let snap = rt.metrics();
        let m = snap.pipeline("t").unwrap();
        assert_eq!(m.requests, 3);
        assert_eq!(m.rejected, 1);
    }

    /// Regression (pre-fix this failed): a job whose deadline has
    /// *already expired at submit time* is rejected at admission with
    /// `DeadlineExceeded` — it never occupies queue capacity, never
    /// reaches a worker, and never plans. The seed runtime admitted it
    /// and only dropped it at dequeue.
    #[test]
    fn expired_deadline_rejected_at_admission_without_queueing() {
        let (p, input, _) = blur_pipeline(9, 9);
        let rt = Runtime::without_workers(RuntimeConfig {
            workers: 1,
            ..small_cfg()
        });
        let img = synthetic_image(p.image(input).clone(), 1);
        // A deadline in the past is deterministic: expired before the
        // submit call even takes the queue lock.
        let past = Instant::now() - Duration::from_millis(10);
        let err = rt
            .submit_with_deadline(
                "late",
                &p,
                vec![(input, img.clone())],
                Schedule::Optimized,
                Some(past),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::DeadlineExceeded));
        // Nothing was queued: the dead job costs no capacity.
        assert_eq!(rt.metrics().runtime.queue_depth, 0);
        // A generous deadline is admitted normally.
        let future = Instant::now() + Duration::from_secs(60);
        rt.submit_with_deadline(
            "late",
            &p,
            vec![(input, img)],
            Schedule::Optimized,
            Some(future),
        )
        .unwrap();
        let snap = rt.metrics();
        let m = snap.pipeline("late").unwrap();
        assert_eq!(m.requests, 2);
        assert_eq!(m.deadline_misses, 1);
        assert_eq!(m.completed, 0);
        // The expired job never planned or executed.
        assert_eq!(m.cache_misses, 0);
        assert_eq!(m.cache_hits, 0);
    }

    /// Regression (pre-fix this hung until the admission timeout): under
    /// blocking admission with a full queue, a dead-on-arrival job must
    /// be rejected immediately instead of parking the submitter waiting
    /// to admit work nobody can use.
    #[test]
    fn expired_deadline_does_not_block_on_full_queue() {
        let cfg = RuntimeConfig {
            queue_capacity: 1,
            admission: Admission::Block,
            ..RuntimeConfig::default()
        };
        // No workers: the queue stays full forever.
        let rt = Runtime::without_workers(cfg);
        let (p, input, _) = blur_pipeline(5, 5);
        let img = synthetic_image(p.image(input).clone(), 1);
        rt.submit("t", &p, vec![(input, img.clone())], Schedule::Baseline)
            .unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        let start = Instant::now();
        let err = rt
            .submit_with_deadline("t", &p, vec![(input, img)], Schedule::Baseline, Some(past))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::DeadlineExceeded));
        // Immediate: with the seed behavior this blocked indefinitely.
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    /// A deadline that expires *while queued* is still dropped at
    /// dequeue, before any planning or execution — the dequeue-side check
    /// backstops the admission-side one.
    #[test]
    fn deadline_expiring_in_queue_rejected_at_dequeue() {
        let (p, input, _) = blur_pipeline(9, 9);
        let rt = Runtime::without_workers(RuntimeConfig {
            workers: 1,
            ..small_cfg()
        });
        let img = synthetic_image(p.image(input).clone(), 1);
        // Valid at admission, expired by the time anything dequeues it.
        let soon = Instant::now() + Duration::from_millis(20);
        let handle = rt
            .submit_with_deadline(
                "late",
                &p,
                vec![(input, img)],
                Schedule::Optimized,
                Some(soon),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        rt.drain_for_test();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, RuntimeError::DeadlineExceeded));
        let snap = rt.metrics();
        let m = snap.pipeline("late").unwrap();
        assert_eq!(m.requests, 1);
        assert_eq!(m.deadline_misses, 1);
        assert_eq!(m.completed, 0);
        assert_eq!(m.cache_misses, 0, "expired job must not even plan");
    }

    /// `BlockWithTimeout` parks the submitter like `Block` but gives up
    /// once the queue stays full past the timeout, counting the failed
    /// admission.
    #[test]
    fn block_with_timeout_gives_up_on_full_queue() {
        let cfg = RuntimeConfig {
            queue_capacity: 2,
            admission: Admission::BlockWithTimeout(Duration::from_millis(50)),
            ..RuntimeConfig::default()
        };
        // No workers: the queue can never drain, so the wait must time out.
        let rt = Runtime::without_workers(cfg);
        let (p, input, _) = blur_pipeline(5, 5);
        let img = synthetic_image(p.image(input).clone(), 1);
        for _ in 0..2 {
            rt.submit("t", &p, vec![(input, img.clone())], Schedule::Baseline)
                .unwrap();
        }
        let start = Instant::now();
        let err = rt
            .submit("t", &p, vec![(input, img)], Schedule::Baseline)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::AdmissionTimeout));
        assert!(start.elapsed() >= Duration::from_millis(50));
        let snap = rt.metrics();
        let m = snap.pipeline("t").unwrap();
        assert_eq!(m.requests, 3);
        assert_eq!(m.admission_timeouts, 1);
        // Timed-out admissions are not `rejected`: the two counters
        // distinguish load shedding from backpressure saturation.
        assert_eq!(m.rejected, 0);
    }

    /// The queue-depth high-water mark tracks the deepest backlog ever
    /// reached and survives the queue draining back to empty — which is
    /// exactly what the instantaneous `queue_depth` gauge cannot show.
    #[test]
    fn queue_depth_high_water_mark_persists() {
        let cfg = RuntimeConfig {
            queue_capacity: 8,
            ..RuntimeConfig::default()
        };
        // Deterministic part: with no workers the backlog cannot drain,
        // so depth and HWM agree at the peak.
        let rt = Runtime::without_workers(cfg.clone());
        let (p, input, _) = blur_pipeline(5, 5);
        let img = synthetic_image(p.image(input).clone(), 1);
        for _ in 0..3 {
            rt.submit("t", &p, vec![(input, img.clone())], Schedule::Baseline)
                .unwrap();
        }
        let snap = rt.metrics();
        assert_eq!(snap.runtime.queue_depth, 3);
        assert_eq!(snap.runtime.queue_depth_hwm, 3);

        // Live part: after a served burst fully drains, the HWM remains
        // nonzero (every push records depth ≥ 1) while depth returns to 0.
        let rt = Runtime::new(RuntimeConfig { workers: 1, ..cfg });
        let handles: Vec<JobHandle> = (0..4)
            .map(|_| {
                rt.submit("t", &p, vec![(input, img.clone())], Schedule::Baseline)
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let snap = rt.metrics();
        assert_eq!(snap.runtime.queue_depth, 0);
        assert!(snap.runtime.queue_depth_hwm >= 1);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let (p, input, out) = blur_pipeline(13, 13);
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            ..small_cfg()
        });
        let img = synthetic_image(p.image(input).clone(), 2);
        let reference = kfuse_sim::execute_reference(&p, &[(input, img.clone())]).unwrap();
        let handles: Vec<JobHandle> = (0..6)
            .map(|_| {
                rt.submit("t", &p, vec![(input, img.clone())], Schedule::Optimized)
                    .unwrap()
            })
            .collect();
        rt.shutdown();
        for h in handles {
            let exec = h.wait().unwrap();
            assert!(exec
                .expect_image(out)
                .bit_equal(reference.expect_image(out)));
        }
        // Submissions after shutdown are refused.
        let err = rt
            .submit("t", &p, vec![(input, img)], Schedule::Optimized)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ShuttingDown));
    }

    #[test]
    fn traced_serving_emits_request_and_kernel_spans() {
        let (p, input, out) = blur_pipeline(17, 11);
        let img = synthetic_image(p.image(input).clone(), 3);
        let reference = kfuse_sim::execute_reference(&p, &[(input, img.clone())]).unwrap();
        let tracer = Tracer::enabled();
        let rt = Runtime::new(RuntimeConfig {
            tracer: tracer.clone(),
            ..small_cfg()
        });
        let requests = 3;
        for _ in 0..requests {
            let exec = rt
                .execute("t", &p, vec![(input, img.clone())], Schedule::Optimized)
                .unwrap();
            // Tracing must not perturb results.
            assert!(exec
                .expect_image(out)
                .bit_equal(reference.expect_image(out)));
        }
        let events = tracer.events();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("queue_wait"), requests);
        assert_eq!(count("plan"), requests);
        assert_eq!(count("execute"), requests);
        // One kernel in the pipeline → one kernel span per request.
        let kernel_spans = events
            .iter()
            .filter(|e| e.name.starts_with("kernel:"))
            .count();
        assert_eq!(kernel_spans, requests);
        // Queue-depth and in-flight gauges were sampled.
        assert!(events
            .iter()
            .any(|e| e.name == "queue_depth"
                && matches!(e.kind, kfuse_obs::EventKind::Counter { .. })));
        assert!(events.iter().any(|e| e.name == "in_flight"));
        // The Chrome export of a real serving trace must validate.
        let json = tracer.to_chrome_json();
        let stats = kfuse_obs::validate_chrome_trace(&json).unwrap();
        assert!(stats.spans_with_prefix("kernel:") >= requests);
    }

    /// With a flight recorder installed, a job submitted under a
    /// propagated trace context leaves a complete span tree in the ring —
    /// queue_wait/plan/execute plus the executor's kernel span, every
    /// event stamped with the request's trace id — and the same spans are
    /// mirrored into the global tracer.
    #[test]
    fn flight_recorder_captures_request_span_tree() {
        let (p, input, _) = blur_pipeline(17, 11);
        let tracer = Tracer::enabled();
        let recorder = Arc::new(kfuse_obs::FlightRecorder::default());
        let rt = Runtime::new(RuntimeConfig {
            tracer: tracer.clone(),
            recorder: Some(Arc::clone(&recorder)),
            ..small_cfg()
        });
        let img = synthetic_image(p.image(input).clone(), 3);
        rt.submit_with_ctx(
            "t",
            &p,
            vec![(input, img)],
            Schedule::Optimized,
            Priority::Normal,
            None,
            0x77,
            0x9,
        )
        .unwrap()
        .wait()
        .unwrap();
        let rec = recorder.record_for(0x77).expect("request recorded");
        assert_eq!(rec.outcome, kfuse_obs::RequestOutcome::Ok);
        assert_eq!(rec.span_id, 0x9);
        let has = |name: &str| rec.events.iter().any(|e| e.name == name);
        assert!(has("queue_wait") && has("plan") && has("execute"));
        assert!(rec.events.iter().any(|e| e.name.starts_with("kernel:")));
        assert!(rec.events.iter().all(|e| e.trace_id == 0x77));
        // Mirrored into the global tracer too: the merged serving trace
        // still carries the request's spans.
        assert!(tracer.events().iter().any(|e| e.trace_id == 0x77));
        // Without a client trace id, the recorder synthesizes a
        // high-bit-tagged one.
        let img = synthetic_image(p.image(input).clone(), 4);
        rt.execute("t", &p, vec![(input, img)], Schedule::Optimized)
            .unwrap();
        assert!(recorder
            .snapshot()
            .iter()
            .any(|r| r.trace_id >> 63 == 1 && r.outcome == kfuse_obs::RequestOutcome::Ok));
    }

    /// A job dropped at dequeue because its deadline expired *in the
    /// queue* still leaves a flight record — outcome `DeadlineMissed`,
    /// queue_wait span under the propagated trace id — and the tenant's
    /// SLO gauges burn. (A deadline already expired at submit never gets
    /// this far: admission rejects it before a record exists.)
    #[test]
    fn recorder_and_slo_capture_deadline_missed_request() {
        let (p, input, _) = blur_pipeline(9, 9);
        let recorder = Arc::new(kfuse_obs::FlightRecorder::default());
        let rt = Runtime::without_workers(RuntimeConfig {
            workers: 1,
            recorder: Some(Arc::clone(&recorder)),
            ..small_cfg()
        });
        let img = synthetic_image(p.image(input).clone(), 1);
        // Alive at admission, dead at dequeue: no worker exists, so the
        // deadline deterministically expires while queued.
        let soon = Instant::now() + Duration::from_millis(20);
        let handle = rt
            .submit_with_ctx(
                "late",
                &p,
                vec![(input, img)],
                Schedule::Optimized,
                Priority::Normal,
                Some(soon),
                0xdead,
                1,
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        rt.drain_for_test();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, RuntimeError::DeadlineExceeded));
        let rec = recorder
            .record_for(0xdead)
            .expect("missed request recorded");
        assert_eq!(rec.outcome, kfuse_obs::RequestOutcome::DeadlineMissed);
        assert!(rec.events.iter().any(|e| e.name == "queue_wait"));
        let snap = rt.metrics();
        let m = snap.pipeline("late").unwrap();
        assert_eq!(m.slo_jobs, 1);
        assert_eq!(m.slo_misses, 1);
        assert!(m.budget_burn > 1.0 || m.budget_burn.is_infinite());
        assert_eq!(m.slo_miss_rate, 1.0);
        // The latency histogram holds the trace id as a bucket exemplar.
        assert!(m.exemplars.iter().any(|e| e.trace_id == 0xdead));
    }

    #[test]
    fn metrics_include_runtime_gauges() {
        let (p, input, _) = blur_pipeline(9, 9);
        let rt = Runtime::new(small_cfg());
        let img = synthetic_image(p.image(input).clone(), 1);
        rt.execute("t", &p, vec![(input, img)], Schedule::Optimized)
            .unwrap();
        let snap = rt.metrics();
        assert_eq!(snap.runtime.queue_depth, 0);
        assert_eq!(snap.runtime.in_flight, 0);
        assert_eq!(snap.runtime.cache_size, 1);
        assert_eq!(
            snap.runtime.cache_capacity,
            RuntimeConfig::default().plan_cache_capacity as u64
        );
        assert_eq!(snap.runtime.cache_evictions, 0);
        let families = snap.families();
        let doc = kfuse_obs::parse_json(&kfuse_obs::render_json(&families)).unwrap();
        let gauge = |name| doc.sample(name, &[]).and_then(kfuse_obs::Json::as_num);
        assert_eq!(gauge("kfuse_plan_cache_size"), Some(1.0));
        assert_eq!(gauge("kfuse_plan_cache_evictions_total"), Some(0.0));
        assert_eq!(gauge("kfuse_sessions_open"), Some(0.0));
        let text = kfuse_obs::render_prometheus(&families);
        assert!(kfuse_obs::validate_prometheus(&text).is_ok());
    }

    /// Records completion order: each submitted job appends its label at
    /// the instant the worker fills its slot. With `drain_for_test` (one
    /// worker loop on the calling thread) completion order *is* dequeue
    /// order, making queue-discipline tests deterministic.
    type OrderLog = Arc<Mutex<Vec<String>>>;

    fn order_probe() -> (OrderLog, impl Fn(JobHandle, &str)) {
        let order: OrderLog = Arc::new(Mutex::new(Vec::new()));
        let probe = {
            let order = Arc::clone(&order);
            move |h: JobHandle, label: &str| {
                let order = Arc::clone(&order);
                let label = label.to_string();
                h.on_ready(move |_| order.lock().unwrap().push(label));
            }
        };
        (order, probe)
    }

    /// Regression for cross-tenant fairness: a tenant flooding the queue
    /// no longer head-of-line blocks a light tenant. Under a plain FIFO
    /// the light tenant's jobs sat behind the entire flood (positions
    /// 13–15); under per-tenant round-robin they interleave
    /// one-for-one, so the light tenant's queue wait — and hence its p99
    /// and deadline-miss rate — is bounded by rounds, not by the flood's
    /// backlog.
    #[test]
    fn wfq_interleaves_flooded_and_light_tenants() {
        let (p, input, _) = blur_pipeline(5, 5);
        let rt = Runtime::without_workers(RuntimeConfig {
            queue_capacity: 32,
            ..RuntimeConfig::default()
        });
        let img = synthetic_image(p.image(input).clone(), 1);
        let (order, probe) = order_probe();
        for i in 0..12 {
            let h = rt
                .submit("flood", &p, vec![(input, img.clone())], Schedule::Baseline)
                .unwrap();
            probe(h, &format!("flood{i}"));
        }
        for i in 0..3 {
            let h = rt
                .submit("light", &p, vec![(input, img.clone())], Schedule::Baseline)
                .unwrap();
            probe(h, &format!("light{i}"));
        }
        rt.drain_for_test();
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 15);
        let pos = |label: &str| order.iter().position(|l| l == label).unwrap();
        // Round-robin: flood0, light0, flood1, light1, ... — every light
        // job completes within the first 2·(i+1) slots. FIFO would put
        // them at positions 12, 13, 14.
        for i in 0..3 {
            let p = pos(&format!("light{i}"));
            assert!(
                p <= 2 * i + 1,
                "light{i} served at position {p}, not interleaved"
            );
        }
    }

    /// Priority classes drain strictly in order regardless of arrival
    /// order: every queued High job before any Normal, Normal before Low.
    #[test]
    fn priority_classes_drain_in_strict_order() {
        let (p, input, _) = blur_pipeline(5, 5);
        let rt = Runtime::without_workers(RuntimeConfig {
            queue_capacity: 16,
            ..RuntimeConfig::default()
        });
        let img = synthetic_image(p.image(input).clone(), 1);
        let (order, probe) = order_probe();
        let submit = |prio: Priority, label: &str| {
            let h = rt
                .submit_with_ctx(
                    "t",
                    &p,
                    vec![(input, img.clone())],
                    Schedule::Baseline,
                    prio,
                    None,
                    0,
                    0,
                )
                .unwrap();
            probe(h, label);
        };
        submit(Priority::Low, "low0");
        submit(Priority::Normal, "norm0");
        submit(Priority::High, "high0");
        submit(Priority::Low, "low1");
        submit(Priority::High, "high1");
        submit(Priority::Normal, "norm1");
        rt.drain_for_test();
        let order = order.lock().unwrap();
        assert_eq!(
            *order,
            vec!["high0", "high1", "norm0", "norm1", "low0", "low1"]
        );
    }

    /// Queue-pressure thresholds shed Low before Normal and never High:
    /// with capacity 8, low sheds at depth ≥ 2, normal at ≥ 4, and High
    /// is only refused by the full queue (here: admission `Reject`).
    #[test]
    fn queue_pressure_sheds_low_classes_first() {
        let (p, input, _) = blur_pipeline(5, 5);
        let rt = Runtime::without_workers(RuntimeConfig {
            queue_capacity: 8,
            shed_low_fraction: 0.25,
            shed_normal_fraction: 0.5,
            admission: Admission::Reject,
            ..RuntimeConfig::default()
        });
        let img = synthetic_image(p.image(input).clone(), 1);
        let submit = |prio: Priority| {
            rt.submit_with_ctx(
                "t",
                &p,
                vec![(input, img.clone())],
                Schedule::Baseline,
                prio,
                None,
                0,
                0,
            )
        };
        // Depth 0, 1: everyone is admitted.
        submit(Priority::Low).unwrap();
        submit(Priority::Normal).unwrap();
        // Depth 2: Low sheds, Normal still admitted.
        assert!(matches!(
            submit(Priority::Low).unwrap_err(),
            RuntimeError::QueueFull
        ));
        submit(Priority::Normal).unwrap();
        submit(Priority::Normal).unwrap();
        // Depth 4: Normal sheds too; High is still admitted.
        assert!(matches!(
            submit(Priority::Normal).unwrap_err(),
            RuntimeError::QueueFull
        ));
        for _ in 0..4 {
            submit(Priority::High).unwrap();
        }
        // Depth 8 = capacity: even High is refused now (plain rejection,
        // not a shed — the queue is genuinely full).
        assert!(matches!(
            submit(Priority::High).unwrap_err(),
            RuntimeError::QueueFull
        ));
        let m = rt.metrics();
        let t = m.pipeline("t").unwrap();
        assert_eq!(t.shed, 2);
        assert_eq!(t.rejected, 1);
        assert_eq!(m.runtime.queue_depth, 8);
    }

    /// `on_ready` fires exactly once with the job's result — on the worker
    /// thread at completion when registered before, immediately on the
    /// caller's thread when registered after.
    #[test]
    fn on_ready_fires_for_pending_and_completed_jobs() {
        let (p, input, _) = blur_pipeline(9, 9);
        let rt = Runtime::new(small_cfg());
        let img = synthetic_image(p.image(input).clone(), 1);
        let fired = Arc::new(std::sync::atomic::AtomicU64::new(0));
        // The watcher runs on the worker thread, concurrently with the
        // waiting caller — poll for it instead of racing `wait()`.
        let settle = |want: u64| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while fired.load(Ordering::SeqCst) < want && Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert_eq!(fired.load(Ordering::SeqCst), want);
        };
        let h = rt
            .submit("t", &p, vec![(input, img.clone())], Schedule::Optimized)
            .unwrap();
        let f = Arc::clone(&fired);
        h.on_ready(move |result| {
            if result.is_ok() {
                f.fetch_add(1, Ordering::SeqCst);
            }
        });
        settle(1);
        // A watcher registered after completion fires synchronously.
        let h = rt
            .submit("t", &p, vec![(input, img)], Schedule::Optimized)
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let f = Arc::clone(&fired);
        h.on_ready(move |result| {
            if result.is_ok() {
                f.fetch_add(1, Ordering::SeqCst);
            }
        });
        settle(2);
        rt.shutdown();
    }

    #[test]
    fn tenants_are_metered_separately() {
        let (p, input, _) = blur_pipeline(7, 7);
        let rt = Runtime::new(small_cfg());
        let img = synthetic_image(p.image(input).clone(), 1);
        rt.execute("alpha", &p, vec![(input, img.clone())], Schedule::Optimized)
            .unwrap();
        rt.execute("beta", &p, vec![(input, img.clone())], Schedule::Optimized)
            .unwrap();
        rt.execute("beta", &p, vec![(input, img)], Schedule::Optimized)
            .unwrap();
        let snap = rt.metrics();
        assert_eq!(snap.pipeline("alpha").unwrap().requests, 1);
        assert_eq!(snap.pipeline("beta").unwrap().requests, 2);
        // Both tenants submitted the identical structure: one shared plan.
        assert_eq!(rt.cached_plans(), 1);
        // The JSON families document round-trips the names.
        let doc = kfuse_obs::parse_json(&kfuse_obs::render_json(&snap.families())).unwrap();
        for (tenant, requests) in [("alpha", 1.0), ("beta", 2.0)] {
            let sample = doc.sample("kfuse_requests_total", &[("pipeline", tenant)]);
            assert_eq!(sample.and_then(kfuse_obs::Json::as_num), Some(requests));
        }
    }
}
