//! The kfuse TCP server: frames in, jobs through the runtime, frames out.
//!
//! ## Per-connection threading: multiplexed replies
//!
//! Each accepted connection gets one persistent **reader** thread and a
//! shared **outbox**. The reader decodes frames and submits jobs and
//! session frames through one admission tail; each admitted unit hands
//! its [`Handle::on_ready`] watcher the result, which builds the reply
//! frame and enqueues it into the outbox *when the unit finishes*, and a
//! short-lived **drainer** thread (spawned on the empty→non-empty edge,
//! exiting when the outbox runs dry) writes queued replies to the
//! socket. Two head-of-line problems from the thread-per-direction
//! design die here: an idle connection pins one polling reader, not a
//! reader/writer pair, and a slow request no longer delays the replies
//! of faster requests pipelined behind it on the same connection —
//! replies go out in **completion order**, matched to requests by
//! `request_id`. Workers never touch sockets: the watcher only enqueues,
//! so a peer that stops reading cannot wedge a runtime worker.
//!
//! In-flight submits are bounded by a `Gate` of
//! [`ServerConfig::max_in_flight`]: past it the reader stops reading and
//! TCP backpressure does the rest. Control replies (acks, pongs, errors)
//! enqueue in receipt order; only their interleaving with job replies is
//! completion-ordered.
//!
//! ## Timeouts and hostile peers
//!
//! The socket carries a read timeout. A timeout while *between* frames is
//! an idle client — allowed indefinitely. A timeout *mid-frame* means the
//! peer started a frame and stopped feeding it: the classic slow-loris
//! hold-a-thread attack, answered by dropping the connection
//! ([`crate::wire::WireError::Stalled`]). Malformed frames (bad magic,
//! version, checksum, truncation, over-limit payloads) get a typed
//! [`Frame::Error`] reply where the stream still has framing, then the
//! connection closes — a desynchronized byte stream cannot be trusted
//! again.
//!
//! ## Deadlines and drain
//!
//! `Submit.deadline_us` is a relative budget; the server anchors it to its
//! own clock at decode time and threads the absolute instant through
//! [`Runtime::submit_with_deadline`], so a job that outwaits its budget in
//! the queue is rejected at dequeue *without executing*. [`Frame::Drain`]
//! (or [`Server::begin_drain`]) flips a server-wide flag: new submissions
//! are refused with [`ErrorCode::Draining`] while everything already
//! admitted runs to completion and its replies are delivered.
//!
//! ## Streaming sessions
//!
//! `OpenSession` compiles a [`kfuse_stream::StreamPipeline`] once and
//! pins its state planes in the runtime; `SubmitFrame` then rides the
//! same outbox/gate machinery as `Submit`, with in-order completion per
//! session guaranteed by the runtime's single-runner invariant. Sessions
//! are **owned by the connection that opened them**: a `SubmitFrame` or
//! `CloseSession` naming a session another connection opened is answered
//! with [`ErrorCode::UnknownSession`] (ids are not guessable
//! capabilities). `Frame::Drain` fences every owned session (in-flight
//! frames finish, new ones are refused), and a disconnect closes them so
//! state planes never outlive their only submitter.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_obs::{FlightRecorder, Tracer};
use kfuse_runtime::{Admission, Handle, MetricsSnapshot, Runtime, RuntimeConfig, RuntimeError};
use kfuse_sim::Execution;
use kfuse_stream::FrameOutput;

use crate::http;
use crate::metrics::{NetMetrics, NetSnapshot};
use crate::wire::{
    read_frame_counted, write_frame, ErrorCode, Frame, Limits, TraceContext, WireError,
};

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Runtime the server owns. The default swaps admission to
    /// [`Admission::BlockWithTimeout`] — a network front-end must never
    /// park a connection handler forever on a saturated queue.
    pub runtime: RuntimeConfig,
    /// Decode-side resource bounds applied to every received frame.
    pub limits: Limits,
    /// Socket read timeout. Between frames a timeout merely re-polls
    /// (idle clients are fine); mid-frame it drops the connection.
    pub read_timeout: Duration,
    /// Socket write timeout; a peer that stops reading its replies is
    /// disconnected rather than allowed to wedge the writer thread.
    pub write_timeout: Duration,
    /// Maximum submitted-but-unanswered requests per connection; beyond
    /// it the reader stops reading (TCP backpressure).
    pub max_in_flight: usize,
    /// Maximum simultaneously open connections; excess accepts are
    /// dropped immediately.
    pub max_connections: usize,
    /// Trace recorder for connection/frame spans (disabled by default).
    pub tracer: Tracer,
    /// Always-on flight recorder capturing every request's span tree in
    /// a bounded ring with tail-based retention. Installed into the
    /// owned runtime (unless the runtime config already carries one) and
    /// dumped by the HTTP sidecar's `/debug/requests`. `None` disables
    /// recording entirely.
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            runtime: RuntimeConfig {
                admission: Admission::BlockWithTimeout(Duration::from_secs(2)),
                ..RuntimeConfig::default()
            },
            limits: Limits::default(),
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(5),
            max_in_flight: 32,
            max_connections: 64,
            tracer: Tracer::disabled(),
            recorder: Some(Arc::new(FlightRecorder::default())),
        }
    }
}

/// A registered pipeline: shared, immutable, validated at registration.
struct Registered {
    fingerprint: u64,
    pipeline: Arc<Pipeline>,
}

pub(crate) struct Inner {
    pub(crate) cfg: ServerConfig,
    pub(crate) runtime: Runtime,
    registry: Mutex<HashMap<String, Registered>>,
    pub(crate) draining: AtomicBool,
    shutdown: AtomicBool,
    pub(crate) net: NetMetrics,
}

impl Inner {
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// One outbox entry: a finished reply frame.
enum Reply {
    /// The answer to an admitted `Submit` or `SubmitFrame`, built by its
    /// `on_ready` watcher from the result. It holds a slot in the
    /// connection's in-flight gate (acquired at admission, released when
    /// written or discarded).
    Gated(Frame),
    /// An immediately-known reply (acks, errors, pongs).
    Now(Frame),
}

/// Counting gate bounding submitted-but-unanswered jobs per connection.
/// `release` runs once per acquired job — when its reply frame is
/// written, or when the reply is dropped because the peer died.
struct Gate {
    n: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Self {
            n: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a slot frees up (TCP backpressure: the reader stops
    /// reading), re-checking `abort` periodically. False = connection is
    /// closing, don't admit.
    fn acquire(&self, max: usize, abort: impl Fn() -> bool) -> bool {
        let mut n = self.n.lock().unwrap();
        while *n >= max {
            if abort() {
                return false;
            }
            let (guard, _) = self.cv.wait_timeout(n, Duration::from_millis(50)).unwrap();
            n = guard;
        }
        *n += 1;
        true
    }

    fn release(&self) {
        let mut n = self.n.lock().unwrap();
        *n = n.saturating_sub(1);
        drop(n);
        self.cv.notify_all();
    }

    /// Waits until every acquired job has been answered or dropped.
    fn wait_idle(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut n = self.n.lock().unwrap();
        while *n > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(n, left.min(Duration::from_millis(50)))
                .unwrap();
            n = guard;
        }
    }
}

/// Shared reply path of one connection: a queue of ready replies plus a
/// lazily-spawned drainer thread that writes them in completion order
/// and exits when the queue runs dry — an idle connection keeps no
/// writer thread alive.
struct Outbox {
    inner: Arc<Inner>,
    /// Write half of the connection (a `try_clone` of the reader's
    /// stream; both share one underlying socket).
    out: Mutex<TcpStream>,
    state: Mutex<OutboxState>,
    cv: Condvar,
    gate: Gate,
}

#[derive(Default)]
struct OutboxState {
    queue: VecDeque<Reply>,
    /// A drainer thread is running (spawned on the empty→non-empty edge).
    drainer_active: bool,
    /// The peer stopped reading or the socket died: drop further replies
    /// instead of queueing them unboundedly.
    peer_dead: bool,
}

impl Outbox {
    fn new(inner: Arc<Inner>, out: TcpStream) -> Arc<Self> {
        Arc::new(Self {
            inner,
            out: Mutex::new(out),
            state: Mutex::new(OutboxState::default()),
            cv: Condvar::new(),
            gate: Gate::new(),
        })
    }

    fn peer_dead(&self) -> bool {
        self.state.lock().unwrap().peer_dead
    }

    /// Enqueues a reply and ensures a drainer is running. Called from the
    /// reader (control replies) and from worker threads (`on_ready`
    /// watchers) — it never blocks, so a slow connection can never stall
    /// a runtime worker. Returns false once the peer is dead.
    fn push(self: &Arc<Self>, reply: Reply) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.peer_dead {
            drop(st);
            self.discard(reply);
            return false;
        }
        st.queue.push_back(reply);
        if !st.drainer_active {
            st.drainer_active = true;
            drop(st);
            let ob = Arc::clone(self);
            if thread::Builder::new()
                .name("kfuse-net-write".into())
                .spawn(move || ob.drain())
                .is_err()
            {
                // Could not spawn: poison the connection rather than let
                // replies rot in the queue.
                self.mark_dead();
                return false;
            }
        }
        true
    }

    /// Drops a reply that will never be written, releasing its gate
    /// slot so the reader (or close path) stops waiting for it.
    fn discard(&self, reply: Reply) {
        if let Reply::Gated(_) = reply {
            self.gate.release();
        }
    }

    fn mark_dead(&self) {
        let dropped = {
            let mut st = self.state.lock().unwrap();
            st.peer_dead = true;
            std::mem::take(&mut st.queue)
        };
        for reply in dropped {
            self.discard(reply);
        }
        self.cv.notify_all();
    }

    /// Waits until every queued reply has been written (or the peer died
    /// and the queue was dropped) — the connection close barrier.
    fn quiesce(&self, timeout: Duration) {
        self.gate.wait_idle(timeout);
        let mut st = self.state.lock().unwrap();
        while !st.queue.is_empty() || st.drainer_active {
            let (guard, res) = self
                .cv
                .wait_timeout(st, Duration::from_millis(100))
                .unwrap();
            st = guard;
            if res.timed_out() && st.peer_dead {
                return;
            }
        }
    }

    /// The drainer: pops ready replies and writes them until the queue is
    /// empty, then exits (the next push spawns a fresh one).
    fn drain(self: Arc<Self>) {
        loop {
            let reply = {
                let mut st = self.state.lock().unwrap();
                match st.queue.pop_front() {
                    Some(r) => r,
                    None => {
                        st.drainer_active = false;
                        drop(st);
                        self.cv.notify_all();
                        return;
                    }
                }
            };
            let (frame, gated) = match reply {
                Reply::Gated(frame) => (frame, true),
                Reply::Now(frame) => (frame, false),
            };
            self.inner.net.frame_type_sent(frame.type_byte());
            if let Frame::Error { code, .. } = &frame {
                self.inner.net.error_sent(*code);
            }
            // The encode span lands on the drainer thread, closing the
            // server side of the request's causal chain.
            let span_tracer = match frame.trace() {
                Some(t) => self.inner.cfg.tracer.scoped(t.trace_id),
                None => self.inner.cfg.tracer.clone(),
            };
            let encode_start = span_tracer.now_us();
            let wrote = {
                let mut out = self.out.lock().unwrap();
                write_frame(&mut *out, &frame)
            };
            match wrote {
                Ok(bytes) => {
                    self.inner.net.frame_sent(bytes);
                    span_tracer.complete(
                        "encode_write",
                        "net",
                        encode_start,
                        span_tracer.now_us(),
                        vec![("frame", frame.type_name().into()), ("bytes", bytes.into())],
                    );
                    if gated {
                        self.gate.release();
                    }
                }
                Err(_) => {
                    // Peer stopped reading (or the write timed out): mark
                    // the connection dead so the reader exits and pending
                    // replies are dropped without writing.
                    if gated {
                        self.gate.release();
                    }
                    self.mark_dead();
                    let mut st = self.state.lock().unwrap();
                    st.drainer_active = false;
                    drop(st);
                    self.cv.notify_all();
                    return;
                }
            }
        }
    }
}

/// A running kfuse TCP server plus its HTTP metrics sidecar.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    http_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    http_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds the frame listener on `addr` (use port 0 for an ephemeral
    /// port) and the HTTP sidecar on an ephemeral localhost port, then
    /// starts accepting.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let http_listener = TcpListener::bind("127.0.0.1:0")?;
        http_listener.set_nonblocking(true)?;
        let http_addr = http_listener.local_addr()?;

        let mut runtime_cfg = cfg.runtime.clone();
        if runtime_cfg.recorder.is_none() {
            runtime_cfg.recorder = cfg.recorder.clone();
        }
        let inner = Arc::new(Inner {
            runtime: Runtime::new(runtime_cfg),
            cfg,
            registry: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            net: NetMetrics::default(),
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));

        let accept_inner = Arc::clone(&inner);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = thread::Builder::new()
            .name("kfuse-net-accept".into())
            .spawn(move || accept_loop(accept_inner, listener, accept_conns))?;

        let http_inner = Arc::clone(&inner);
        let http_thread = thread::Builder::new()
            .name("kfuse-net-http".into())
            .spawn(move || http::serve(http_inner, http_listener))?;

        Ok(Server {
            inner,
            addr: bound,
            http_addr,
            accept_thread: Some(accept_thread),
            http_thread: Some(http_thread),
            conn_threads,
        })
    }

    /// Address the frame protocol is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Address of the HTTP `/metrics` + `/healthz` sidecar.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// Whether the server is refusing new submissions.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Refuse new submissions while letting admitted work finish —
    /// exactly what receiving [`Frame::Drain`] does.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
    }

    /// Snapshot of the transport counters.
    pub fn net_metrics(&self) -> NetSnapshot {
        self.inner.net.snapshot()
    }

    /// Snapshot of the owned runtime's serving metrics.
    pub fn runtime_metrics(&self) -> MetricsSnapshot {
        self.inner.runtime.metrics()
    }

    /// The always-on flight recorder, if one is installed.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.inner.runtime.recorder()
    }

    /// Drains, closes the listeners, joins every thread, and shuts the
    /// runtime down (in-flight jobs finish first).
    pub fn shutdown(mut self) {
        self.begin_drain();
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.http_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        self.inner.runtime.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `shutdown(self)` takes the threads out; a plain drop still stops
        // the loops so detached threads exit promptly.
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let mut guard = conns.lock().unwrap();
                guard.retain(|t| !t.is_finished());
                if guard.len() >= inner.cfg.max_connections {
                    // Tell the peer *why* before closing: a silent drop
                    // looks identical to a network fault and sends clients
                    // into blind reconnect loops against a full server.
                    inner.net.connection_refused();
                    let mut stream = stream;
                    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
                    let frame = Frame::Error {
                        request_id: 0,
                        code: ErrorCode::ConnectionLimit,
                        message: format!(
                            "connection limit reached ({} active)",
                            inner.cfg.max_connections
                        ),
                        trace: None,
                    };
                    inner.net.frame_type_sent(frame.type_byte());
                    inner.net.error_sent(ErrorCode::ConnectionLimit);
                    if let Ok(bytes) = write_frame(&mut stream, &frame) {
                        inner.net.frame_sent(bytes);
                    }
                    drop(stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
                let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
                let conn_inner = Arc::clone(&inner);
                if let Ok(t) = thread::Builder::new()
                    .name("kfuse-net-conn".into())
                    .spawn(move || handle_connection(conn_inner, stream))
                {
                    guard.push(t);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(inner: Arc<Inner>, mut stream: TcpStream) {
    inner.net.connection_opened();
    let tracer = inner.cfg.tracer.clone();
    let _conn_span = tracer.span("connection", "net");
    tracer.counter(
        "net_connections_active",
        "net",
        inner.net.snapshot().connections_active as f64,
    );

    if let Ok(out) = stream.try_clone() {
        let outbox = Outbox::new(Arc::clone(&inner), out);
        let mut conn = ConnState::default();
        reader_loop(&inner, &mut stream, &outbox, &mut conn);
        // The connection was this session's only submitter: close every
        // owned session so its state planes are freed and any frames
        // still pending resolve (their replies are then written or dropped below).
        for id in conn.sessions.drain() {
            let _ = inner.runtime.close_session(id);
        }
        // Close barrier: everything already admitted is answered (or the
        // peer is dead and its replies were dropped) before the socket
        // goes away.
        outbox.quiesce(Duration::from_secs(30));
    }
    let _ = stream.shutdown(Shutdown::Both);
    inner.net.connection_closed();
}

/// Per-connection session ownership: the ids this connection opened and
/// may submit to. Keeping the set connection-local is the access-control
/// boundary — other connections cannot name these sessions.
#[derive(Default)]
struct ConnState {
    sessions: HashSet<u64>,
}

fn reader_loop(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    outbox: &Arc<Outbox>,
    conn: &mut ConnState,
) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) || outbox.peer_dead() {
            return;
        }
        match read_frame_counted(stream, &inner.cfg.limits) {
            Ok((frame, bytes, header_at)) => {
                inner.net.frame_received(bytes);
                inner.net.frame_type_received(frame.type_byte());
                // The ingress spans land on the reader thread; scoping
                // them to the frame's trace context anchors the server
                // side of the request's causal chain at decode time.
                let span_tracer = match frame.trace() {
                    Some(t) => inner.cfg.tracer.scoped(t.trace_id),
                    None => inner.cfg.tracer.clone(),
                };
                // Header received → frame decoded: payload read, checksum
                // and decode, without the idle wait for the request.
                if span_tracer.is_enabled() {
                    span_tracer.complete(
                        "decode",
                        "net",
                        span_tracer.ts_of(header_at),
                        span_tracer.now_us(),
                        vec![("frame", frame.type_name().into()), ("bytes", bytes.into())],
                    );
                }
                let _span = span_tracer.span(frame.type_name(), "net");
                if !handle_frame(inner, frame, outbox, conn) {
                    return;
                }
            }
            Err(WireError::IdleTimeout) => continue,
            Err(WireError::Closed) => return,
            Err(WireError::Stalled) => {
                inner.net.connection_stalled();
                return;
            }
            Err(WireError::Io(_)) => return,
            Err(e) => {
                // Framing-level garbage: answer with a typed error, then
                // close — the byte stream can no longer be trusted.
                inner.net.protocol_error();
                outbox.push(Reply::Now(Frame::Error {
                    request_id: 0,
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                    trace: None,
                }));
                return;
            }
        }
    }
}

/// Handles one decoded frame; returns `false` to close the connection.
fn handle_frame(
    inner: &Arc<Inner>,
    frame: Frame,
    outbox: &Arc<Outbox>,
    conn: &mut ConnState,
) -> bool {
    match frame {
        Frame::RegisterPipeline {
            name,
            fingerprint,
            pipeline,
        } => {
            if inner.draining.load(Ordering::SeqCst) {
                return send_error(outbox, 0, ErrorCode::Draining, "server is draining");
            }
            let computed = pipeline.fingerprint();
            if computed != fingerprint {
                return send_error(
                    outbox,
                    0,
                    ErrorCode::FingerprintMismatch,
                    &format!("client fingerprint {fingerprint:#018x} != decoded {computed:#018x}"),
                );
            }
            let mut registry = inner.registry.lock().unwrap();
            // Re-registration of an identical pipeline is idempotent —
            // keep the existing Arc so in-flight jobs and the plan cache
            // keep sharing it.
            match registry.get(&name) {
                Some(existing) if existing.fingerprint == computed => {}
                _ => {
                    registry.insert(
                        name,
                        Registered {
                            fingerprint: computed,
                            pipeline: Arc::new(pipeline),
                        },
                    );
                }
            }
            drop(registry);
            outbox.push(Reply::Now(Frame::RegisterAck {
                fingerprint: computed,
            }))
        }
        Frame::Submit {
            request_id,
            tenant,
            deadline_us,
            schedule,
            inputs,
            priority,
            trace,
        } => admit(inner, outbox, request_id, trace, |trace_id, span_id| {
            let pipeline = inner
                .registry
                .lock()
                .unwrap()
                .get(&tenant)
                .map(|reg| Arc::clone(&reg.pipeline))
                .ok_or_else(|| {
                    (
                        ErrorCode::UnknownPipeline,
                        format!("no pipeline registered as {tenant:?}"),
                    )
                })?;
            check_inputs(&pipeline, &inputs).map_err(|msg| (ErrorCode::BadInputs, msg))?;
            // Anchor the relative budget to the server clock *before*
            // queueing so queue wait counts against it.
            let deadline =
                (deadline_us > 0).then(|| Instant::now() + Duration::from_micros(deadline_us));
            let handle = inner
                .runtime
                .submit_with_ctx(
                    &tenant, &pipeline, inputs, schedule, priority, deadline, trace_id, span_id,
                )
                .map_err(|e| map_runtime_error(&e))?;
            // The execution is owned by the watcher, so the declared
            // outputs (distinct ids) move into the reply uncopied.
            let outputs = pipeline.outputs().to_vec();
            Ok((handle, move |mut exec: Execution| {
                outputs
                    .into_iter()
                    .map(|id| {
                        exec.take_image(id).map(|img| (id, img)).ok_or_else(|| {
                            (
                                ErrorCode::ExecFailed,
                                format!("execution produced no image {}", id.0),
                            )
                        })
                    })
                    .collect()
            }))
        }),
        Frame::Ping { token } => outbox.push(Reply::Now(Frame::Pong { token })),
        Frame::Drain => {
            inner.draining.store(true, Ordering::SeqCst);
            // Fence every session this connection owns: in-flight frames
            // finish and their replies are delivered; later SubmitFrames
            // get a typed Draining error.
            for id in &conn.sessions {
                let _ = inner.runtime.drain_session(*id);
            }
            outbox.push(Reply::Now(Frame::DrainAck))
        }
        Frame::OpenSession {
            request_id,
            tenant,
            schedule,
            stream,
        } => {
            if inner.draining.load(Ordering::SeqCst) {
                inner.net.refused_draining();
                return send_error(
                    outbox,
                    request_id,
                    ErrorCode::Draining,
                    "server is draining",
                );
            }
            match inner.runtime.open_session(&tenant, &stream, schedule) {
                Ok(session_id) => {
                    conn.sessions.insert(session_id);
                    outbox.push(Reply::Now(Frame::SessionAck {
                        request_id,
                        session_id,
                    }))
                }
                Err(e) => {
                    let (code, msg) = map_runtime_error(&e);
                    send_error(outbox, request_id, code, &msg)
                }
            }
        }
        Frame::SubmitFrame {
            request_id,
            session_id,
            inputs,
            trace,
        } => admit(inner, outbox, request_id, trace, |trace_id, span_id| {
            if !conn.sessions.contains(&session_id) {
                return Err((
                    ErrorCode::UnknownSession,
                    format!("no session {session_id} on this connection"),
                ));
            }
            let handle = inner
                .runtime
                .submit_frame_with_ctx(session_id, inputs, trace_id, span_id)
                .map_err(|e| map_runtime_error(&e))?;
            Ok((handle, |out: FrameOutput| Ok(out.outputs)))
        }),
        Frame::CloseSession {
            request_id,
            session_id,
            drain,
        } => {
            if !conn.sessions.contains(&session_id) {
                return send_error(
                    outbox,
                    request_id,
                    ErrorCode::UnknownSession,
                    &format!("no session {session_id} on this connection"),
                );
            }
            let stats = if drain {
                inner
                    .runtime
                    .drain_session(session_id)
                    .and_then(|()| inner.runtime.session_stats(session_id))
            } else {
                let stats = inner.runtime.close_session(session_id);
                conn.sessions.remove(&session_id);
                stats
            };
            match stats {
                Ok(s) => outbox.push(Reply::Now(Frame::CloseSessionAck {
                    request_id,
                    session_id,
                    frames_completed: s.frames_completed,
                    frames_errored: s.frames_errored,
                })),
                Err(e) => {
                    let (code, msg) = map_runtime_error(&e);
                    send_error(outbox, request_id, code, &msg)
                }
            }
        }
        // Server-to-client frame types arriving at the server are a
        // protocol violation by a confused peer; answer and keep going.
        Frame::RegisterAck { .. }
        | Frame::ResultOk { .. }
        | Frame::Error { .. }
        | Frame::Pong { .. }
        | Frame::DrainAck
        | Frame::SessionAck { .. }
        | Frame::CloseSessionAck { .. } => send_error(
            outbox,
            0,
            ErrorCode::Unsupported,
            "frame type not accepted in the client-to-server direction",
        ),
    }
}

/// A refusal or failure as it goes on the wire.
type WireFailure = (ErrorCode, String);

/// The admission tail `Submit` and `SubmitFrame` share: the draining
/// check, the in-flight gate, the trace-context split, and the reply path.
/// `submit` validates the request and hands it to the runtime, returning
/// the handle plus how to turn the finished result into reply outputs;
/// the `on_ready` watcher then builds the reply frame on the worker that
/// finished the unit and enqueues it, so replies leave in completion
/// order. A refusal releases the gate slot at once and answers with its
/// typed error (which may overtake slower in-flight replies).
fn admit<T: Send + 'static, O>(
    inner: &Arc<Inner>,
    outbox: &Arc<Outbox>,
    request_id: u64,
    trace: Option<TraceContext>,
    submit: impl FnOnce(u64, u64) -> Result<(Handle<T>, O), WireFailure>,
) -> bool
where
    O: FnOnce(T) -> Result<Vec<(ImageId, Image)>, WireFailure> + Send + 'static,
{
    if inner.draining.load(Ordering::SeqCst) {
        inner.net.refused_draining();
        return send_error_traced(
            outbox,
            request_id,
            ErrorCode::Draining,
            "server is draining",
            trace,
        );
    }
    // The in-flight gate, one budget for both frame types: past
    // `max_in_flight` unanswered requests the reader parks here and TCP
    // backpressure throttles the client.
    let gate_inner = Arc::clone(inner);
    let gate_ob = Arc::clone(outbox);
    if !outbox
        .gate
        .acquire(inner.cfg.max_in_flight.max(1), move || {
            gate_inner.shutdown_requested() || gate_ob.peer_dead()
        })
    {
        return false;
    }
    // Propagate the client's trace context into the runtime so its spans
    // (and the flight-recorder entry) land under the client's trace id.
    let (trace_id, span_id) = trace.map_or((0, 0), |t| (t.trace_id, t.span_id));
    match submit(trace_id, span_id) {
        Ok((handle, outputs)) => {
            let ob = Arc::clone(outbox);
            handle.on_ready(move |result| {
                let frame = match result.map_err(|e| map_runtime_error(&e)).and_then(outputs) {
                    Ok(outputs) => Frame::ResultOk {
                        request_id,
                        outputs,
                        trace,
                    },
                    Err((code, message)) => Frame::Error {
                        request_id,
                        code,
                        message,
                        trace,
                    },
                };
                ob.push(Reply::Gated(frame));
            });
            true
        }
        Err((code, msg)) => {
            outbox.gate.release();
            send_error_traced(outbox, request_id, code, &msg, trace)
        }
    }
}

/// Submitted inputs must bind exactly the pipeline's declared inputs with
/// matching shapes — checked *before* any id indexes anything.
fn check_inputs(pipeline: &Pipeline, inputs: &[(ImageId, Image)]) -> Result<(), String> {
    let declared = pipeline.inputs();
    if inputs.len() != declared.len() {
        return Err(format!(
            "pipeline declares {} inputs, submit carries {}",
            declared.len(),
            inputs.len()
        ));
    }
    for (id, img) in inputs {
        if !declared.contains(id) {
            return Err(format!("image id {} is not a declared input", id.0));
        }
        let want = pipeline.image(*id);
        let got = img.desc();
        if (got.width, got.height, got.channels) != (want.width, want.height, want.channels) {
            return Err(format!(
                "input {} is {}x{}x{}, pipeline wants {}x{}x{}",
                id.0, got.width, got.height, got.channels, want.width, want.height, want.channels
            ));
        }
    }
    Ok(())
}

fn map_runtime_error(e: &RuntimeError) -> (ErrorCode, String) {
    let code = match e {
        RuntimeError::QueueFull => ErrorCode::QueueFull,
        RuntimeError::AdmissionTimeout => ErrorCode::AdmissionTimeout,
        RuntimeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        RuntimeError::ShuttingDown => ErrorCode::Draining,
        RuntimeError::Panicked(_) => ErrorCode::Panicked,
        RuntimeError::Exec(_) => ErrorCode::ExecFailed,
        RuntimeError::UnknownSession(_) => ErrorCode::UnknownSession,
        RuntimeError::SessionDraining => ErrorCode::Draining,
        RuntimeError::SessionClosed => ErrorCode::SessionClosed,
        RuntimeError::Stream(_) => ErrorCode::ExecFailed,
    };
    (code, e.to_string())
}

fn send_error(outbox: &Arc<Outbox>, request_id: u64, code: ErrorCode, message: &str) -> bool {
    send_error_traced(outbox, request_id, code, message, None)
}

/// Like [`send_error`], but echoes the request's trace context so even
/// refusals stay attributable to the trace that caused them.
fn send_error_traced(
    outbox: &Arc<Outbox>,
    request_id: u64,
    code: ErrorCode,
    message: &str,
    trace: Option<TraceContext>,
) -> bool {
    outbox.push(Reply::Now(Frame::Error {
        request_id,
        code,
        message: message.to_string(),
        trace,
    }))
}
