//! Blocking client for the kfuse wire protocol.
//!
//! A [`Client`] wraps one TCP connection. Requests can be pipelined:
//! [`Client::submit`] returns as soon as the frame is written, and
//! [`Client::recv_result`] collects replies as they arrive. Replies come
//! back in *completion* order, not submission order — the server
//! multiplexes all in-flight jobs onto the connection so a slow request
//! never head-of-line blocks a fast one; match replies to requests by
//! request id. [`Client::call`] is the simple submit-and-wait
//! composition (one request in flight, so ordering is moot).
//! [`Client::submit_qos`] attaches a [`Priority`] class that the
//! server's priority-class scheduler honors.
//!
//! When given an enabled [`Tracer`] ([`Client::set_tracer`]), every
//! submit generates a fresh [`TraceContext`] that travels on the wire,
//! and the client records `client_send` / `client_recv` spans under that
//! trace id — the client-side ends of the causal chain the server-side
//! flight recorder completes.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_obs::Tracer;
use kfuse_runtime::Priority;
use kfuse_stream::StreamPipeline;

use crate::wire::{read_frame, write_frame, ErrorCode, Frame, Limits, TraceContext, WireError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(io::Error),
    /// The reply could not be decoded.
    Wire(WireError),
    /// The server answered with a typed [`Frame::Error`].
    Server {
        /// Request the error answers (`0` = connection-level).
        request_id: u64,
        /// Machine-readable cause.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server sent a frame that makes no sense here.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server {
                request_id,
                code,
                message,
            } => write!(
                f,
                "server error (request {request_id}, {code:?}): {message}"
            ),
            ClientError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One connection to a kfuse server.
pub struct Client {
    stream: TcpStream,
    limits: Limits,
    next_id: u64,
    tracer: Tracer,
    last_trace: Option<TraceContext>,
}

impl Client {
    /// Connects with default [`Limits`] and no socket timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            limits: Limits::default(),
            next_id: 0,
            tracer: Tracer::disabled(),
            last_trace: None,
        })
    }

    /// Installs a tracer. When enabled, every [`Client::submit`] attaches
    /// a generated [`TraceContext`] to the wire frame and records
    /// `client_send` / `client_recv` spans under its trace id.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The trace context attached to the most recent submit (if any).
    pub fn last_trace(&self) -> Option<TraceContext> {
        self.last_trace
    }

    /// Generates a fresh trace id: wall clock, process id, and the
    /// request counter through a SplitMix64-style finalizer. Nonzero by
    /// construction (0 means "no trace" on the wire).
    fn generate_trace_id(&self) -> u64 {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut z = nanos
            ^ self.next_id.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (u64::from(std::process::id()) << 32);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)).max(1)
    }

    /// Sets socket read/write timeouts (`None` = block forever).
    pub fn set_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        self.stream.set_read_timeout(read)?;
        self.stream.set_write_timeout(write)
    }

    /// Replaces the decode-side limits applied to server replies.
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Sends a raw frame (loadgen and the fuzz harness use this to send
    /// frames a well-behaved client never would).
    pub fn send_raw(&mut self, frame: &Frame) -> io::Result<usize> {
        write_frame(&mut self.stream, frame)
    }

    /// Receives the next frame, whatever it is.
    pub fn recv_frame(&mut self) -> Result<Frame, WireError> {
        read_frame(&mut self.stream, &self.limits)
    }

    /// Registers `pipeline` under `name`; returns the server-computed
    /// fingerprint (always equal to `pipeline.fingerprint()` — the server
    /// verifies and would error otherwise).
    pub fn register(&mut self, name: &str, pipeline: &Pipeline) -> Result<u64, ClientError> {
        self.send_raw(&Frame::RegisterPipeline {
            name: name.to_string(),
            fingerprint: pipeline.fingerprint(),
            pipeline: pipeline.clone(),
        })?;
        match self.recv_frame()? {
            Frame::RegisterAck { fingerprint } => Ok(fingerprint),
            Frame::Error {
                request_id,
                code,
                message,
                ..
            } => Err(ClientError::Server {
                request_id,
                code,
                message,
            }),
            _ => Err(ClientError::Unexpected("reply to RegisterPipeline")),
        }
    }

    /// Submits without waiting; returns the request id. `deadline` is a
    /// completion budget measured from server receipt. With a tracer
    /// installed, a fresh trace context is generated and propagated.
    pub fn submit(
        &mut self,
        tenant: &str,
        inputs: Vec<(ImageId, Image)>,
        schedule: Schedule,
        deadline: Option<Duration>,
    ) -> Result<u64, ClientError> {
        let trace = self.tracer.is_enabled().then(|| TraceContext {
            trace_id: self.generate_trace_id(),
            span_id: self.next_id + 1,
        });
        self.submit_full(tenant, inputs, schedule, deadline, Priority::Normal, trace)
    }

    /// Like [`Client::submit`], but with an explicit [`Priority`] class.
    pub fn submit_qos(
        &mut self,
        tenant: &str,
        inputs: Vec<(ImageId, Image)>,
        schedule: Schedule,
        deadline: Option<Duration>,
        priority: Priority,
    ) -> Result<u64, ClientError> {
        let trace = self.tracer.is_enabled().then(|| TraceContext {
            trace_id: self.generate_trace_id(),
            span_id: self.next_id + 1,
        });
        self.submit_full(tenant, inputs, schedule, deadline, priority, trace)
    }

    /// Full-control submit: priority class and trace context both
    /// explicit. Both submit flavors funnel through here.
    fn submit_full(
        &mut self,
        tenant: &str,
        inputs: Vec<(ImageId, Image)>,
        schedule: Schedule,
        deadline: Option<Duration>,
        priority: Priority,
        trace: Option<TraceContext>,
    ) -> Result<u64, ClientError> {
        self.next_id += 1;
        let request_id = self.next_id;
        let deadline_us = deadline
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1))
            .unwrap_or(0);
        self.last_trace = trace;
        let start = self.tracer.now_us();
        self.send_raw(&Frame::Submit {
            request_id,
            tenant: tenant.to_string(),
            deadline_us,
            schedule,
            inputs,
            priority,
            trace,
        })?;
        if let Some(t) = trace {
            self.tracer.scoped(t.trace_id).complete(
                "client_send",
                "net",
                start,
                self.tracer.now_us(),
                vec![("tenant", tenant.into()), ("request_id", request_id.into())],
            );
        }
        Ok(request_id)
    }

    /// Collects the next execution reply:
    /// `(request id, output images)`.
    pub fn recv_result(&mut self) -> Result<(u64, Vec<(ImageId, Image)>), ClientError> {
        let start = self.tracer.now_us();
        let frame = self.recv_frame()?;
        if let Some(t) = frame.trace() {
            self.tracer.scoped(t.trace_id).complete(
                "client_recv",
                "net",
                start,
                self.tracer.now_us(),
                vec![("frame", frame.type_name().into())],
            );
        }
        match frame {
            Frame::ResultOk {
                request_id,
                outputs,
                ..
            } => Ok((request_id, outputs)),
            Frame::Error {
                request_id,
                code,
                message,
                ..
            } => Err(ClientError::Server {
                request_id,
                code,
                message,
            }),
            _ => Err(ClientError::Unexpected("reply to Submit")),
        }
    }

    /// Submit-and-wait.
    pub fn call(
        &mut self,
        tenant: &str,
        inputs: Vec<(ImageId, Image)>,
        schedule: Schedule,
        deadline: Option<Duration>,
    ) -> Result<Vec<(ImageId, Image)>, ClientError> {
        let id = self.submit(tenant, inputs, schedule, deadline)?;
        let (request_id, outputs) = self.recv_result()?;
        if request_id != id {
            return Err(ClientError::Unexpected("out-of-order reply"));
        }
        Ok(outputs)
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let token = 0x6b66_7573_650a_0a0a ^ self.next_id;
        self.send_raw(&Frame::Ping { token })?;
        match self.recv_frame()? {
            Frame::Pong { token: t } if t == token => Ok(()),
            Frame::Pong { .. } => Err(ClientError::Unexpected("pong with wrong token")),
            _ => Err(ClientError::Unexpected("reply to Ping")),
        }
    }

    /// Asks the server to drain; returns once acknowledged.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        self.send_raw(&Frame::Drain)?;
        match self.recv_frame()? {
            Frame::DrainAck => Ok(()),
            _ => Err(ClientError::Unexpected("reply to Drain")),
        }
    }

    /// Opens a streaming session over `stream`; returns the server's
    /// session id. The session's plan is compiled once and pinned to
    /// `schedule` for its lifetime. Synchronous: waits for the ack.
    pub fn open_session(
        &mut self,
        tenant: &str,
        stream: &StreamPipeline,
        schedule: Schedule,
    ) -> Result<u64, ClientError> {
        self.next_id += 1;
        let request_id = self.next_id;
        self.send_raw(&Frame::OpenSession {
            request_id,
            tenant: tenant.to_string(),
            schedule,
            stream: stream.clone(),
        })?;
        match self.recv_frame()? {
            Frame::SessionAck { session_id, .. } => Ok(session_id),
            Frame::Error {
                request_id,
                code,
                message,
                ..
            } => Err(ClientError::Server {
                request_id,
                code,
                message,
            }),
            _ => Err(ClientError::Unexpected("reply to OpenSession")),
        }
    }

    /// Submits the next frame of a session without waiting; returns the
    /// request id. Pipelines like [`Client::submit`]: collect replies
    /// with [`Client::recv_result`] (within one session they arrive in
    /// submission order). With a tracer installed, a fresh trace context
    /// is generated and propagated.
    pub fn submit_frame(
        &mut self,
        session_id: u64,
        inputs: Vec<(ImageId, Image)>,
    ) -> Result<u64, ClientError> {
        self.next_id += 1;
        let request_id = self.next_id;
        let trace = self.tracer.is_enabled().then(|| TraceContext {
            trace_id: self.generate_trace_id(),
            span_id: request_id,
        });
        self.last_trace = trace;
        let start = self.tracer.now_us();
        self.send_raw(&Frame::SubmitFrame {
            request_id,
            session_id,
            inputs,
            trace,
        })?;
        if let Some(t) = trace {
            self.tracer.scoped(t.trace_id).complete(
                "client_send",
                "net",
                start,
                self.tracer.now_us(),
                vec![
                    ("session", session_id.into()),
                    ("request_id", request_id.into()),
                ],
            );
        }
        Ok(request_id)
    }

    /// Submit-one-frame-and-wait.
    pub fn step_session(
        &mut self,
        session_id: u64,
        inputs: Vec<(ImageId, Image)>,
    ) -> Result<Vec<(ImageId, Image)>, ClientError> {
        let id = self.submit_frame(session_id, inputs)?;
        let (request_id, outputs) = self.recv_result()?;
        if request_id != id {
            return Err(ClientError::Unexpected("out-of-order reply"));
        }
        Ok(outputs)
    }

    /// Fences a session: frames already in flight complete, later
    /// submits are refused with [`ErrorCode::Draining`]. The session
    /// stays open (its stats remain queryable via a later close).
    pub fn drain_session(&mut self, session_id: u64) -> Result<(), ClientError> {
        self.close_session_inner(session_id, true).map(|_| ())
    }

    /// Closes a session, freeing its state planes; returns
    /// `(frames_completed, frames_errored)` over the session's lifetime.
    /// Frames still pending at close are answered with
    /// [`ErrorCode::SessionClosed`].
    pub fn close_session(&mut self, session_id: u64) -> Result<(u64, u64), ClientError> {
        self.close_session_inner(session_id, false)
    }

    /// Shared drain/close path. The ack may be preceded by replies to
    /// frames still in flight — forward them is impossible here, so this
    /// skips past `ResultOk`/frame-level errors until the ack arrives
    /// (callers that care about every frame's result should collect them
    /// with [`Client::recv_result`] before draining or closing).
    fn close_session_inner(
        &mut self,
        session_id: u64,
        drain: bool,
    ) -> Result<(u64, u64), ClientError> {
        self.next_id += 1;
        let request_id = self.next_id;
        self.send_raw(&Frame::CloseSession {
            request_id,
            session_id,
            drain,
        })?;
        loop {
            match self.recv_frame()? {
                Frame::CloseSessionAck {
                    request_id: rid,
                    frames_completed,
                    frames_errored,
                    ..
                } if rid == request_id => return Ok((frames_completed, frames_errored)),
                // Replies to still-in-flight frames of this (or another)
                // session overtaking the ack: drop them.
                Frame::ResultOk { .. } => continue,
                Frame::Error {
                    request_id: rid,
                    code,
                    message,
                    ..
                } => {
                    if rid == request_id {
                        return Err(ClientError::Server {
                            request_id: rid,
                            code,
                            message,
                        });
                    }
                    continue;
                }
                _ => return Err(ClientError::Unexpected("reply to CloseSession")),
            }
        }
    }
}
