//! The kfuse wire protocol: length-prefixed, checksummed frames.
//!
//! Every message on a kfuse connection is one *frame*:
//!
//! ```text
//! offset  size  field
//!      0     4  magic           "KFN2"
//!      4     1  version         [`VERSION`]; any other value is refused
//!      5     1  frame type      see [`Frame`]
//!      6     2  reserved        must be zero (LE)
//!      8     4  payload length  bytes after the header (LE)
//!     12     4  checksum        [`checksum`] of the payload (LE)
//!     16     …  payload         frame-type specific
//! ```
//!
//! The magic is `KFN2` since the checksum became the eight-lane word-wise
//! FNV-1a defined at [`checksum`]: a `KFN1` peer (byte-serial FNV-1a)
//! fails its first frame with [`WireError::BadMagic`] rather than every
//! frame with a checksum mismatch.
//!
//! **One layout per frame type.** There is one protocol revision, and
//! each frame type has one payload layout (DESIGN.md §3.11 tabulates
//! them). An optional field is a presence byte (`0`/`1`) followed by the
//! field only when the byte is `1`: the trailing [`TraceContext`] of
//! `Submit`, `ResultOk`, `Error` and `SubmitFrame` is encoded this way.
//! `Submit` always carries its priority byte (`0` normal, `1` high, `2`
//! low) right after the schedule byte. Every frame therefore has exactly
//! one encoding because the layout admits no other: decode → re-encode
//! is bit-identical, and any other presence, priority, schedule, drain
//! or state-source byte is [`WireError::Malformed`]. The version byte is
//! `5` because the values `1`–`4` named earlier, incompatible layouts: a
//! peer still speaking one fails its first frame with
//! [`WireError::BadVersion`] instead of being misparsed.
//!
//! All multi-byte integers are little-endian; `f32` values travel as their
//! IEEE-754 bit patterns so results round-trip **bit-identically** (the
//! same discipline `kfuse-fuzz` enforces between executors). The checksum
//! covers only the payload: the header fields are each individually
//! validated, and a corrupted length would surface as a checksum mismatch
//! or truncation anyway. It is verified on every received frame before
//! the payload decoder sees a byte, and any single-byte change of a
//! payload is guaranteed to change it.
//!
//! Decoding is defensive by construction: every count, name, dimension,
//! and expression is bounded by [`Limits`] *before* any allocation, and
//! [`read_frame`] distinguishes a clean peer close ([`WireError::Closed`])
//! from an idle socket ([`WireError::IdleTimeout`]) from a peer that
//! stalls mid-frame ([`WireError::Stalled`] — the slow-loris case a server
//! must drop).

use std::io::{self, ErrorKind, Read, Write};
use std::time::Instant;

use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_runtime::Priority;
use kfuse_stream::StreamPipeline;

use crate::codec;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"KFN2";
/// The protocol version every frame header carries; no other is accepted.
pub const VERSION: u8 = 5;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Client-generated request trace identity, propagated end-to-end:
/// carried on `Submit`/`SubmitFrame`, echoed verbatim in
/// `ResultOk`/`Error`, and stamped onto every server-side span the
/// request produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// 64-bit request trace id (the client should pick it unique and
    /// nonzero; the server treats it as opaque).
    pub trace_id: u64,
    /// The client's root span id under `trace_id` (0 when the client
    /// tracks no spans of its own).
    pub span_id: u64,
}

/// Payload checksum: eight-lane word-wise FNV-1a-32.
///
/// Write `step(h, x) = (h ^ x) * 0x0100_0193 mod 2^32`. Split `data` into
/// its full 32-byte blocks and a tail of fewer than 32 bytes, and read
/// each block as eight little-endian `u32` words. Then:
///
/// 1. eight lanes start at `0x811c_9dc5`, and for every block in order
///    `lane[k] = step(lane[k], word[k])` for `k` in `0..8`;
/// 2. `h` starts at `0x811c_9dc5` and folds the lanes in order,
///    `h = step(h, lane[k])`;
/// 3. every tail byte `b` in order is folded the same way,
///    `h = step(h, b)`; the result is `h`.
///
/// The lanes are independent multiply chains, so the loop runs at a few
/// bytes per cycle where the byte-serial FNV-1a it replaces ran at one
/// byte per four.
///
/// **Any single-byte change changes the checksum.** The multiplier is
/// odd, so `step` is a bijection of `h` for a fixed `x` and of `x` for a
/// fixed `h`. A changed byte inside a block changes exactly one word and
/// through it one lane: that lane differs after the step that reads the
/// word, stays different through its remaining steps (bijections of the
/// lane), and the other seven lanes are untouched. The fold then reads
/// one different `x`, so `h` differs after that step and stays different
/// through every later step (bijections of `h`). A changed tail byte is
/// the same argument started at step 3.
pub fn checksum(data: &[u8]) -> u32 {
    const BASIS: u32 = 0x811c_9dc5;
    let step = |h: u32, x: u32| (h ^ x).wrapping_mul(0x0100_0193);
    let mut lanes = [BASIS; 8];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *lane = step(*lane, u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        }
    }
    let h = lanes.into_iter().fold(BASIS, step);
    blocks
        .remainder()
        .iter()
        .fold(h, |h, &b| step(h, u32::from(b)))
}

/// Decode-side resource bounds, enforced before any allocation.
#[derive(Clone, Debug)]
pub struct Limits {
    /// Maximum payload length a header may announce, in bytes.
    pub max_payload: u32,
    /// Maximum length of any string (pipeline, kernel, stage, image name).
    pub max_name: usize,
    /// Maximum element count of any list (images, kernels, stages, refs,
    /// body expressions, parameters, submitted inputs).
    pub max_count: usize,
    /// Maximum nesting depth of one expression tree.
    pub max_expr_depth: usize,
    /// Maximum image width or height in pixels.
    pub max_dim: usize,
    /// Maximum channels per image.
    pub max_channels: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_payload: 64 << 20,
            max_name: 256,
            max_count: 1 << 16,
            max_expr_depth: 256,
            max_dim: 1 << 14,
            max_channels: 64,
        }
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// A non-timeout I/O error.
    Io(io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The read timed out with no bytes of the next frame received —
    /// the connection is merely idle, not broken.
    IdleTimeout,
    /// The read timed out mid-frame: the peer started a frame and then
    /// stopped feeding it (slow-loris). The stream is unrecoverable.
    Stalled,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame type byte.
    BadType(u8),
    /// The reserved header field was non-zero.
    NonZeroReserved(u16),
    /// The announced payload length exceeds [`Limits::max_payload`].
    Oversized {
        /// Announced payload length.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
    /// The payload checksum did not match the header.
    ChecksumMismatch {
        /// Checksum announced in the header.
        expected: u32,
        /// Checksum computed over the received payload.
        found: u32,
    },
    /// The stream ended before the announced bytes arrived.
    Truncated,
    /// The payload decoded successfully but left unconsumed bytes.
    TrailingBytes(usize),
    /// The payload violated the format or a [`Limits`] bound.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::IdleTimeout => write!(f, "read timed out while idle"),
            WireError::Stalled => write!(f, "peer stalled mid-frame"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadType(t) => write!(f, "unknown frame type {t}"),
            WireError::NonZeroReserved(r) => write!(f, "reserved header field is {r:#x}, not zero"),
            WireError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds limit {max}")
            }
            WireError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "payload checksum {found:#010x} != header {expected:#010x}"
                )
            }
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Whether the stream is still usable after this error. Only an idle
    /// timeout leaves the connection at a frame boundary; everything else
    /// either corrupted framing or lost the transport.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, WireError::IdleTimeout)
    }
}

/// Typed error codes carried by [`Frame::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame violated the wire format.
    Malformed,
    /// `Submit` named a pipeline that was never registered.
    UnknownPipeline,
    /// The runtime queue was full under `Admission::Reject`.
    QueueFull,
    /// Admission under `Admission::BlockWithTimeout` timed out.
    AdmissionTimeout,
    /// The job's deadline expired before a worker picked it up.
    DeadlineExceeded,
    /// The server is draining and refuses new work.
    Draining,
    /// The executor rejected the pipeline or its inputs.
    ExecFailed,
    /// The client-announced fingerprint disagrees with the pipeline.
    FingerprintMismatch,
    /// The registered pipeline failed IR validation.
    InvalidPipeline,
    /// Submitted inputs do not match the pipeline's declared inputs.
    BadInputs,
    /// The job panicked inside a worker.
    Panicked,
    /// The frame type is valid but not accepted in this direction.
    Unsupported,
    /// The server is at its connection limit and refuses this connection.
    ConnectionLimit,
    /// No such streaming session (never opened, already closed, or owned
    /// by a different connection).
    UnknownSession,
    /// The streaming session is closed and accepts no further frames.
    SessionClosed,
}

impl ErrorCode {
    /// Wire representation.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownPipeline => 2,
            ErrorCode::QueueFull => 3,
            ErrorCode::AdmissionTimeout => 4,
            ErrorCode::DeadlineExceeded => 5,
            ErrorCode::Draining => 6,
            ErrorCode::ExecFailed => 7,
            ErrorCode::FingerprintMismatch => 8,
            ErrorCode::InvalidPipeline => 9,
            ErrorCode::BadInputs => 10,
            ErrorCode::Panicked => 11,
            ErrorCode::Unsupported => 12,
            ErrorCode::ConnectionLimit => 13,
            ErrorCode::UnknownSession => 14,
            ErrorCode::SessionClosed => 15,
        }
    }

    /// Inverse of [`ErrorCode::as_u16`].
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownPipeline,
            3 => ErrorCode::QueueFull,
            4 => ErrorCode::AdmissionTimeout,
            5 => ErrorCode::DeadlineExceeded,
            6 => ErrorCode::Draining,
            7 => ErrorCode::ExecFailed,
            8 => ErrorCode::FingerprintMismatch,
            9 => ErrorCode::InvalidPipeline,
            10 => ErrorCode::BadInputs,
            11 => ErrorCode::Panicked,
            12 => ErrorCode::Unsupported,
            13 => ErrorCode::ConnectionLimit,
            14 => ErrorCode::UnknownSession,
            15 => ErrorCode::SessionClosed,
            _ => return None,
        })
    }
}

/// One protocol message. Client→server: `RegisterPipeline`, `Submit`,
/// `Ping`, `Drain`, `OpenSession`, `SubmitFrame`, `CloseSession`.
/// Server→client: `RegisterAck`, `ResultOk`, `Error`, `Pong`,
/// `DrainAck`, `SessionAck`, `CloseSessionAck`.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Ship a pipeline's IR to the server under a tenant name.
    RegisterPipeline {
        /// Tenant/pipeline key later referenced by `Submit`.
        name: String,
        /// Client-computed [`Pipeline::fingerprint`]; the server verifies
        /// it to catch codec disagreement before any job runs.
        fingerprint: u64,
        /// The full unfused pipeline IR.
        pipeline: Pipeline,
    },
    /// Server acknowledgement of a registration.
    RegisterAck {
        /// The fingerprint the server computed from the decoded IR.
        fingerprint: u64,
    },
    /// Execute a registered pipeline on fresh input images.
    Submit {
        /// Client-chosen id echoed in the reply.
        request_id: u64,
        /// Name of a previously registered pipeline.
        tenant: String,
        /// Completion budget in microseconds from server receipt;
        /// `0` means no deadline.
        deadline_us: u64,
        /// Fusion schedule to execute under.
        schedule: Schedule,
        /// Input images keyed by the pipeline's [`ImageId`]s.
        inputs: Vec<(ImageId, Image)>,
        /// Queueing class. Replies carry no priority: the class shapes
        /// queueing, not the result.
        priority: Priority,
        /// Request trace identity, if the client traces.
        trace: Option<TraceContext>,
    },
    /// Successful execution result.
    ResultOk {
        /// Echo of the request id.
        request_id: u64,
        /// The pipeline's declared outputs, bit-exact.
        outputs: Vec<(ImageId, Image)>,
        /// Echo of the submit's trace context, if it carried one.
        trace: Option<TraceContext>,
    },
    /// Typed failure reply. `request_id` is `0` for connection-level
    /// errors that answer no particular request.
    Error {
        /// Echo of the request id, or `0`.
        request_id: u64,
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Echo of the submit's trace context, if it carried one.
        trace: Option<TraceContext>,
    },
    /// Liveness probe.
    Ping {
        /// Opaque token echoed by `Pong`.
        token: u64,
    },
    /// Reply to `Ping`.
    Pong {
        /// Echo of the ping token.
        token: u64,
    },
    /// Ask the server to stop accepting work and finish what is queued.
    /// Also fences every streaming session owned by this connection.
    Drain,
    /// Acknowledgement that draining has begun.
    DrainAck,
    /// Open a temporal streaming session: the server compiles the stream's
    /// frame pipeline once and keeps its state planes alive between
    /// frames.
    OpenSession {
        /// Client-chosen id echoed in the `SessionAck`/`Error` reply.
        request_id: u64,
        /// Tenant the session's frames are accounted to.
        tenant: String,
        /// Fusion schedule the session's plan is pinned to for its
        /// whole lifetime.
        schedule: Schedule,
        /// The temporal pipeline: per-frame IR plus its state bindings.
        stream: StreamPipeline,
    },
    /// Server acknowledgement of an `OpenSession`.
    SessionAck {
        /// Echo of the open's request id.
        request_id: u64,
        /// Server-assigned session handle for `SubmitFrame`/`CloseSession`.
        session_id: u64,
    },
    /// Submit the next frame of a session's input sequence. Replies reuse
    /// `ResultOk`/`Error` keyed by `request_id`; within one session they
    /// arrive in submission order.
    SubmitFrame {
        /// Client-chosen id echoed in the reply.
        request_id: u64,
        /// Session handle from `SessionAck`.
        session_id: u64,
        /// This frame's fresh (non-state) inputs.
        inputs: Vec<(ImageId, Image)>,
        /// Request trace identity, if the client traces.
        trace: Option<TraceContext>,
    },
    /// Fence (`drain`) or tear down a session. Draining keeps the session
    /// open for in-flight frames but refuses new ones; closing frees its
    /// state and answers anything still pending with a typed error.
    CloseSession {
        /// Client-chosen id echoed in the `CloseSessionAck`/`Error` reply.
        request_id: u64,
        /// Session handle from `SessionAck`.
        session_id: u64,
        /// `true` = fence only (session stays open); `false` = full close.
        drain: bool,
    },
    /// Server acknowledgement of a `CloseSession` with the session's frame
    /// accounting at ack time.
    CloseSessionAck {
        /// Echo of the close's request id.
        request_id: u64,
        /// Echo of the session handle.
        session_id: u64,
        /// Frames that completed successfully over the session's lifetime.
        frames_completed: u64,
        /// Frames that failed (including any pending frames a full close
        /// answered with `SessionClosed`).
        frames_errored: u64,
    },
}

impl Frame {
    /// Wire type byte of this frame.
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::RegisterPipeline { .. } => 1,
            Frame::RegisterAck { .. } => 2,
            Frame::Submit { .. } => 3,
            Frame::ResultOk { .. } => 4,
            Frame::Error { .. } => 5,
            Frame::Ping { .. } => 6,
            Frame::Pong { .. } => 7,
            Frame::Drain => 8,
            Frame::DrainAck => 9,
            Frame::OpenSession { .. } => 10,
            Frame::SessionAck { .. } => 11,
            Frame::SubmitFrame { .. } => 12,
            Frame::CloseSession { .. } => 13,
            Frame::CloseSessionAck { .. } => 14,
        }
    }

    /// The trace context this frame carries, if any.
    pub fn trace(&self) -> Option<TraceContext> {
        match self {
            Frame::Submit { trace, .. }
            | Frame::ResultOk { trace, .. }
            | Frame::Error { trace, .. }
            | Frame::SubmitFrame { trace, .. } => *trace,
            _ => None,
        }
    }

    /// Short name for logs and traces.
    pub fn type_name(&self) -> &'static str {
        match self {
            Frame::RegisterPipeline { .. } => "register_pipeline",
            Frame::RegisterAck { .. } => "register_ack",
            Frame::Submit { .. } => "submit",
            Frame::ResultOk { .. } => "result_ok",
            Frame::Error { .. } => "error",
            Frame::Ping { .. } => "ping",
            Frame::Pong { .. } => "pong",
            Frame::Drain => "drain",
            Frame::DrainAck => "drain_ack",
            Frame::OpenSession { .. } => "open_session",
            Frame::SessionAck { .. } => "session_ack",
            Frame::SubmitFrame { .. } => "submit_frame",
            Frame::CloseSession { .. } => "close_session",
            Frame::CloseSessionAck { .. } => "close_session_ack",
        }
    }
}

// ---------------------------------------------------------------------------
// Byte-level primitives shared with `codec`.
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    let v = u32::try_from(v).expect("encoded count fits in u32");
    put_u32(out, v);
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over a received payload.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn i32(&mut self) -> Result<i32, WireError> {
        Ok(self.u32()? as i32)
    }

    pub(crate) fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a `u32` element count and bounds it by `limit` *and* by the
    /// bytes left in the payload (every element costs at least one byte),
    /// so a hostile count can never drive a large allocation.
    pub(crate) fn count(&mut self, limit: usize, what: &str) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > limit {
            return Err(WireError::Malformed(format!(
                "{what} count {n} exceeds limit {limit}"
            )));
        }
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    pub(crate) fn string(&mut self, limits: &Limits, what: &str) -> Result<String, WireError> {
        let len = self.count(limits.max_name, what)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed(format!("{what} is not valid UTF-8")))
    }
}

// ---------------------------------------------------------------------------
// Frame encode / decode.
// ---------------------------------------------------------------------------

fn encode_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::RegisterPipeline {
            name,
            fingerprint,
            pipeline,
        } => {
            put_str(out, name);
            put_u64(out, *fingerprint);
            codec::encode_pipeline(out, pipeline);
        }
        Frame::RegisterAck { fingerprint } => put_u64(out, *fingerprint),
        Frame::Submit {
            request_id,
            tenant,
            deadline_us,
            schedule,
            inputs,
            priority,
            trace,
        } => {
            put_u64(out, *request_id);
            put_str(out, tenant);
            put_u64(out, *deadline_us);
            put_u8(out, schedule_byte(*schedule));
            put_u8(out, priority_byte(*priority));
            codec::encode_bound_images(out, inputs);
            put_trace(out, trace);
        }
        Frame::ResultOk {
            request_id,
            outputs,
            trace,
        } => {
            put_u64(out, *request_id);
            codec::encode_bound_images(out, outputs);
            put_trace(out, trace);
        }
        Frame::Error {
            request_id,
            code,
            message,
            trace,
        } => {
            put_u64(out, *request_id);
            put_u16(out, code.as_u16());
            put_str(out, message);
            put_trace(out, trace);
        }
        Frame::Ping { token } | Frame::Pong { token } => put_u64(out, *token),
        Frame::Drain | Frame::DrainAck => {}
        Frame::OpenSession {
            request_id,
            tenant,
            schedule,
            stream,
        } => {
            put_u64(out, *request_id);
            put_str(out, tenant);
            put_u8(out, schedule_byte(*schedule));
            codec::encode_stream_pipeline(out, stream);
        }
        Frame::SessionAck {
            request_id,
            session_id,
        } => {
            put_u64(out, *request_id);
            put_u64(out, *session_id);
        }
        Frame::SubmitFrame {
            request_id,
            session_id,
            inputs,
            trace,
        } => {
            put_u64(out, *request_id);
            put_u64(out, *session_id);
            codec::encode_bound_images(out, inputs);
            put_trace(out, trace);
        }
        Frame::CloseSession {
            request_id,
            session_id,
            drain,
        } => {
            put_u64(out, *request_id);
            put_u64(out, *session_id);
            put_u8(out, u8::from(*drain));
        }
        Frame::CloseSessionAck {
            request_id,
            session_id,
            frames_completed,
            frames_errored,
        } => {
            put_u64(out, *request_id);
            put_u64(out, *session_id);
            put_u64(out, *frames_completed);
            put_u64(out, *frames_errored);
        }
    }
}

/// Appends the trace field: a presence byte, then the 16-byte context
/// (`trace_id`, `span_id`) only when the byte is `1`.
fn put_trace(out: &mut Vec<u8>, trace: &Option<TraceContext>) {
    put_u8(out, u8::from(trace.is_some()));
    if let Some(t) = trace {
        put_u64(out, t.trace_id);
        put_u64(out, t.span_id);
    }
}

/// Reads the trace field [`put_trace`] writes.
fn read_trace(r: &mut ByteReader<'_>) -> Result<Option<TraceContext>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(TraceContext {
            trace_id: r.u64()?,
            span_id: r.u64()?,
        })),
        other => Err(WireError::Malformed(format!(
            "bad trace-presence byte {other}"
        ))),
    }
}

/// The priority byte of `Submit`: `0`–`2`. Every other value decodes as
/// [`WireError::Malformed`].
fn priority_byte(p: Priority) -> u8 {
    match p {
        Priority::Normal => 0,
        Priority::High => 1,
        Priority::Low => 2,
    }
}

fn priority_from_byte(b: u8) -> Result<Priority, WireError> {
    Ok(match b {
        0 => Priority::Normal,
        1 => Priority::High,
        2 => Priority::Low,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown priority byte {other}"
            )))
        }
    })
}

/// The schedule byte of `Submit` and `OpenSession`: `0`–`2`, the paper's
/// three schedules. Every other value decodes as [`WireError::Malformed`].
fn schedule_byte(s: Schedule) -> u8 {
    match s {
        Schedule::Baseline => 0,
        Schedule::Basic => 1,
        Schedule::Optimized => 2,
    }
}

fn schedule_from_byte(b: u8) -> Result<Schedule, WireError> {
    Ok(match b {
        0 => Schedule::Baseline,
        1 => Schedule::Basic,
        2 => Schedule::Optimized,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown schedule byte {other}"
            )))
        }
    })
}

/// Serializes a frame as header + payload, ready to write to a stream,
/// in one buffer: the payload is encoded straight after a reserved header
/// whose length and checksum fields are then patched in.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN];
    out[..4].copy_from_slice(&MAGIC);
    out[4] = VERSION;
    out[5] = frame.type_byte();
    encode_payload(frame, &mut out);
    let len = u32::try_from(out.len() - HEADER_LEN).expect("payload fits u32");
    out[8..12].copy_from_slice(&len.to_le_bytes());
    let cksum = checksum(&out[HEADER_LEN..]);
    out[12..16].copy_from_slice(&cksum.to_le_bytes());
    out
}

/// Validated frame header: `(type byte, payload length, payload checksum)`.
pub fn parse_header(
    header: &[u8; HEADER_LEN],
    limits: &Limits,
) -> Result<(u8, u32, u32), WireError> {
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(WireError::BadVersion(header[4]));
    }
    let ftype = header[5];
    if !(1..=14).contains(&ftype) {
        return Err(WireError::BadType(ftype));
    }
    let reserved = u16::from_le_bytes([header[6], header[7]]);
    if reserved != 0 {
        return Err(WireError::NonZeroReserved(reserved));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > limits.max_payload {
        return Err(WireError::Oversized {
            len,
            max: limits.max_payload,
        });
    }
    let cksum = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    Ok((ftype, len, cksum))
}

/// Decodes one payload whose header already validated as frame type
/// `ftype`.
pub fn decode_payload(ftype: u8, payload: &[u8], limits: &Limits) -> Result<Frame, WireError> {
    let mut r = ByteReader::new(payload);
    let frame = match ftype {
        1 => {
            let name = r.string(limits, "pipeline name")?;
            let fingerprint = r.u64()?;
            let pipeline = codec::decode_pipeline(&mut r, limits)?;
            Frame::RegisterPipeline {
                name,
                fingerprint,
                pipeline,
            }
        }
        2 => Frame::RegisterAck {
            fingerprint: r.u64()?,
        },
        3 => {
            let request_id = r.u64()?;
            let tenant = r.string(limits, "tenant name")?;
            let deadline_us = r.u64()?;
            let schedule = schedule_from_byte(r.u8()?)?;
            let priority = priority_from_byte(r.u8()?)?;
            let inputs = codec::decode_bound_images(&mut r, limits)?;
            let trace = read_trace(&mut r)?;
            Frame::Submit {
                request_id,
                tenant,
                deadline_us,
                schedule,
                inputs,
                priority,
                trace,
            }
        }
        4 => {
            let request_id = r.u64()?;
            let outputs = codec::decode_bound_images(&mut r, limits)?;
            let trace = read_trace(&mut r)?;
            Frame::ResultOk {
                request_id,
                outputs,
                trace,
            }
        }
        5 => {
            let request_id = r.u64()?;
            let raw = r.u16()?;
            let code = ErrorCode::from_u16(raw)
                .ok_or_else(|| WireError::Malformed(format!("unknown error code {raw}")))?;
            let message = r.string(limits, "error message")?;
            let trace = read_trace(&mut r)?;
            Frame::Error {
                request_id,
                code,
                message,
                trace,
            }
        }
        6 => Frame::Ping { token: r.u64()? },
        7 => Frame::Pong { token: r.u64()? },
        8 => Frame::Drain,
        9 => Frame::DrainAck,
        10 => {
            let request_id = r.u64()?;
            let tenant = r.string(limits, "tenant name")?;
            let schedule = schedule_from_byte(r.u8()?)?;
            let stream = codec::decode_stream_pipeline(&mut r, limits)?;
            Frame::OpenSession {
                request_id,
                tenant,
                schedule,
                stream,
            }
        }
        11 => Frame::SessionAck {
            request_id: r.u64()?,
            session_id: r.u64()?,
        },
        12 => {
            let request_id = r.u64()?;
            let session_id = r.u64()?;
            let inputs = codec::decode_bound_images(&mut r, limits)?;
            let trace = read_trace(&mut r)?;
            Frame::SubmitFrame {
                request_id,
                session_id,
                inputs,
                trace,
            }
        }
        13 => {
            let request_id = r.u64()?;
            let session_id = r.u64()?;
            let drain = match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(WireError::Malformed(format!("bad drain byte {other}"))),
            };
            Frame::CloseSession {
                request_id,
                session_id,
                drain,
            }
        }
        14 => Frame::CloseSessionAck {
            request_id: r.u64()?,
            session_id: r.u64()?,
            frames_completed: r.u64()?,
            frames_errored: r.u64()?,
        },
        other => return Err(WireError::BadType(other)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(frame)
}

/// Decodes one complete frame from a byte buffer (header + payload).
pub fn decode_frame(buf: &[u8], limits: &Limits) -> Result<Frame, WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let (ftype, len, expected) = parse_header(&header, limits)?;
    let payload = &buf[HEADER_LEN..];
    if payload.len() < len as usize {
        return Err(WireError::Truncated);
    }
    if payload.len() > len as usize {
        return Err(WireError::TrailingBytes(payload.len() - len as usize));
    }
    let found = checksum(payload);
    if found != expected {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    decode_payload(ftype, payload, limits)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Fills `buf` from `r`, classifying timeouts by whether the frame had
/// already started (`started`, or any byte of `buf` already read).
fn read_full(r: &mut impl Read, buf: &mut [u8], started: bool) -> Result<(), WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if !started && got == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                return Err(if !started && got == 0 {
                    WireError::IdleTimeout
                } else {
                    WireError::Stalled
                });
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Reads and decodes one frame from a blocking stream. With a read
/// timeout set on the stream, an idle connection surfaces as
/// [`WireError::IdleTimeout`] (recoverable — retry) while a peer that
/// stops mid-frame surfaces as [`WireError::Stalled`] (drop it).
pub fn read_frame(r: &mut impl Read, limits: &Limits) -> Result<Frame, WireError> {
    read_frame_counted(r, limits).map(|(frame, _, _)| frame)
}

/// Like [`read_frame`], additionally returning the on-wire frame size in
/// bytes (header + payload) so callers can meter traffic, and the instant
/// the header had arrived so they can time the frame apart from the idle
/// wait before it.
pub fn read_frame_counted(
    r: &mut impl Read,
    limits: &Limits,
) -> Result<(Frame, usize, Instant), WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_full(r, &mut header, false)?;
    let header_at = Instant::now();
    let (ftype, len, expected) = parse_header(&header, limits)?;
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, true)?;
    let found = checksum(&payload);
    if found != expected {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    let frame = decode_payload(ftype, &payload, limits)?;
    Ok((frame, HEADER_LEN + payload.len(), header_at))
}

/// Encodes and writes one frame, returning the bytes written.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<usize> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::ImageDesc;

    fn limits() -> Limits {
        Limits::default()
    }

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame);
        // The patched-in-place header fields describe the payload.
        let payload = &bytes[HEADER_LEN..];
        assert_eq!(bytes[8..12], (payload.len() as u32).to_le_bytes());
        assert_eq!(bytes[12..16], checksum(payload).to_le_bytes());
        let decoded = decode_frame(&bytes, &limits()).expect("frame round-trips");
        // Bit-identity: re-encoding the decoded frame reproduces the bytes.
        assert_eq!(encode_frame(&decoded), bytes, "re-encode is bit-identical");
        decoded
    }

    #[test]
    fn control_frames_round_trip() {
        roundtrip(&Frame::Ping { token: 0xdead_beef });
        roundtrip(&Frame::Pong { token: u64::MAX });
        roundtrip(&Frame::Drain);
        roundtrip(&Frame::DrainAck);
        roundtrip(&Frame::RegisterAck {
            fingerprint: 0x1234_5678_9abc_def0,
        });
        roundtrip(&Frame::Error {
            request_id: 7,
            code: ErrorCode::DeadlineExceeded,
            message: "too late".into(),
            trace: None,
        });
    }

    #[test]
    fn submit_round_trips_with_nan_payload() {
        let desc = ImageDesc::new("in", 3, 2, 1);
        let data = vec![f32::NAN, -0.0, f32::INFINITY, 1.5, -2.5, f32::MIN_POSITIVE];
        let img = Image::from_data(desc, data);
        let frame = Frame::Submit {
            request_id: 42,
            tenant: "harris".into(),
            deadline_us: 5_000_000,
            schedule: Schedule::Optimized,
            inputs: vec![(ImageId(0), img)],
            priority: Priority::Normal,
            trace: None,
        };
        match roundtrip(&frame) {
            Frame::Submit {
                request_id,
                tenant,
                deadline_us,
                schedule,
                inputs,
                ..
            } => {
                assert_eq!(request_id, 42);
                assert_eq!(tenant, "harris");
                assert_eq!(deadline_us, 5_000_000);
                assert_eq!(schedule, Schedule::Optimized);
                assert_eq!(inputs.len(), 1);
                // NaN and -0.0 survive bit-exactly.
                let bits: Vec<u32> = inputs[0].1.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits[0], f32::NAN.to_bits());
                assert_eq!(bits[1], (-0.0f32).to_bits());
            }
            other => panic!("decoded wrong frame: {other:?}"),
        }
    }

    #[test]
    fn header_rejections() {
        let good = encode_frame(&Frame::Ping { token: 1 });

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::BadMagic(_))
        ));

        // One version is spoken: every other value, the retired 1–4
        // included, is refused before the payload is read.
        assert_eq!(good[4], VERSION);
        for v in (0..=u8::MAX).filter(|&v| v != VERSION) {
            let mut bad = good.clone();
            bad[4] = v;
            assert!(
                matches!(decode_frame(&bad, &limits()), Err(WireError::BadVersion(got)) if got == v),
                "version {v}"
            );
        }

        let mut bad = good.clone();
        bad[5] = 200;
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::BadType(200))
        ));

        let mut bad = good.clone();
        bad[6] = 1;
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::NonZeroReserved(1))
        ));

        let mut bad = good.clone();
        bad[HEADER_LEN] ^= 0x80; // corrupt payload
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            decode_frame(&good[..10], &limits()),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            decode_frame(&good[..HEADER_LEN + 2], &limits()),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = encode_frame(&Frame::Drain);
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&bytes, &limits()) {
            Err(WireError::Oversized { len, .. }) => assert_eq!(len, u32::MAX),
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Same via the streaming path: the reader must refuse without
        // trying to buffer 4 GiB.
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor, &limits()),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_frame(&Frame::Ping { token: 3 });
        bytes.push(0);
        assert!(matches!(
            decode_frame(&bytes, &limits()),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn streaming_read_classifies_eof() {
        // EOF at a frame boundary is a clean close…
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame(&mut empty, &limits()),
            Err(WireError::Closed)
        ));
        // …EOF mid-frame is truncation.
        let bytes = encode_frame(&Frame::Ping { token: 9 });
        let mut cut = std::io::Cursor::new(bytes[..bytes.len() - 3].to_vec());
        assert!(matches!(
            read_frame(&mut cut, &limits()),
            Err(WireError::Truncated)
        ));
        let mut cut = std::io::Cursor::new(bytes[..7].to_vec());
        assert!(matches!(
            read_frame(&mut cut, &limits()),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn error_codes_round_trip() {
        for v in 0..=20u16 {
            if let Some(code) = ErrorCode::from_u16(v) {
                assert_eq!(code.as_u16(), v);
            }
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(13), Some(ErrorCode::ConnectionLimit));
        assert_eq!(ErrorCode::from_u16(15), Some(ErrorCode::SessionClosed));
        assert_eq!(ErrorCode::from_u16(16), None);
    }

    fn ctx() -> TraceContext {
        TraceContext {
            trace_id: 0x0123_4567_89ab_cdef,
            span_id: 0xfeed_face_cafe_f00d,
        }
    }

    /// Re-frames `bytes` after `mutate` edits its payload, length and
    /// checksum re-sealed, so the payload decoder is what must object.
    fn reseal(bytes: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = bytes[HEADER_LEN..].to_vec();
        mutate(&mut payload);
        let mut out = bytes[..HEADER_LEN].to_vec();
        out[8..12].copy_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        out[12..16].copy_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// One frame of each type with a trace field, carrying `trace`.
    fn traced_frames(trace: Option<TraceContext>) -> [Frame; 4] {
        [
            Frame::Submit {
                request_id: 1,
                tenant: "t".into(),
                deadline_us: 0,
                schedule: Schedule::Basic,
                inputs: vec![],
                priority: Priority::Normal,
                trace,
            },
            Frame::ResultOk {
                request_id: 9,
                outputs: vec![],
                trace,
            },
            Frame::Error {
                request_id: 9,
                code: ErrorCode::QueueFull,
                message: "full".into(),
                trace,
            },
            Frame::SubmitFrame {
                request_id: 5,
                session_id: 17,
                inputs: vec![],
                trace,
            },
        ]
    }

    /// On every frame type that has one, the trace field ends the
    /// payload as a presence byte followed, only when it is `1`, by the
    /// context's two u64s.
    #[test]
    fn trace_field_is_a_presence_byte_then_the_context() {
        let mut context = Vec::new();
        put_u64(&mut context, ctx().trace_id);
        put_u64(&mut context, ctx().span_id);
        for (plain, traced) in traced_frames(None).iter().zip(&traced_frames(Some(ctx()))) {
            let name = plain.type_name();
            let without = encode_frame(plain);
            let with = encode_frame(traced);
            let n = without.len() - 1;
            assert_eq!(without[n], 0, "{name}");
            assert_eq!(with[HEADER_LEN..n], without[HEADER_LEN..n], "{name}");
            assert_eq!(with[n], 1, "{name}");
            assert_eq!(with[n + 1..], context[..], "{name}");
            assert_eq!(roundtrip(plain).trace(), None, "{name}");
            assert_eq!(roundtrip(traced).trace(), Some(ctx()), "{name}");
        }
    }

    #[test]
    fn traced_replies_round_trip() {
        match roundtrip(&Frame::ResultOk {
            request_id: 9,
            outputs: vec![],
            trace: Some(ctx()),
        }) {
            Frame::ResultOk { trace, .. } => assert_eq!(trace, Some(ctx())),
            other => panic!("decoded wrong frame: {other:?}"),
        }
        match roundtrip(&Frame::Error {
            request_id: 9,
            code: ErrorCode::QueueFull,
            message: "full".into(),
            trace: Some(ctx()),
        }) {
            Frame::Error { trace, .. } => assert_eq!(trace, Some(ctx())),
            other => panic!("decoded wrong frame: {other:?}"),
        }
    }

    /// Hostile-peer rules for the trace field, on every frame type that
    /// has one: an unknown presence byte is malformed, a context cut
    /// short is truncated, and context bytes behind a `0` presence byte
    /// are trailing bytes, never silently read.
    #[test]
    fn hostile_trace_context_rejected() {
        for (plain, traced) in traced_frames(None).iter().zip(&traced_frames(Some(ctx()))) {
            let name = plain.type_name();
            let bad = reseal(&encode_frame(plain), |p| *p.last_mut().unwrap() = 2);
            assert!(
                matches!(decode_frame(&bad, &limits()), Err(WireError::Malformed(m)) if m == "bad trace-presence byte 2"),
                "{name}"
            );
            let with = encode_frame(traced);
            let cut = reseal(&with, |p| p.truncate(p.len() - 8));
            assert!(
                matches!(decode_frame(&cut, &limits()), Err(WireError::Truncated)),
                "{name}"
            );
            let absent = reseal(&with, |p| {
                let presence = p.len() - 17;
                p[presence] = 0;
            });
            assert!(
                matches!(
                    decode_frame(&absent, &limits()),
                    Err(WireError::TrailingBytes(16))
                ),
                "{name}"
            );
        }
    }

    fn qos_submit(priority: Priority, trace: Option<TraceContext>) -> Frame {
        Frame::Submit {
            request_id: 11,
            tenant: "q".into(),
            deadline_us: 250,
            schedule: Schedule::Optimized,
            inputs: vec![],
            priority,
            trace,
        }
    }

    /// Offset of `qos_submit`'s priority byte in its payload: request id
    /// 8 | tenant 4 + 1 | deadline 8 | schedule 1.
    const PRIORITY_AT: usize = 22;

    /// Every priority, traced or not, round-trips bit-identically with
    /// its byte right after the schedule byte.
    #[test]
    fn submit_priority_byte_round_trips() {
        for (priority, byte) in [
            (Priority::Normal, 0),
            (Priority::High, 1),
            (Priority::Low, 2),
        ] {
            for trace in [None, Some(ctx())] {
                let frame = qos_submit(priority, trace);
                assert_eq!(encode_frame(&frame)[HEADER_LEN + PRIORITY_AT], byte);
                match roundtrip(&frame) {
                    Frame::Submit {
                        priority: p,
                        trace: t,
                        ..
                    } => {
                        assert_eq!(p, priority);
                        assert_eq!(t, trace);
                    }
                    other => panic!("decoded wrong frame: {other:?}"),
                }
            }
        }
    }

    /// Hostile-peer rules for `Submit`: unknown priority bytes, a bad
    /// trace-presence byte, a context the presence byte promises but the
    /// payload lacks, a chopped tail and a retired schedule byte are all
    /// rejected.
    #[test]
    fn hostile_qos_frames_rejected() {
        let good = encode_frame(&qos_submit(Priority::High, None));
        assert_eq!(good[HEADER_LEN + PRIORITY_AT], 1, "priority byte located");

        for b in [3u8, 9] {
            let bad = reseal(&good, |p| p[PRIORITY_AT] = b);
            assert!(matches!(
                decode_frame(&bad, &limits()),
                Err(WireError::Malformed(m)) if m == format!("unknown priority byte {b}")
            ));
        }
        // Bad trace-presence byte.
        let bad = reseal(&good, |p| *p.last_mut().unwrap() = 7);
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::Malformed(_))
        ));
        // Presence byte says traced but the context bytes are missing.
        let bad = reseal(&good, |p| *p.last_mut().unwrap() = 1);
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::Truncated)
        ));
        // Presence byte chopped off, honestly re-framed: truncated.
        let bad = reseal(&good, |p| p.truncate(p.len() - 1));
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::Truncated)
        ));

        // A retired schedule byte (3), the byte before the priority.
        assert_eq!(
            good[HEADER_LEN + PRIORITY_AT - 1],
            2,
            "schedule byte located"
        );
        let bad = reseal(&good, |p| p[PRIORITY_AT - 1] = 3);
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::Malformed(m)) if m == "unknown schedule byte 3"
        ));
    }

    /// Bytes `7i + 3 (mod 256)`: no two neighbours equal, no period of 32.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn checksum_matches_reference_vectors() {
        // Computed by an independent implementation of the doc-comment
        // definition. The first three take only the fold and the tail;
        // the pattern lengths straddle one block and fill two.
        assert_eq!(checksum(b""), 0x84fe_beed);
        assert_eq!(checksum(b"a"), 0xe905_f664);
        assert_eq!(checksum(b"foobar"), 0x266b_de30);
        assert_eq!(checksum(&pattern(31)), 0xefed_5d23);
        assert_eq!(checksum(&pattern(32)), 0xd7bf_5785);
        assert_eq!(checksum(&pattern(33)), 0x0836_9592);
        assert_eq!(checksum(&pattern(64)), 0xcb5e_a76d);
    }

    /// The doc-comment definition transcribed with index arithmetic and
    /// none of the implementation's iterator structure.
    #[allow(clippy::needless_range_loop)] // the indices are the point
    fn naive_checksum(data: &[u8]) -> u32 {
        let step = |h: u32, x: u32| (h ^ x).wrapping_mul(0x0100_0193);
        let full = data.len() / 32;
        let mut lanes = [0x811c_9dc5u32; 8];
        for block in 0..full {
            for k in 0..8 {
                let at = block * 32 + k * 4;
                let word = u32::from(data[at])
                    | u32::from(data[at + 1]) << 8
                    | u32::from(data[at + 2]) << 16
                    | u32::from(data[at + 3]) << 24;
                lanes[k] = step(lanes[k], word);
            }
        }
        let mut h = 0x811c_9dc5u32;
        for k in 0..8 {
            h = step(h, lanes[k]);
        }
        for i in full * 32..data.len() {
            h = step(h, u32::from(data[i]));
        }
        h
    }

    /// SplitMix64, for test inputs that do not repeat with any period.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_bytes(n: usize, rng: &mut u64) -> Vec<u8> {
        (0..n).map(|_| splitmix(rng) as u8).collect()
    }

    #[test]
    fn checksum_agrees_with_naive_reference() {
        let mut rng = 0x5eed_0013;
        let longest = (1 << 20) + 3;
        let data = random_bytes(longest, &mut rng);
        for len in 0..=130 {
            assert_eq!(
                checksum(&data[..len]),
                naive_checksum(&data[..len]),
                "{len}"
            );
        }
        for _ in 0..16 {
            let len = splitmix(&mut rng) as usize % (longest + 1);
            assert_eq!(
                checksum(&data[..len]),
                naive_checksum(&data[..len]),
                "{len}"
            );
        }
        assert_eq!(checksum(&data), naive_checksum(&data));
    }

    /// The property `malformed.rs`, the codec tests and the fuzz wire lane
    /// lean on, exhaustively where that is affordable: every position and
    /// every non-zero xor mask of every length up to 100 (so each lane,
    /// the fold and the tail are all hit), then sampled on a 1 MiB payload.
    #[test]
    fn checksum_detects_every_single_byte_change() {
        let mut rng = 0x5eed_0113;
        for len in 1..=100 {
            let mut data = random_bytes(len, &mut rng);
            let good = checksum(&data);
            for at in 0..len {
                for mask in 1..=255u8 {
                    data[at] ^= mask;
                    assert_ne!(checksum(&data), good, "len {len} byte {at} mask {mask:#x}");
                    data[at] ^= mask;
                }
            }
        }
        let mut data = random_bytes(1 << 20, &mut rng);
        let good = checksum(&data);
        // An unoptimized build takes ~10 ms per MiB; CI runs the full
        // sample in release.
        let samples = if cfg!(debug_assertions) { 64 } else { 4096 };
        for _ in 0..samples {
            let at = splitmix(&mut rng) as usize % data.len();
            let mask = 1 + (splitmix(&mut rng) % 255) as u8;
            data[at] ^= mask;
            assert_ne!(checksum(&data), good, "byte {at} mask {mask:#x}");
            data[at] ^= mask;
        }
    }

    /// The lanes must buy what they are there for. Both loops run in this
    /// process over the same buffer, so the host's speed cancels; the
    /// ratio is ≈ 10 on the development host.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "throughput is only meaningful optimized")]
    fn checksum_outruns_byte_serial_fnv() {
        fn byte_serial(data: &[u8]) -> u32 {
            let mut h = 0x811c_9dc5u32;
            for &b in data {
                h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
            }
            h
        }
        fn median_of_9(f: fn(&[u8]) -> u32, data: &[u8]) -> std::time::Duration {
            let mut times: Vec<_> = (0..9)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(f(std::hint::black_box(data)));
                    start.elapsed()
                })
                .collect();
            times.sort();
            times[4]
        }
        let data = random_bytes(4 << 20, &mut 0x5eed_0213);
        let serial = median_of_9(byte_serial, &data);
        let lanes = median_of_9(checksum, &data);
        let ratio = serial.as_secs_f64() / lanes.as_secs_f64();
        assert!(
            ratio >= 3.0,
            "checksum {lanes:?} vs byte-serial {serial:?}: only {ratio:.1}x"
        );
    }

    /// Minimal temporal pipeline for the session-frame tests: blend the
    /// fresh frame with the previous output.
    fn test_stream() -> kfuse_stream::StreamPipeline {
        use kfuse_ir::{BinOp, BorderMode, Expr, Kernel};
        use kfuse_stream::{StateBinding, StateSource, StreamPipeline};
        let mut p = Pipeline::new("flow");
        let frame = p.add_input(ImageDesc::new("frame", 8, 6, 1));
        let prev = p.add_input(ImageDesc::new("prev", 8, 6, 1));
        let out = p.add_image(ImageDesc::new("out", 8, 6, 1));
        p.add_kernel(Kernel::simple(
            "blend",
            vec![frame, prev],
            out,
            vec![BorderMode::Clamp, BorderMode::Clamp],
            vec![Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::load(0)),
                    Box::new(Expr::load(1)),
                )),
                Box::new(Expr::Const(0.5)),
            )],
            vec![],
        ));
        p.mark_output(out);
        StreamPipeline::new(
            p,
            vec![StateBinding {
                tap: prev,
                source: StateSource::Output(out),
                depth: 1,
            }],
        )
        .expect("valid stream")
    }

    #[test]
    fn session_frames_round_trip() {
        let stream = test_stream();
        let open = roundtrip(&Frame::OpenSession {
            request_id: 3,
            tenant: "flow".into(),
            schedule: Schedule::Basic,
            stream: stream.clone(),
        });
        match open {
            Frame::OpenSession {
                request_id,
                tenant,
                schedule,
                stream: s,
            } => {
                assert_eq!(request_id, 3);
                assert_eq!(tenant, "flow");
                assert_eq!(schedule, Schedule::Basic);
                // Fingerprint identity ⇒ the temporal structure survived.
                assert_eq!(s.fingerprint(), stream.fingerprint());
                assert_eq!(s.states(), stream.states());
            }
            other => panic!("decoded wrong frame: {other:?}"),
        }

        roundtrip(&Frame::SessionAck {
            request_id: 3,
            session_id: 17,
        });
        roundtrip(&Frame::CloseSession {
            request_id: 9,
            session_id: 17,
            drain: true,
        });
        roundtrip(&Frame::CloseSession {
            request_id: 10,
            session_id: 17,
            drain: false,
        });
        roundtrip(&Frame::CloseSessionAck {
            request_id: 10,
            session_id: 17,
            frames_completed: 640,
            frames_errored: 2,
        });

        let desc = ImageDesc::new("frame", 8, 6, 1);
        let img = Image::from_data(desc, vec![1.0; 48]);
        for trace in [None, Some(ctx())] {
            let frame = Frame::SubmitFrame {
                request_id: 5,
                session_id: 17,
                inputs: vec![(ImageId(0), img.clone())],
                trace,
            };
            match roundtrip(&frame) {
                Frame::SubmitFrame {
                    session_id,
                    inputs,
                    trace: t,
                    ..
                } => {
                    assert_eq!(session_id, 17);
                    assert_eq!(inputs.len(), 1);
                    assert_eq!(t, trace);
                }
                other => panic!("decoded wrong frame: {other:?}"),
            }
        }
    }

    /// Hostile-peer rules for the session frames: an unknown state-source
    /// kind, a retired schedule byte and a bad trace-presence byte are
    /// all malformed.
    #[test]
    fn version_4_gating_is_strict_both_ways() {
        let open = encode_frame(&Frame::OpenSession {
            request_id: 1,
            tenant: "t".into(),
            schedule: Schedule::Optimized,
            stream: test_stream(),
        });
        // State table tail layout: ... tap u32 | kind u8 | id u32 | depth u8.
        let bad = reseal(&open, |p| {
            let kind = p.len() - 6;
            assert_eq!(p[kind], 1, "kind byte located");
            p[kind] = 9;
        });
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::Malformed(_))
        ));

        // A retired schedule byte (3) on OpenSession is rejected before
        // the stream is decoded: request id 8 | tenant 4 + 1 | schedule.
        let bad = reseal(&open, |p| {
            assert_eq!(p[13], 2, "schedule byte located");
            p[13] = 3;
        });
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::Malformed(m)) if m == "unknown schedule byte 3"
        ));

        // A bad trace-presence byte on SubmitFrame is rejected.
        let submit = encode_frame(&Frame::SubmitFrame {
            request_id: 1,
            session_id: 2,
            inputs: vec![],
            trace: None,
        });
        let bad = reseal(&submit, |p| {
            let presence = p.len() - 1;
            assert_eq!(p[presence], 0);
            p[presence] = 7;
        });
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::Malformed(_))
        ));
    }
}
