//! Dependency-free TCP serving front-end for the `kfuse` runtime.
//!
//! After `kfuse-runtime` made fused-pipeline serving a *process-local*
//! facility, this crate puts it on the network — the deployment shape
//! runtime-fusion systems assume (clients ship array-program IR at
//! runtime; the server amortizes planning across requests via the
//! fingerprint-keyed plan cache). Everything is built on `std` alone,
//! matching the workspace's zero-external-crate rule.
//!
//! * [`wire`] — the length-prefixed, checksummed frame protocol (an
//!   eight-lane word-wise FNV-1a, [`wire::checksum`], that costs about
//!   one `memcpy` of the payload), one revision with one payload layout
//!   per frame type: `RegisterPipeline` (serialized kfuse-ir +
//!   fingerprint), `Submit` (tenant, deadline budget, schedule, priority,
//!   image payload, optional trace context), `ResultOk` / `Error`
//!   replies, the streaming-session frames, and `Ping`/`Drain` control
//!   frames. Decoding is bounded by [`wire::Limits`] before any
//!   allocation.
//! * [`server`] — a [`server::Server`] owning a `kfuse_runtime::Runtime`
//!   (QoS-aware): per-connection read/write timeouts,
//!   slow-loris detection, bounded in-flight pipelining with
//!   completion-order reply multiplexing (a slow request never
//!   head-of-line blocks a fast one on the same connection), priority
//!   and deadline propagation into the runtime's fair worker queue,
//!   typed refusals at the connection limit, graceful drain, and an
//!   HTTP/1.0 sidecar serving Prometheus `/metrics`, `/healthz` and
//!   `/debug/requests`.
//! * [`client`] — a blocking [`client::Client`] with register / submit /
//!   pipelined receive / ping / drain.
//! * [`metrics`] — transport counters (`kfuse_net_*` families), rendered
//!   after the runtime's serving metrics in one `/metrics` exposition.
//!
//! Frames survive the wire bit-exactly — images travel as raw IEEE-754
//! bit patterns — so a served result can be compared with
//! `Image::bit_equal` against a local reference execution:
//!
//! ```
//! use kfuse_net::wire::{decode_frame, encode_frame, Frame, Limits};
//!
//! let bytes = encode_frame(&Frame::Ping { token: 7 });
//! match decode_frame(&bytes, &Limits::default()).unwrap() {
//!     Frame::Ping { token } => assert_eq!(token, 7),
//!     other => panic!("wrong frame: {other:?}"),
//! }
//! ```

pub mod client;
mod codec;
mod http;
pub mod metrics;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use kfuse_runtime::Priority;
pub use metrics::{NetMetrics, NetSnapshot};
pub use server::{Server, ServerConfig};
pub use wire::{ErrorCode, Frame, Limits, WireError};
