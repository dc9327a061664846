//! Network-layer counters, exported alongside the runtime's metrics.
//!
//! The runtime already meters *jobs* (request outcomes, latency
//! histograms, queue gauges — see `kfuse-runtime::metrics`); this module
//! meters the *transport*: connections, frames, bytes, protocol errors,
//! and the drain/slow-loris events only the server can see.
//! [`NetSnapshot::families`] declares them once, prefixed `kfuse_net_`;
//! the `/metrics` sidecar renders them after the runtime's families in
//! one exposition.

use std::sync::atomic::{AtomicU64, Ordering};

use kfuse_obs::{Family, Sample};

use crate::wire::ErrorCode;

/// Number of wire frame types (type bytes `1..=FRAME_TYPES`).
pub const FRAME_TYPES: usize = 14;
/// Number of typed error codes (`ErrorCode::as_u16` in `1..=ERROR_CODES`).
pub const ERROR_CODES: usize = 15;

/// Stable label for a frame type byte (matches `Frame::type_name`).
pub fn frame_type_label(byte: u8) -> &'static str {
    match byte {
        1 => "register_pipeline",
        2 => "register_ack",
        3 => "submit",
        4 => "result_ok",
        5 => "error",
        6 => "ping",
        7 => "pong",
        8 => "drain",
        9 => "drain_ack",
        10 => "open_session",
        11 => "session_ack",
        12 => "submit_frame",
        13 => "close_session",
        14 => "close_session_ack",
        _ => "unknown",
    }
}

/// Stable label for an error code (snake_case of the variant).
pub fn error_code_label(code: u16) -> &'static str {
    match ErrorCode::from_u16(code) {
        Some(ErrorCode::Malformed) => "malformed",
        Some(ErrorCode::UnknownPipeline) => "unknown_pipeline",
        Some(ErrorCode::QueueFull) => "queue_full",
        Some(ErrorCode::AdmissionTimeout) => "admission_timeout",
        Some(ErrorCode::DeadlineExceeded) => "deadline_exceeded",
        Some(ErrorCode::Draining) => "draining",
        Some(ErrorCode::ExecFailed) => "exec_failed",
        Some(ErrorCode::FingerprintMismatch) => "fingerprint_mismatch",
        Some(ErrorCode::InvalidPipeline) => "invalid_pipeline",
        Some(ErrorCode::BadInputs) => "bad_inputs",
        Some(ErrorCode::Panicked) => "panicked",
        Some(ErrorCode::Unsupported) => "unsupported",
        Some(ErrorCode::ConnectionLimit) => "connection_limit",
        Some(ErrorCode::UnknownSession) => "unknown_session",
        Some(ErrorCode::SessionClosed) => "session_closed",
        None => "unknown",
    }
}

/// Lock-free transport counters shared by every connection handler.
#[derive(Debug, Default)]
pub struct NetMetrics {
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    connections_refused: AtomicU64,
    frames_received: AtomicU64,
    frames_sent: AtomicU64,
    bytes_received: AtomicU64,
    bytes_sent: AtomicU64,
    protocol_errors: AtomicU64,
    stalled_connections: AtomicU64,
    refused_draining: AtomicU64,
    frames_received_by_type: [AtomicU64; FRAME_TYPES],
    frames_sent_by_type: [AtomicU64; FRAME_TYPES],
    errors_sent_by_code: [AtomicU64; ERROR_CODES],
}

impl NetMetrics {
    pub(crate) fn connection_opened(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_refused(&self) {
        self.connections_refused.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn frame_received(&self, bytes: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn frame_sent(&self, bytes: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_stalled(&self) {
        self.stalled_connections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn refused_draining(&self) {
        self.refused_draining.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn frame_type_received(&self, type_byte: u8) {
        if let Some(slot) = self
            .frames_received_by_type
            .get(type_byte.wrapping_sub(1) as usize)
        {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn frame_type_sent(&self, type_byte: u8) {
        if let Some(slot) = self
            .frames_sent_by_type
            .get(type_byte.wrapping_sub(1) as usize)
        {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn error_sent(&self, code: ErrorCode) {
        if let Some(slot) = self
            .errors_sent_by_code
            .get((code.as_u16() as usize).wrapping_sub(1))
        {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> NetSnapshot {
        let load_all = |src: &[AtomicU64]| -> Vec<u64> {
            src.iter().map(|a| a.load(Ordering::Relaxed)).collect()
        };
        NetSnapshot {
            connections_total: self.connections_total.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            connections_refused: self.connections_refused.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            stalled_connections: self.stalled_connections.load(Ordering::Relaxed),
            refused_draining: self.refused_draining.load(Ordering::Relaxed),
            frames_received_by_type: load_all(&self.frames_received_by_type),
            frames_sent_by_type: load_all(&self.frames_sent_by_type),
            errors_sent_by_code: load_all(&self.errors_sent_by_code),
        }
    }
}

/// Plain-data snapshot of [`NetMetrics`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Connections ever accepted.
    pub connections_total: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Connections dropped at accept because the server was full.
    pub connections_refused: u64,
    /// Frames successfully decoded from clients.
    pub frames_received: u64,
    /// Frames written to clients.
    pub frames_sent: u64,
    /// Wire bytes of successfully decoded frames.
    pub bytes_received: u64,
    /// Wire bytes written.
    pub bytes_sent: u64,
    /// Frames rejected as malformed (bad magic/version/checksum/…).
    pub protocol_errors: u64,
    /// Connections dropped for stalling mid-frame (slow-loris).
    pub stalled_connections: u64,
    /// Submissions refused because the server was draining.
    pub refused_draining: u64,
    /// Frames decoded, indexed by `type_byte - 1` (see
    /// [`frame_type_label`]). Length [`FRAME_TYPES`].
    pub frames_received_by_type: Vec<u64>,
    /// Frames written, indexed by `type_byte - 1`. Length [`FRAME_TYPES`].
    pub frames_sent_by_type: Vec<u64>,
    /// `Error` frames sent, indexed by `ErrorCode::as_u16() - 1` (see
    /// [`error_code_label`]). Length [`ERROR_CODES`].
    pub errors_sent_by_code: Vec<u64>,
}

impl NetSnapshot {
    /// Every exported transport metric family, each declared once. Names
    /// are prefixed `kfuse_net_`, apart from the runtime's families. The
    /// by-type and by-code families are sparse: a label value appears once
    /// its counter is nonzero, and a family with none is left out.
    pub fn families(&self) -> Vec<Family> {
        let one = |value: u64| {
            vec![Sample {
                labels: Vec::new(),
                value: value as f64,
            }]
        };
        // One sample per nonzero count, labeled `key = label(index)`.
        let sparse = |key, counts: &[u64], label: fn(usize) -> &'static str| {
            let nonzero = counts.iter().enumerate().filter(|&(_, &c)| c > 0);
            let sample = |(i, &c): (usize, &u64)| Sample {
                labels: vec![(key, label(i).to_string())],
                value: c as f64,
            };
            nonzero.map(sample).collect::<Vec<_>>()
        };
        let mut families = vec![
            Family::counter(
                "kfuse_net_connections_total",
                "Connections ever accepted",
                one(self.connections_total),
            ),
            Family::counter(
                "kfuse_net_connections_refused_total",
                "Connections dropped at accept (server full)",
                one(self.connections_refused),
            ),
            Family::counter(
                "kfuse_net_frames_received_total",
                "Frames successfully decoded",
                one(self.frames_received),
            ),
            Family::counter(
                "kfuse_net_frames_sent_total",
                "Frames written to clients",
                one(self.frames_sent),
            ),
            Family::counter(
                "kfuse_net_bytes_received_total",
                "Wire bytes of decoded frames",
                one(self.bytes_received),
            ),
            Family::counter(
                "kfuse_net_bytes_sent_total",
                "Wire bytes written",
                one(self.bytes_sent),
            ),
            Family::counter(
                "kfuse_net_protocol_errors_total",
                "Frames rejected as malformed",
                one(self.protocol_errors),
            ),
            Family::counter(
                "kfuse_net_refused_draining_total",
                "Submissions refused while draining",
                one(self.refused_draining),
            ),
            Family::counter(
                "kfuse_net_stalled_connections_total",
                "Connections dropped for stalling mid-frame",
                one(self.stalled_connections),
            ),
            Family::gauge(
                "kfuse_net_connections_active",
                "Connections currently open",
                one(self.connections_active),
            ),
        ];
        let frame_type = |i: usize| frame_type_label(i as u8 + 1);
        let by_type = [
            Family::counter(
                "kfuse_net_frames_received_by_type_total",
                "Frames decoded, by frame type",
                sparse("type", &self.frames_received_by_type, frame_type),
            ),
            Family::counter(
                "kfuse_net_frames_sent_by_type_total",
                "Frames written, by frame type",
                sparse("type", &self.frames_sent_by_type, frame_type),
            ),
            Family::counter(
                "kfuse_net_errors_sent_total",
                "Error frames sent, by error code",
                sparse("code", &self.errors_sent_by_code, |i| {
                    error_code_label(i as u16 + 1)
                }),
            ),
        ];
        families.extend(by_type.into_iter().filter(|f| !f.samples.is_empty()));
        families
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_obs::{render_prometheus, validate_prometheus};

    #[test]
    fn prometheus_export_validates() {
        let m = NetMetrics::default();
        m.connection_opened();
        m.frame_received(64);
        m.frame_sent(1024);
        m.protocol_error();
        m.refused_draining();
        m.connection_stalled();
        m.connection_refused();
        let snap = m.snapshot();
        assert_eq!(snap.connections_total, 1);
        assert_eq!(snap.connections_active, 1);
        assert_eq!(snap.bytes_received, 64);
        assert_eq!(snap.bytes_sent, 1024);
        let doc = render_prometheus(&snap.families());
        let samples = validate_prometheus(&doc).expect("valid exposition");
        assert_eq!(samples, 10);
        assert!(doc.contains("kfuse_net_connections_total 1"));
        assert!(doc.contains("kfuse_net_bytes_sent_total 1024"));
        assert!(doc.contains("kfuse_net_protocol_errors_total 1"));
        // No labeled activity recorded: the sparse families stay absent.
        assert!(!doc.contains("kfuse_net_frames_received_by_type_total"));
        assert!(!doc.contains("kfuse_net_errors_sent_total"));
    }

    #[test]
    fn per_type_and_per_code_families_round_trip() {
        let m = NetMetrics::default();
        m.frame_type_received(3); // submit
        m.frame_type_received(3);
        m.frame_type_received(6); // ping
        m.frame_type_sent(4); // result_ok
        m.frame_type_sent(5); // error
        m.error_sent(ErrorCode::DeadlineExceeded);
        m.error_sent(ErrorCode::Malformed);
        m.error_sent(ErrorCode::Malformed);
        // Out-of-range inputs are ignored, never a panic or misfile.
        m.frame_type_received(0);
        m.frame_type_received(200);
        let snap = m.snapshot();
        assert_eq!(snap.frames_received_by_type[2], 2);
        assert_eq!(snap.frames_received_by_type[5], 1);
        assert_eq!(snap.frames_sent_by_type[3], 1);
        assert_eq!(snap.errors_sent_by_code[0], 2);
        assert_eq!(snap.errors_sent_by_code[4], 1);
        let doc = render_prometheus(&snap.families());
        let samples = validate_prometheus(&doc).expect("valid exposition");
        // 10 flat samples + 2 received types + 2 sent types + 2 codes.
        assert_eq!(samples, 16);
        assert!(doc.contains("kfuse_net_frames_received_by_type_total{type=\"submit\"} 2"));
        assert!(doc.contains("kfuse_net_frames_sent_by_type_total{type=\"error\"} 1"));
        assert!(doc.contains("kfuse_net_errors_sent_total{code=\"malformed\"} 2"));
        assert!(doc.contains("kfuse_net_errors_sent_total{code=\"deadline_exceeded\"} 1"));
    }

    /// The exposition text of a snapshot with every flat counter, both
    /// by-type families and the by-code family, byte for byte.
    #[test]
    fn prometheus_exposition_is_pinned() {
        let m = NetMetrics::default();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.connection_refused();
        m.frame_received(64);
        m.frame_received(36);
        m.frame_sent(1024);
        m.protocol_error();
        m.connection_stalled();
        m.refused_draining();
        m.frame_type_received(1);
        m.frame_type_received(3);
        m.frame_type_received(3);
        m.frame_type_sent(4);
        m.frame_type_sent(14);
        m.error_sent(ErrorCode::Malformed);
        m.error_sent(ErrorCode::SessionClosed);
        m.error_sent(ErrorCode::SessionClosed);
        let doc = render_prometheus(&m.snapshot().families());
        assert_eq!(doc, PINNED_EXPOSITION);
    }

    const PINNED_EXPOSITION: &str = r#"# HELP kfuse_net_connections_total Connections ever accepted
# TYPE kfuse_net_connections_total counter
kfuse_net_connections_total 2
# HELP kfuse_net_connections_refused_total Connections dropped at accept (server full)
# TYPE kfuse_net_connections_refused_total counter
kfuse_net_connections_refused_total 1
# HELP kfuse_net_frames_received_total Frames successfully decoded
# TYPE kfuse_net_frames_received_total counter
kfuse_net_frames_received_total 2
# HELP kfuse_net_frames_sent_total Frames written to clients
# TYPE kfuse_net_frames_sent_total counter
kfuse_net_frames_sent_total 1
# HELP kfuse_net_bytes_received_total Wire bytes of decoded frames
# TYPE kfuse_net_bytes_received_total counter
kfuse_net_bytes_received_total 100
# HELP kfuse_net_bytes_sent_total Wire bytes written
# TYPE kfuse_net_bytes_sent_total counter
kfuse_net_bytes_sent_total 1024
# HELP kfuse_net_protocol_errors_total Frames rejected as malformed
# TYPE kfuse_net_protocol_errors_total counter
kfuse_net_protocol_errors_total 1
# HELP kfuse_net_refused_draining_total Submissions refused while draining
# TYPE kfuse_net_refused_draining_total counter
kfuse_net_refused_draining_total 1
# HELP kfuse_net_stalled_connections_total Connections dropped for stalling mid-frame
# TYPE kfuse_net_stalled_connections_total counter
kfuse_net_stalled_connections_total 1
# HELP kfuse_net_connections_active Connections currently open
# TYPE kfuse_net_connections_active gauge
kfuse_net_connections_active 1
# HELP kfuse_net_frames_received_by_type_total Frames decoded, by frame type
# TYPE kfuse_net_frames_received_by_type_total counter
kfuse_net_frames_received_by_type_total{type="register_pipeline"} 1
kfuse_net_frames_received_by_type_total{type="submit"} 2
# HELP kfuse_net_frames_sent_by_type_total Frames written, by frame type
# TYPE kfuse_net_frames_sent_by_type_total counter
kfuse_net_frames_sent_by_type_total{type="result_ok"} 1
kfuse_net_frames_sent_by_type_total{type="close_session_ack"} 1
# HELP kfuse_net_errors_sent_total Error frames sent, by error code
# TYPE kfuse_net_errors_sent_total counter
kfuse_net_errors_sent_total{code="malformed"} 1
kfuse_net_errors_sent_total{code="session_closed"} 2
"#;

    #[test]
    fn every_label_is_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for b in 1..=FRAME_TYPES as u8 {
            assert!(seen.insert(frame_type_label(b)), "dup label for type {b}");
        }
        seen.clear();
        for c in 1..=ERROR_CODES as u16 {
            assert!(seen.insert(error_code_label(c)), "dup label for code {c}");
        }
        assert_eq!(frame_type_label(0), "unknown");
        assert_eq!(error_code_label(16), "unknown");
    }

    #[test]
    fn close_decrements_active() {
        let m = NetMetrics::default();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        let snap = m.snapshot();
        assert_eq!(snap.connections_total, 2);
        assert_eq!(snap.connections_active, 1);
    }
}
