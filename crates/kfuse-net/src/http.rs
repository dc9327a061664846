//! Minimal HTTP/1.0 sidecar for `/metrics`, `/healthz`, and
//! `/debug/requests`.
//!
//! Deliberately tiny: one poll-accept loop on its own thread, one request
//! per connection, `Connection: close` semantics. The `/metrics` body is
//! one `kfuse_obs::render_prometheus` of the runtime's families
//! (`MetricsSnapshot::families`) followed by the transport's
//! (`NetSnapshot::families`); `kfuse_obs::validate_prometheus` would
//! refuse the document if the two lists shared a family name.
//! `/healthz` answers `200 ok` while serving and `503 draining` once a
//! drain has begun, which is what a load balancer needs to rotate the
//! instance out before shutdown. `/debug/requests` dumps the always-on
//! flight recorder's retained request span trees as a Chrome trace
//! (`404` when recording is disabled).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::server::Inner;

/// Longest request head (request line + headers) we will buffer.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

pub(crate) fn serve(inner: Arc<Inner>, listener: TcpListener) {
    loop {
        if inner.shutdown_requested() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                handle_request(&inner, stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_request(inner: &Arc<Inner>, mut stream: TcpStream) {
    let Some(path) = read_request_path(&mut stream) else {
        let _ = respond(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    match path.as_str() {
        "/metrics" => {
            let mut families = inner.runtime.metrics().families();
            families.extend(inner.net.snapshot().families());
            let body = kfuse_obs::render_prometheus(&families);
            let _ = respond(&mut stream, 200, "text/plain; version=0.0.4", &body);
        }
        "/healthz" => {
            if inner.draining.load(Ordering::SeqCst) {
                let _ = respond(&mut stream, 503, "text/plain", "draining\n");
            } else {
                let _ = respond(&mut stream, 200, "text/plain", "ok\n");
            }
        }
        "/debug/requests" => match inner.runtime.recorder() {
            Some(rec) => {
                let _ = respond(
                    &mut stream,
                    200,
                    "application/json",
                    &rec.dump_chrome_json(),
                );
            }
            None => {
                let _ = respond(&mut stream, 404, "text/plain", "flight recorder disabled\n");
            }
        },
        _ => {
            let _ = respond(&mut stream, 404, "text/plain", "not found\n");
        }
    }
}

/// Reads the request head and returns the path of a `GET`; `None` on
/// anything malformed, over-long, or non-GET.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.len() > MAX_REQUEST_BYTES {
                    return None;
                }
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    Some(path.to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
