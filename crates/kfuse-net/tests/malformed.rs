//! Hostile-input corpus against a live server.
//!
//! Every case sends bytes a correct client never would and asserts the
//! server either answers with a typed [`Frame::Error`] or closes the
//! connection cleanly — never panicking, never wedging — and that the
//! server still serves well-formed traffic afterwards.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use kfuse_dsl::Schedule;
use kfuse_net::wire::{checksum, encode_frame, read_frame, HEADER_LEN, VERSION};
use kfuse_net::{
    Client, ClientError, ErrorCode, Frame, Limits, Priority, Server, ServerConfig, WireError,
};
use kfuse_sim::synthetic_image;

fn test_server() -> Server {
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", cfg).expect("bind")
}

/// Reads the server's reaction to garbage: a typed error frame (whose
/// message is returned), a clean close, or (for mid-frame stalls) a
/// reset — anything but a hang.
fn expect_error_or_close(stream: &mut TcpStream) -> Option<String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match read_frame(stream, &Limits::default()) {
        Ok(Frame::Error { code, message, .. }) => {
            assert_eq!(code, ErrorCode::Malformed);
            Some(message)
        }
        Ok(other) => panic!("expected Error frame, got {other:?}"),
        Err(WireError::Closed) | Err(WireError::Io(_)) | Err(WireError::Truncated) => None,
        Err(e) => panic!("expected error frame or close, got {e:?}"),
    }
}

/// `bytes` with its payload edited by `mutate` and the checksum
/// re-sealed, so only the payload decoder can object.
fn reseal(mut bytes: Vec<u8>, mutate: impl FnOnce(&mut [u8])) -> Vec<u8> {
    mutate(&mut bytes[HEADER_LEN..]);
    let sum = checksum(&bytes[HEADER_LEN..]);
    bytes[12..16].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// The server must still answer a full register/submit round-trip.
fn server_still_works(server: &Server) {
    let app = &kfuse_apps::paper_apps()[0];
    let p = (app.build_sized)(16, 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.register("sanity", &p).expect("register");
    let inputs: Vec<_> = p
        .inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), 3)))
        .collect();
    let outputs = client
        .call("sanity", inputs.clone(), Schedule::Optimized, None)
        .expect("call");
    let reference = kfuse_sim::execute_reference(&p, &inputs).expect("reference");
    for (id, img) in &outputs {
        assert!(img.bit_equal(reference.expect_image(*id)));
    }
}

#[test]
fn malformed_frame_corpus() {
    let server = test_server();
    let good_ping = encode_frame(&Frame::Ping { token: 1 });

    // (name, bytes to send, close the write side after?)
    let mut corpus: Vec<(&str, Vec<u8>)> = Vec::new();

    let mut bad_magic = good_ping.clone();
    bad_magic[0..4].copy_from_slice(b"HTTP");
    corpus.push(("bad magic", bad_magic));

    // An unknown version, and a valid ping re-headed at each retired
    // revision: all must be refused as a version, never parsed.
    for v in [0x7f, 1, 2, 3, 4] {
        let mut bad_version = good_ping.clone();
        bad_version[4] = v;
        corpus.push(("bad version", bad_version));
    }

    let mut bad_type = good_ping.clone();
    bad_type[5] = 0xee;
    corpus.push(("bad type", bad_type));

    let mut bad_reserved = good_ping.clone();
    bad_reserved[6] = 1;
    corpus.push(("non-zero reserved", bad_reserved));

    let mut bad_checksum = good_ping.clone();
    bad_checksum[12] ^= 0xff;
    corpus.push(("bad checksum", bad_checksum));

    let mut corrupt_payload = good_ping.clone();
    corrupt_payload[HEADER_LEN] ^= 0x55;
    corpus.push(("corrupt payload", corrupt_payload));

    let mut oversized = good_ping.clone();
    oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    corpus.push(("oversized length", oversized));

    corpus.push(("truncated header", good_ping[..7].to_vec()));
    corpus.push(("truncated payload", good_ping[..HEADER_LEN + 3].to_vec()));
    corpus.push(("random noise", (0u16..512).map(|i| (i * 7) as u8).collect()));

    // A well-framed Submit whose payload breaks the one layout. Payload:
    // request id 8 | tenant 4 + 1 | deadline 8 | schedule | priority |
    // input count 4 | trace presence.
    let submit = encode_frame(&Frame::Submit {
        request_id: 1,
        tenant: "t".into(),
        deadline_us: 0,
        schedule: Schedule::Optimized,
        inputs: vec![],
        priority: Priority::Normal,
        trace: None,
    });
    assert_eq!(submit.len(), HEADER_LEN + 28);
    corpus.push(("unknown priority", reseal(submit.clone(), |p| p[22] = 3)));
    corpus.push(("bad trace presence", reseal(submit, |p| p[27] = 2)));

    for (name, bytes) in corpus {
        let mut stream = TcpStream::connect(server.local_addr()).expect(name);
        stream.write_all(&bytes).expect(name);
        // Truncated cases need EOF to be detected as truncation.
        stream.shutdown(std::net::Shutdown::Write).ok();
        let reply = expect_error_or_close(&mut stream);
        if name == "bad version" {
            assert_ne!(bytes[4], VERSION);
            let refusal = WireError::BadVersion(bytes[4]).to_string();
            assert_eq!(
                reply.as_deref(),
                Some(refusal.as_str()),
                "version {}",
                bytes[4]
            );
        }
        server_still_works(&server);
    }

    assert!(server.net_metrics().protocol_errors >= 13);
    server.shutdown();
}

#[test]
fn slow_loris_is_dropped() {
    let server = test_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Start a frame, then stall: three header bytes and silence.
    stream.write_all(&encode_frame(&Frame::Drain)[..3]).unwrap();
    std::thread::sleep(Duration::from_millis(400)); // >> read_timeout
    expect_error_or_close(&mut stream);
    assert_eq!(server.net_metrics().stalled_connections, 1);
    server_still_works(&server);
    server.shutdown();
}

#[test]
fn idle_connection_survives_timeouts() {
    let server = test_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Idle across several read-timeout periods, then talk: the server
    // must not have dropped us (idle != slow-loris).
    std::thread::sleep(Duration::from_millis(450));
    client.ping().expect("ping after idling");
    assert_eq!(server.net_metrics().stalled_connections, 0);
    server.shutdown();
}

#[test]
fn wrong_direction_frame_gets_typed_error() {
    let server = test_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.send_raw(&Frame::DrainAck).expect("send");
    match client.recv_frame().expect("reply") {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("expected Error, got {other:?}"),
    }
    // Connection survives the scolding.
    client.ping().expect("ping still works");
    server.shutdown();
}

#[test]
fn fingerprint_mismatch_and_unknown_tenant_are_typed() {
    let server = test_server();
    let app = &kfuse_apps::paper_apps()[0];
    let p = (app.build_sized)(8, 8);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .send_raw(&Frame::RegisterPipeline {
            name: "lie".into(),
            fingerprint: p.fingerprint() ^ 1,
            pipeline: p.clone(),
        })
        .expect("send");
    match client.recv_frame().expect("reply") {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::FingerprintMismatch),
        other => panic!("expected Error, got {other:?}"),
    }

    let inputs: Vec<_> = p
        .inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), 1)))
        .collect();
    let err = client
        .call("never-registered", inputs, Schedule::Baseline, None)
        .unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownPipeline),
        other => panic!("expected Server error, got {other:?}"),
    }
    server.shutdown();
}

/// A connection past `max_connections` is refused with a typed
/// [`ErrorCode::ConnectionLimit`] error — not a silent close a client
/// cannot tell apart from a network fault — and is counted.
#[test]
fn over_limit_connection_gets_typed_error() {
    let cfg = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");

    // Occupy the only slot and keep it alive.
    let mut occupant = Client::connect(server.local_addr()).expect("first connect");
    occupant.ping().expect("occupant is live");

    // The second connection is told why before the close.
    let mut refused = TcpStream::connect(server.local_addr()).expect("second connect");
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match read_frame(&mut refused, &Limits::default()) {
        Ok(Frame::Error {
            request_id,
            code,
            message,
            ..
        }) => {
            assert_eq!(request_id, 0, "connection-level error");
            assert_eq!(code, ErrorCode::ConnectionLimit);
            assert!(
                message.contains("connection limit"),
                "unhelpful message: {message:?}"
            );
        }
        other => panic!("expected ConnectionLimit error, got {other:?}"),
    }
    // ...and then the close.
    match read_frame(&mut refused, &Limits::default()) {
        Err(WireError::Closed) | Err(WireError::Io(_)) => {}
        other => panic!("expected close after refusal, got {other:?}"),
    }

    let net = server.net_metrics();
    assert_eq!(net.connections_refused, 1);
    // ConnectionLimit is code 13 → index 12 in the per-code counters.
    assert_eq!(net.errors_sent_by_code[12], 1);

    // The occupant's slot is untouched.
    occupant.ping().expect("occupant still live");

    // Once the occupant leaves, new connections are admitted again.
    drop(occupant);
    for _ in 0..200 {
        if let Ok(mut c) = Client::connect(server.local_addr()) {
            if c.ping().is_ok() {
                server.shutdown();
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("slot never freed after occupant disconnected");
}

#[test]
fn mismatched_input_shape_is_typed() {
    let server = test_server();
    let app = &kfuse_apps::paper_apps()[0];
    let p = (app.build_sized)(16, 16);
    let wrong = (app.build_sized)(8, 8);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.register("shapes", &p).expect("register");
    let inputs: Vec<_> = wrong
        .inputs()
        .iter()
        .map(|&id| (id, synthetic_image(wrong.image(id).clone(), 1)))
        .collect();
    let err = client
        .call("shapes", inputs, Schedule::Optimized, None)
        .unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::BadInputs),
        other => panic!("expected Server error, got {other:?}"),
    }
    server.shutdown();
}
