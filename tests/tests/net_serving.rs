//! End-to-end network serving: a live [`kfuse_net::Server`] driven by
//! concurrent clients over localhost.
//!
//! The contract under test is the tentpole of the net subsystem:
//!
//! * every paper app served over the wire is **bit-identical** to a local
//!   `execute_reference` run of the same unfused pipeline (the codec is
//!   bit-exact and fusion is semantics-preserving end to end);
//! * a deadline that expires in the queue is answered with a typed
//!   rejection **without executing** (no worker time on dead requests);
//! * `Drain` lets in-flight work finish and deliver results while new
//!   submissions are refused.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kfuse_apps::paper_apps;
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_net::{Client, ClientError, ErrorCode, Server, ServerConfig};
use kfuse_runtime::{Admission, RuntimeConfig};
use kfuse_sim::{execute_reference, synthetic_image};

fn inputs_for(p: &Pipeline, seed: u64) -> Vec<(ImageId, Image)> {
    p.inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
        .collect()
}

/// Server + ≥4 concurrent client threads × six paper apps × three
/// schedules' worth of traffic, every reply checked against the local
/// reference interpreter.
#[test]
fn concurrent_clients_serve_all_paper_apps_bit_identically() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let apps: Arc<Vec<_>> = Arc::new(
        paper_apps()
            .into_iter()
            .map(|app| {
                let p = (app.build_sized)(32, 24);
                let inputs = inputs_for(&p, 11);
                let reference = execute_reference(&p, &inputs).expect("reference");
                (app.name, p, inputs, reference)
            })
            .collect(),
    );

    let verified = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..4)
        .map(|conn: u64| {
            let apps = Arc::clone(&apps);
            let verified = Arc::clone(&verified);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (name, p, _, _) in apps.iter() {
                    client.register(name, p).expect("register");
                }
                let schedule = match conn % 3 {
                    0 => Schedule::Baseline,
                    1 => Schedule::Basic,
                    _ => Schedule::Optimized,
                };
                for (name, _, inputs, reference) in apps.iter() {
                    for _ in 0..3 {
                        let outputs = client
                            .call(name, inputs.clone(), schedule, None)
                            .expect("call");
                        assert!(!outputs.is_empty());
                        for (id, img) in &outputs {
                            assert!(
                                img.bit_equal(reference.expect_image(*id)),
                                "{name} output {} differs from execute_reference",
                                id.0
                            );
                        }
                        verified.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    // 4 connections × 6 apps × 3 calls.
    assert_eq!(verified.load(Ordering::Relaxed), 72);

    // The runtime metrics saw every request. The plan cache is shared
    // across connections: only a first call can miss (concurrent cold
    // starts may each miss before the plan lands), so ≤ 1 miss per
    // connection and never one per request.
    let metrics = server.runtime_metrics();
    for (name, ..) in apps.iter() {
        let m = metrics.pipeline(name).expect("per-tenant metrics");
        assert_eq!(m.requests, 12, "{name}");
        assert_eq!(m.completed, 12, "{name}");
        assert!(m.cache_misses <= 4, "{name}: {} misses", m.cache_misses);
    }
    assert!(server.net_metrics().frames_received >= 72);
    server.shutdown();
}

/// A submission whose deadline has already effectively passed when a
/// worker dequeues it is rejected without executing: no cache activity,
/// no completion — just the typed error and a deadline-miss count.
#[test]
fn expired_deadline_is_rejected_over_the_wire_without_executing() {
    // No workers would be ideal; instead make the one worker busy with a
    // long job, so the 1 µs-deadline job must wait in the queue and be
    // dead on dequeue.
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            workers: 1,
            admission: Admission::BlockWithTimeout(Duration::from_secs(5)),
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let app = &paper_apps()[0];
    let big = (app.build_sized)(256, 256);
    let small = (app.build_sized)(16, 16);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.register("busy", &big).expect("register big");
    client.register("tight", &small).expect("register small");

    // Pipeline: occupy the worker, then the doomed request behind it.
    let busy_id = client
        .submit("busy", inputs_for(&big, 1), Schedule::Optimized, None)
        .expect("submit busy");
    let tight_id = client
        .submit(
            "tight",
            inputs_for(&small, 2),
            Schedule::Optimized,
            Some(Duration::from_micros(1)),
        )
        .expect("submit tight");

    // Replies arrive in completion order, and the doomed request's typed
    // rejection (shed at admission or dead on dequeue) overtakes the
    // long-running job — exactly the non-head-of-line-blocking behavior
    // the multiplexed reply path exists for. Collect both, any order.
    let mut busy_ok = false;
    let mut tight_rejected = false;
    for _ in 0..2 {
        match client.recv_result() {
            Ok((id, _)) => {
                assert_eq!(id, busy_id);
                busy_ok = true;
            }
            Err(ClientError::Server {
                request_id, code, ..
            }) => {
                assert_eq!(request_id, tight_id);
                assert_eq!(code, ErrorCode::DeadlineExceeded);
                tight_rejected = true;
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert!(busy_ok, "busy request never completed");
    assert!(tight_rejected, "tight request was not rejected");

    let metrics = server.runtime_metrics();
    let m = metrics.pipeline("tight").expect("tenant metrics");
    assert_eq!(m.requests, 1);
    assert_eq!(m.deadline_misses, 1);
    assert_eq!(m.completed, 0, "expired job must not execute");
    assert_eq!(m.cache_misses, 0, "expired job must not even plan");
    server.shutdown();
}

/// `Drain` lets in-flight requests finish (results still delivered) while
/// refusing everything submitted afterwards.
#[test]
fn drain_finishes_in_flight_and_refuses_new_work() {
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let app = &paper_apps()[0];
    let big = (app.build_sized)(256, 256);
    let inputs = inputs_for(&big, 5);
    let reference = execute_reference(&big, &inputs).expect("reference");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.register("work", &big).expect("register");

    // In flight before the drain… `submit` returns at socket-write time,
    // so wait until the runtime has actually admitted the job — a drain
    // racing ahead of the submit on a second connection would otherwise
    // legitimately refuse it.
    let in_flight = client
        .submit("work", inputs.clone(), Schedule::Optimized, None)
        .expect("submit");
    let admitted = |s: &kfuse_net::Server| {
        s.runtime_metrics()
            .pipelines
            .iter()
            .any(|p| p.name == "work" && p.requests >= 1)
    };
    for _ in 0..2000 {
        if admitted(&server) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(admitted(&server), "submit never reached the runtime");
    // …drain from a second connection (the first is mid-conversation)…
    let mut drainer = Client::connect(server.local_addr()).expect("connect drainer");
    drainer.drain().expect("drain ack");
    assert!(server.is_draining());

    // …the in-flight request still completes, bit-identical.
    let (id, outputs) = client.recv_result().expect("in-flight result");
    assert_eq!(id, in_flight);
    for (oid, img) in &outputs {
        assert!(img.bit_equal(reference.expect_image(*oid)));
    }

    // New work is refused on every connection, old and new.
    for c in [&mut client, &mut drainer] {
        match c.call("work", inputs.clone(), Schedule::Optimized, None) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Draining),
            other => panic!("expected Draining, got {other:?}"),
        }
    }
    // Registration is refused too.
    match drainer.register("late", &big) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Draining),
        other => panic!("expected Draining, got {other:?}"),
    }
    assert!(server.net_metrics().refused_draining >= 2);
    server.shutdown();
}

/// Pipelined submissions on one connection are all answered exactly once
/// with the in-flight bound enforced by backpressure, not dropped
/// frames. Replies arrive in completion order (not submission order), so
/// the check is set-completeness keyed by request id.
#[test]
fn pipelined_submissions_all_answered() {
    let cfg = ServerConfig {
        max_in_flight: 4,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let app = &paper_apps()[1];
    let p = (app.build_sized)(24, 24);
    let inputs = inputs_for(&p, 9);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.register("pipe", &p).expect("register");
    let ids: Vec<u64> = (0..12)
        .map(|_| {
            client
                .submit("pipe", inputs.clone(), Schedule::Optimized, None)
                .expect("submit")
        })
        .collect();
    let mut pending: std::collections::HashSet<u64> = ids.into_iter().collect();
    for _ in 0..12 {
        let (id, outputs) = client.recv_result().expect("result");
        assert!(pending.remove(&id), "request {id} answered twice");
        assert!(!outputs.is_empty());
    }
    assert!(pending.is_empty(), "unanswered requests: {pending:?}");
    server.shutdown();
}

/// Prioritized submits work end to end: every priority class is served
/// bit-identically to the reference interpreter, and the per-tenant
/// metrics account for all of them.
#[test]
fn qos_submissions_serve_bit_identically_across_priorities() {
    use kfuse_net::Priority;

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let app = &paper_apps()[3];
    let p = (app.build_sized)(24, 24);
    let inputs = inputs_for(&p, 17);
    let reference = execute_reference(&p, &inputs).expect("reference");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.register("qos", &p).expect("register");
    let ids: Vec<(u64, Priority)> = [Priority::High, Priority::Normal, Priority::Low]
        .iter()
        .flat_map(|&prio| (0..2).map(move |_| prio).collect::<Vec<_>>())
        .map(|prio| {
            let id = client
                .submit_qos("qos", inputs.clone(), Schedule::Optimized, None, prio)
                .expect("submit_qos");
            (id, prio)
        })
        .collect();
    let mut pending: std::collections::HashSet<u64> = ids.iter().map(|(id, _)| *id).collect();
    for _ in 0..ids.len() {
        let (id, outputs) = client.recv_result().expect("result");
        assert!(pending.remove(&id));
        for (oid, img) in &outputs {
            assert!(
                img.bit_equal(reference.expect_image(*oid)),
                "request {id}: output {} differs from execute_reference",
                oid.0
            );
        }
    }
    assert!(pending.is_empty());
    let metrics = server.runtime_metrics();
    let m = metrics.pipeline("qos").expect("tenant metrics");
    assert_eq!(m.requests, 6);
    assert_eq!(m.completed, 6);
    server.shutdown();
}

/// A traced submit's trace id propagates across the wire, lands in the
/// always-on flight recorder, and comes back out of the HTTP sidecar's
/// `/debug/requests` dump as a validated Chrome trace — surviving enough
/// follow-up traffic to roll the recent ring.
#[test]
fn traced_request_appears_in_flight_recorder_dump() {
    use std::io::{Read, Write};

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let app = &paper_apps()[2];
    let p = (app.build_sized)(24, 24);
    let inputs = inputs_for(&p, 3);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_tracer(kfuse_obs::Tracer::enabled());
    client.register("traced", &p).expect("register");
    let id = client
        .submit("traced", inputs.clone(), Schedule::Optimized, None)
        .expect("submit");
    let trace = client.last_trace().expect("tracer generates a context");
    let (rid, outputs) = client.recv_result().expect("result");
    assert_eq!(rid, id);
    assert!(!outputs.is_empty());

    // The reply echoed the same trace context back.
    assert_eq!(client.last_trace(), Some(trace));

    // The server-side record carries the propagated ids and a span tree.
    let recorder = server
        .flight_recorder()
        .expect("recorder is on by default")
        .clone();
    let record = recorder
        .record_for(trace.trace_id)
        .expect("traced request recorded");
    assert_eq!(record.span_id, trace.span_id);
    assert_eq!(record.tenant, "traced");
    for span in ["queue_wait", "execute"] {
        assert!(
            record.events.iter().any(|e| e.name == span),
            "record lacks {span} span"
        );
    }

    // Fetch the dump over HTTP like an operator would.
    let mut stream = std::net::TcpStream::connect(server.metrics_addr()).expect("http connect");
    stream
        .write_all(b"GET /debug/requests HTTP/1.0\r\n\r\n")
        .expect("http write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("http read");
    assert!(
        raw.starts_with("HTTP/1.0 200"),
        "got {:?}",
        raw.lines().next()
    );
    let body = raw.split_once("\r\n\r\n").expect("has body").1;
    kfuse_obs::validate_chrome_trace(body).expect("dump is a valid Chrome trace");
    assert!(
        body.contains(&format!("{:016x}", trace.trace_id)),
        "dump lost the propagated trace id"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Streaming sessions over the wire.
// ---------------------------------------------------------------------------

use kfuse_apps::temporal_apps;
use kfuse_net::wire::Frame;
use kfuse_stream::{run_reference, StreamPipeline};

/// Synthetic fresh inputs for frame `f` of a stream.
fn stream_frame_inputs(stream: &StreamPipeline, f: u64) -> Vec<(ImageId, Image)> {
    stream
        .fresh_inputs()
        .iter()
        .map(|&id| {
            let desc = stream.frame().image(id).clone();
            (id, synthetic_image(desc, f * 97 + id.0 as u64 + 5))
        })
        .collect()
}

/// Every temporal app served as a session over TCP produces frame
/// sequences bit-identical to the naive local reference — under both
/// fusing schedules.
#[test]
fn streaming_sessions_serve_temporal_apps_bit_identically() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    const FRAMES: u64 = 6;

    for app in temporal_apps() {
        let stream = (app.build_sized)(24, 20);
        let seq: Vec<_> = (0..FRAMES)
            .map(|f| stream_frame_inputs(&stream, f))
            .collect();
        let want = run_reference(&stream, &seq).expect("reference");

        for schedule in [Schedule::Optimized, Schedule::Basic] {
            let sid = client
                .open_session(app.name, &stream, schedule)
                .expect("open session");
            for (f, fresh) in seq.iter().enumerate() {
                let outputs = client
                    .step_session(sid, fresh.clone())
                    .expect("session step");
                assert_eq!(outputs.len(), want[f].len());
                for ((got_id, got), (want_id, want_img)) in outputs.iter().zip(&want[f]) {
                    assert_eq!(got_id, want_id);
                    assert!(
                        got.bit_equal(want_img),
                        "{} frame {f} output {} differs from run_reference under {schedule:?}",
                        app.name,
                        got_id.0
                    );
                }
            }
            let (completed, errored) = client.close_session(sid).expect("close");
            assert_eq!((completed, errored), (FRAMES, 0), "{}", app.name);
        }
    }
    server.shutdown();
}

/// Satellite: `Drain` fences sessions — frames already in flight complete
/// and deliver bit-identical results, a post-drain `SubmitFrame` is
/// answered with a typed error, and a close still reports the stats.
#[test]
fn drain_fences_sessions_in_flight_frames_complete() {
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let stream = (temporal_apps()[0].build_sized)(96, 80);
    const FRAMES: u64 = 3;
    let seq: Vec<_> = (0..FRAMES)
        .map(|f| stream_frame_inputs(&stream, f))
        .collect();
    let want = run_reference(&stream, &seq).expect("reference");

    let sid = client
        .open_session("fence", &stream, Schedule::Optimized)
        .expect("open session");
    let ids: Vec<u64> = seq
        .iter()
        .map(|fresh| client.submit_frame(sid, fresh.clone()).expect("submit"))
        .collect();

    // Drain mid-stream. Frame replies and the DrainAck race on the
    // completion-ordered outbox, so collect them manually.
    client.send_raw(&Frame::Drain).expect("send drain");
    let mut results: Vec<(u64, Vec<(ImageId, Image)>)> = Vec::new();
    let mut drained = false;
    while results.len() < FRAMES as usize || !drained {
        match client.recv_frame().expect("recv") {
            Frame::ResultOk {
                request_id,
                outputs,
                ..
            } => results.push((request_id, outputs)),
            Frame::DrainAck => drained = true,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(server.is_draining());

    // In-flight frames all completed, in order, bit-identical.
    for (i, (rid, outputs)) in results.iter().enumerate() {
        assert_eq!(*rid, ids[i], "session frames reply in submission order");
        for ((got_id, got), (want_id, want_img)) in outputs.iter().zip(&want[i]) {
            assert_eq!(got_id, want_id);
            assert!(
                got.bit_equal(want_img),
                "frame {i} output {} differs after drain",
                got_id.0
            );
        }
    }

    // Post-drain frames get a typed refusal, not silence.
    let late = client
        .submit_frame(sid, seq[0].clone())
        .expect("write still succeeds");
    match client.recv_result() {
        Err(ClientError::Server {
            request_id, code, ..
        }) => {
            assert_eq!(request_id, late);
            assert_eq!(code, ErrorCode::Draining);
        }
        other => panic!("expected Draining, got {other:?}"),
    }

    // Close still works while draining and reports the accounting.
    let (completed, errored) = client.close_session(sid).expect("close");
    assert_eq!((completed, errored), (FRAMES, 0));
    server.shutdown();
}

/// Sessions are connection-scoped capabilities: another connection naming
/// the id is answered with `UnknownSession`, and a disconnect closes the
/// session server-side (its slot is freed for reuse).
#[test]
fn sessions_are_owned_by_their_connection() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let stream = (temporal_apps()[2].build_sized)(16, 12);

    let mut owner = Client::connect(server.local_addr()).expect("connect owner");
    let sid = owner
        .open_session("owned", &stream, Schedule::Optimized)
        .expect("open");
    owner
        .step_session(sid, stream_frame_inputs(&stream, 0))
        .expect("owner can step");

    let mut thief = Client::connect(server.local_addr()).expect("connect thief");
    match thief.step_session(sid, stream_frame_inputs(&stream, 0)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    match thief.close_session(sid) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }

    // Owner disconnects without closing: the server reaps the session.
    drop(owner);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.runtime_metrics().runtime.sessions_open > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "disconnect never freed the session"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}
