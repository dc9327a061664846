//! End-to-end observability check: run a traced serving load and validate
//! every exporter's output with the std-only checkers in `kfuse-obs`.
//!
//! For each paper application (serving-sized frames) this drives a few
//! requests through a [`Runtime`] with a recording tracer, then asserts:
//!
//! 1. the Chrome `trace_event` JSON round-trips
//!    [`kfuse_obs::validate_chrome_trace`] and contains at least one
//!    `kernel:` span per kernel per request plus the
//!    `queue_wait`/`plan`/`execute` serving spans, and every plan-cache
//!    miss's `plan` span holds one `fuse` and one `lower` span while a
//!    hit's holds none;
//! 2. the traced results are bit-identical to the reference interpreter
//!    (tracing must be observation, never perturbation);
//! 3. the snapshot's [`kfuse_runtime::MetricsSnapshot::families`],
//!    rendered by [`kfuse_obs::render_json`], parses with
//!    [`kfuse_obs::parse_json`];
//! 4. the same families, rendered by [`kfuse_obs::render_prometheus`],
//!    pass [`kfuse_obs::validate_prometheus`].
//!
//! The combined trace is written to `results/trace_serve.json` (openable
//! in `chrome://tracing` / Perfetto). Exits non-zero on any failure, so CI
//! can run it as a gate.
//!
//! A second, network phase then proves the tentpole end to end: it binds
//! a real [`kfuse_net::Server`] with the always-on flight recorder, sends
//! a traced request through a [`kfuse_net::Client`], and asserts that one
//! propagated trace id links the full causal chain — `client_send` →
//! `decode` → `submit` (ingress) → `queue_wait` → `plan` → `execute`
//! (plus per-kernel spans) → `encode_write` → `client_recv` — across at
//! least three threads, with a `bytes` arg on both wire spans. A traced
//! session frame must chain `decode` → `queue_wait` → `execute` →
//! `kernel:` the same way, in that order — frames run through the same
//! worker envelope as stateless requests. It also drives a deliberately
//! deadline-missed request,
//! churns the recorder's recent ring past capacity, and checks the missed
//! request's span tree still comes back (tail-based retention) from the
//! sidecar's `/debug/requests` endpoint as a validated Chrome trace. The
//! single-request trace is written to `results/trace_request.json`.
//!
//! Last, it checks conservation from the outside: it polls the sidecar's
//! `/metrics` (bounded wait) until `kfuse_in_flight_requests`,
//! `kfuse_queue_depth` and `kfuse_sessions_open` read 0, then asserts for
//! every `pipeline` label that `requests = completed + errors + rejected +
//! shed + deadline_misses + admission_timeouts`: every request the server
//! counted reached exactly one terminal outcome.
//!
//! Run with `cargo run --release -p kfuse-bench --bin trace_check`.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use kfuse_apps::{paper_apps, temporal_apps};
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_net::{Client, ClientError, ErrorCode, Server, ServerConfig};
use kfuse_obs::{
    parse_json, parse_prometheus, render_json, render_prometheus, to_chrome_json,
    validate_chrome_trace, validate_prometheus, ArgValue, Event, EventKind, PromSample,
    RequestOutcome, Tracer,
};
use kfuse_runtime::{Runtime, RuntimeConfig};
use kfuse_sim::{execute_reference, synthetic_image};

fn inputs_for(p: &Pipeline, seed: u64) -> Vec<(ImageId, Image)> {
    p.inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
        .collect()
}

fn fail(msg: &str) -> ! {
    eprintln!("trace_check FAILED: {msg}");
    std::process::exit(1);
}

fn main() {
    let requests = 3;
    let tracer = Tracer::enabled();
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        tracer: tracer.clone(),
        ..RuntimeConfig::default()
    });

    let mut total_requests = 0usize;
    let mut min_kernel_spans = 0usize;
    for app in paper_apps() {
        let p = (app.build_sized)(64, 48);
        let inputs = inputs_for(&p, 7);
        let reference = execute_reference(&p, &inputs).expect("reference executes");
        let out = p.outputs()[0];
        for _ in 0..requests {
            let exec = rt
                .execute(app.name, &p, inputs.clone(), Schedule::Optimized)
                .unwrap_or_else(|e| fail(&format!("{} request failed: {e}", app.name)));
            if !exec
                .expect_image(out)
                .bit_equal(reference.expect_image(out))
            {
                fail(&format!(
                    "{}: traced result differs from reference",
                    app.name
                ));
            }
        }
        total_requests += requests;
        // The fused pipeline has at least one kernel per request; the
        // unfused kernel count is an upper bound, so only require ≥ 1.
        min_kernel_spans += requests;
    }

    let json = tracer.to_chrome_json();
    let stats =
        validate_chrome_trace(&json).unwrap_or_else(|e| fail(&format!("chrome trace: {e}")));
    let kernel_spans = stats.spans_with_prefix("kernel:");
    if kernel_spans < min_kernel_spans {
        fail(&format!(
            "expected at least {min_kernel_spans} kernel spans (1 per kernel per request), got {kernel_spans}"
        ));
    }
    for name in ["queue_wait", "plan", "execute"] {
        let n = stats.span_names.iter().filter(|s| *s == name).count();
        if n != total_requests {
            fail(&format!(
                "expected {total_requests} '{name}' spans, got {n}"
            ));
        }
    }
    if stats.counters == 0 {
        fail("expected queue_depth/in_flight counter samples");
    }
    let (misses, hits) = check_miss_attribution(&tracer.events());

    let snapshot = rt.metrics();
    let families = snapshot.families();
    if let Err(e) = parse_json(&render_json(&families)) {
        fail(&format!("metrics JSON does not parse: {e}"));
    }
    let samples = validate_prometheus(&render_prometheus(&families))
        .unwrap_or_else(|e| fail(&format!("prometheus exposition: {e}")));
    if snapshot.runtime.cache_size == 0 {
        fail("plan cache should hold the served plans");
    }

    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("trace_serve.json");
    std::fs::write(&path, &json).expect("write trace JSON");

    println!(
        "trace_check OK: {} events ({} spans, {} kernel spans, {} counters) over {} requests \
         ({misses} plan misses with fuse/lower, {hits} hits without); \
         {} prometheus samples; trace written to {}",
        stats.events,
        stats.complete_spans,
        kernel_spans,
        stats.counters,
        total_requests,
        samples,
        path.display()
    );

    net_phase();
}

/// Checks that each `plan` span with `cache: miss` holds exactly one
/// `fuse` and one `lower` span on its thread, and that each
/// with `cache: hit` holds none. Returns the (miss, hit) counts; fails
/// unless both are non-zero.
fn check_miss_attribution(events: &[Event]) -> (usize, usize) {
    let interval = |e: &Event| match e.kind {
        EventKind::Complete { dur_us } => Some((e.ts_us, e.ts_us + dur_us)),
        _ => None,
    };
    let miss = ArgValue::Str("miss".into());
    let (mut misses, mut hits) = (0, 0);
    for plan in events.iter().filter(|e| e.name == "plan") {
        let Some((start, end)) = interval(plan) else {
            continue;
        };
        let is_miss = plan.args.iter().any(|(k, v)| *k == "cache" && *v == miss);
        for phase in ["fuse", "lower"] {
            let inside = events
                .iter()
                .filter(|e| e.name == phase && e.tid == plan.tid)
                .filter(|e| interval(e).is_some_and(|(s, t)| s >= start && t <= end))
                .count();
            if inside != usize::from(is_miss) {
                let kind = if is_miss { "miss" } else { "hit" };
                fail(&format!(
                    "a plan-cache {kind} at {start} us holds {inside} '{phase}' spans"
                ));
            }
        }
        if is_miss {
            misses += 1;
        } else {
            hits += 1;
        }
    }
    if misses == 0 || hits == 0 {
        fail(&format!(
            "expected both plan-cache misses and hits, got {misses} and {hits}"
        ));
    }
    (misses, hits)
}

/// Plain HTTP/1.0 GET against the metrics sidecar; returns the body.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream =
        TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("http connect: {e}")));
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").as_bytes())
        .unwrap_or_else(|e| fail(&format!("http write: {e}")));
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .unwrap_or_else(|e| fail(&format!("http read: {e}")));
    if !raw.starts_with("HTTP/1.0 200") {
        fail(&format!(
            "GET {path}: expected 200, got {:?}",
            raw.lines().next().unwrap_or("")
        ));
    }
    match raw.split_once("\r\n\r\n") {
        Some((_head, body)) => body.to_string(),
        None => fail(&format!("GET {path}: no header/body separator")),
    }
}

/// End-to-end serving-plane phase: trace propagation across the wire,
/// flight-recorder tail retention, and `/debug/requests`.
fn net_phase() {
    // One epoch for both sides so the merged timeline is coherent.
    let epoch = Instant::now();
    let server_tracer = Tracer::enabled_at(epoch);
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            workers: 2,
            tracer: server_tracer.clone(),
            ..RuntimeConfig::default()
        },
        tracer: server_tracer.clone(),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap_or_else(|e| fail(&format!("bind: {e}")));

    let app = &paper_apps()[0];
    let p = (app.build_sized)(48, 32);
    let inputs = inputs_for(&p, 11);

    let client_tracer = Tracer::enabled_at(epoch);
    let mut client =
        Client::connect(server.local_addr()).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    client.set_tracer(client_tracer.clone());
    client
        .register("traced", &p)
        .unwrap_or_else(|e| fail(&format!("register: {e}")));

    // --- The fully traced request. ---
    let id = client
        .submit(
            "traced",
            inputs.clone(),
            Schedule::Optimized,
            Some(Duration::from_secs(10)),
        )
        .unwrap_or_else(|e| fail(&format!("traced submit: {e}")));
    let trace = client
        .last_trace()
        .unwrap_or_else(|| fail("client generated no trace context"));
    let (rid, _) = client
        .recv_result()
        .unwrap_or_else(|e| fail(&format!("traced result: {e}")));
    if rid != id {
        fail("out-of-order reply to the traced submit");
    }

    // --- One traced session frame. ---
    let stream = (temporal_apps()[0].build_sized)(48, 32);
    let session = client
        .open_session("traced-stream", &stream, Schedule::Optimized)
        .unwrap_or_else(|e| fail(&format!("open session: {e}")));
    let fresh = stream
        .fresh_inputs()
        .iter()
        .map(|&id| (id, synthetic_image(stream.frame().image(id).clone(), 13)))
        .collect();
    client
        .step_session(session, fresh)
        .unwrap_or_else(|e| fail(&format!("traced frame: {e}")));
    let frame_trace = client
        .last_trace()
        .unwrap_or_else(|| fail("traced frame generated no trace context"));
    client
        .close_session(session)
        .unwrap_or_else(|e| fail(&format!("close session: {e}")));

    // --- A deliberately deadline-missed request. It must expire *in the
    // queue*: a budget the server has already spent when it reaches
    // admission is shed there and leaves no flight record. So both
    // workers are first pinned on 1024² jobs (tens of ms each) and the
    // budget is 2 ms: ample for admission, gone long before a dequeue. ---
    let mut churn =
        Client::connect(server.local_addr()).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let big = (app.build_sized)(1024, 1024);
    let big_inputs = inputs_for(&big, 12);
    churn
        .register("blocker", &big)
        .unwrap_or_else(|e| fail(&format!("register blocker: {e}")));
    for _ in 0..4 {
        churn
            .submit("blocker", big_inputs.clone(), Schedule::Optimized, None)
            .unwrap_or_else(|e| fail(&format!("churn submit: {e}")));
    }
    let blockers_admitted = || {
        let metrics = server.runtime_metrics();
        metrics.pipeline("blocker").is_some_and(|m| m.requests >= 4)
    };
    while !blockers_admitted() {
        std::thread::sleep(Duration::from_micros(200));
    }
    client
        .submit(
            "traced",
            inputs.clone(),
            Schedule::Optimized,
            Some(Duration::from_millis(2)),
        )
        .unwrap_or_else(|e| fail(&format!("missed submit: {e}")));
    let missed = client
        .last_trace()
        .unwrap_or_else(|| fail("missed submit generated no trace context"));
    match client.recv_result() {
        Err(ClientError::Server {
            code: ErrorCode::DeadlineExceeded,
            ..
        }) => {}
        other => fail(&format!("expected DeadlineExceeded, got {other:?}")),
    }
    for _ in 0..4 {
        churn
            .recv_result()
            .unwrap_or_else(|e| fail(&format!("churn result: {e}")));
    }

    // --- Churn the recorder's recent ring well past its capacity; the
    // deadline-missed request must survive in the interesting pool. ---
    let churn_requests = 80;
    for _ in 0..churn_requests {
        churn
            .call("traced", inputs.clone(), Schedule::Optimized, None)
            .unwrap_or_else(|e| fail(&format!("churn call: {e}")));
    }

    let recorder = server
        .flight_recorder()
        .unwrap_or_else(|| fail("flight recorder should be on by default"))
        .clone();
    let record = recorder
        .record_for(missed.trace_id)
        .unwrap_or_else(|| fail("deadline-missed request was evicted by churn"));
    if record.outcome != RequestOutcome::DeadlineMissed {
        fail(&format!(
            "missed request outcome is {:?}, not DeadlineMissed",
            record.outcome
        ));
    }
    if !record.events.iter().any(|e| e.name == "queue_wait") {
        fail("missed request's span tree lost its queue_wait span");
    }

    // --- /debug/requests returns the dump as a valid Chrome trace that
    // still names the missed trace id. ---
    let dump = http_get(server.metrics_addr(), "/debug/requests");
    let dump_stats =
        validate_chrome_trace(&dump).unwrap_or_else(|e| fail(&format!("flight dump: {e}")));
    if !dump.contains(&format!("{:016x}", missed.trace_id)) {
        fail("flight dump does not contain the deadline-missed trace id");
    }
    // And the sidecar's combined metrics document still validates with
    // the new labeled transport families present.
    let metrics_doc = http_get(server.metrics_addr(), "/metrics");
    validate_prometheus(&metrics_doc).unwrap_or_else(|e| fail(&format!("sidecar /metrics: {e}")));
    for family in [
        "kfuse_net_frames_received_by_type_total{type=\"submit\"}",
        "kfuse_net_errors_sent_total{code=\"deadline_exceeded\"}",
        "kfuse_slo_misses_total",
    ] {
        if !metrics_doc.contains(family) {
            fail(&format!("sidecar /metrics is missing {family}"));
        }
    }

    // --- One trace id links the whole causal chain, across threads. ---
    let mut events = server_tracer.events();
    events.extend(client_tracer.events());
    let request: Vec<_> = events
        .iter()
        .filter(|e| e.trace_id == trace.trace_id)
        .collect();
    for name in [
        "client_send",
        "decode",
        "submit",
        "queue_wait",
        "plan",
        "execute",
        "encode_write",
        "client_recv",
    ] {
        if !request.iter().any(|e| e.name == name) {
            fail(&format!(
                "traced request is missing its '{name}' span (got: {:?})",
                request.iter().map(|e| e.name.as_str()).collect::<Vec<_>>()
            ));
        }
    }
    // Both wire spans say how many bytes they moved.
    for name in ["decode", "encode_write"] {
        let sized = request
            .iter()
            .any(|e| e.name == name && e.args.iter().any(|(k, _)| *k == "bytes"));
        if !sized {
            fail(&format!("'{name}' span carries no 'bytes' arg"));
        }
    }
    if !request.iter().any(|e| e.name.starts_with("kernel:")) {
        fail("traced request has no per-kernel execute span");
    }
    // The session frame's chain, in causal order: the first span of each
    // link starts no earlier than the first of the link before it.
    let frame: Vec<_> = events
        .iter()
        .filter(|e| e.trace_id == frame_trace.trace_id)
        .collect();
    let mut prev = 0;
    for link in ["decode", "queue_wait", "execute", "kernel:"] {
        let start = frame
            .iter()
            .filter(|e| e.name == link || (link.ends_with(':') && e.name.starts_with(link)))
            .map(|e| e.ts_us)
            .min()
            .unwrap_or_else(|| {
                fail(&format!(
                    "traced session frame is missing its '{link}' span (got: {:?})",
                    frame.iter().map(|e| e.name.as_str()).collect::<Vec<_>>()
                ))
            });
        if start < prev {
            fail(&format!(
                "traced session frame's '{link}' span starts before the link before it"
            ));
        }
        prev = start;
    }
    let frame_spans = frame.len();
    let tids: HashSet<u64> = request.iter().map(|e| e.tid).collect();
    if tids.len() < 3 {
        fail(&format!(
            "expected the request chain to cross >= 3 threads, saw {}",
            tids.len()
        ));
    }

    let single: Vec<_> = events
        .into_iter()
        .filter(|e| e.trace_id == trace.trace_id)
        .collect();
    let single_json = to_chrome_json(&single);
    let single_stats = validate_chrome_trace(&single_json)
        .unwrap_or_else(|e| fail(&format!("single-request trace: {e}")));
    let path = std::path::Path::new("results").join("trace_request.json");
    std::fs::write(&path, &single_json).expect("write single-request trace");

    let tenants = check_conservation(server.metrics_addr());

    server.shutdown();
    println!(
        "trace_check net OK: request {:016x} chained {} spans across {} threads; \
         session frame {:016x} chained {} spans; flight dump retained missed request {:016x} through {} churn requests \
         ({} dump events); single-request trace written to {}; \
         {tenants} pipelines conserve requests at rest",
        trace.trace_id,
        single_stats.complete_spans,
        tids.len(),
        frame_trace.trace_id,
        frame_spans,
        missed.trace_id,
        churn_requests,
        dump_stats.events,
        path.display()
    );
}

/// Scrapes `/metrics` until the server is at rest (nothing queued,
/// executing or open), then checks that every pipeline's requests equal
/// the sum of its six terminal outcomes. Returns the number of pipelines.
fn check_conservation(addr: SocketAddr) -> usize {
    const AT_REST: [&str; 3] = [
        "kfuse_in_flight_requests",
        "kfuse_queue_depth",
        "kfuse_sessions_open",
    ];
    const OUTCOMES: [&str; 6] = [
        "kfuse_requests_completed_total",
        "kfuse_requests_errors_total",
        "kfuse_requests_rejected_total",
        "kfuse_requests_shed_total",
        "kfuse_deadline_misses_total",
        "kfuse_admission_timeouts_total",
    ];
    let give_up = Instant::now() + Duration::from_secs(10);
    let doc = loop {
        let doc = http_get(addr, "/metrics");
        let samples = scrape(&doc);
        let busy: Vec<String> = AT_REST
            .iter()
            .map(|family| (family, value(&samples, family, "")))
            .filter(|&(_, v)| v != 0.0)
            .map(|(family, v)| format!("{family} {v}"))
            .collect();
        if busy.is_empty() {
            break doc;
        }
        if Instant::now() >= give_up {
            fail(&format!(
                "gauges not back to 0 after 10 s at rest: {busy:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let samples = scrape(&doc);
    let requests: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "kfuse_requests_total")
        .collect();
    for r in &requests {
        let ended: f64 = OUTCOMES.iter().map(|f| value(&samples, f, r.labels)).sum();
        if ended != r.value {
            fail(&format!(
                "{{{}}}: {} requests but {ended} terminal outcomes",
                r.labels, r.value
            ));
        }
    }
    if requests.is_empty() {
        fail("/metrics has no kfuse_requests_total samples");
    }
    requests.len()
}

/// The value of the sample of `family` whose label block is `labels`;
/// fails the check if `/metrics` has no such sample.
fn value(samples: &[PromSample], family: &str, labels: &str) -> f64 {
    let sample = samples
        .iter()
        .find(|s| s.name == family && s.labels == labels);
    sample.map_or_else(
        || fail(&format!("/metrics has no {family}{{{labels}}}")),
        |s| s.value,
    )
}

fn scrape(doc: &str) -> Vec<PromSample<'_>> {
    parse_prometheus(doc).unwrap_or_else(|e| fail(&format!("/metrics: {e}")))
}
