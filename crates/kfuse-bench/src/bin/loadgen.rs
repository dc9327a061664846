//! Network load generator for `kfuse-net`: the over-the-wire analogue of
//! `bench_serve`, reproducing the paper's per-app evaluation (§6) as
//! end-to-end serving latency under concurrent connections.
//!
//! By default it starts an in-process [`kfuse_net::Server`] on an
//! ephemeral localhost port (pass `--addr HOST:PORT` to target an
//! external `kfuse_serve`), then drives N concurrent connections: each
//! registers all six paper apps and round-robins submissions across them,
//! measuring client-observed latency. The first reply per app per
//! connection is verified **bit-identical** to a local
//! `execute_reference` run — a correctness gate, not just a stopwatch.
//!
//! After the measured phase it (a) probes deadline propagation with
//! 1 µs budgets that must be rejected at dequeue, (b) scrapes the HTTP
//! sidecar's `/metrics` and validates the Prometheus exposition with the
//! `kfuse-obs` validator, checks `/healthz`, and (c) for in-process
//! servers exercises graceful drain (submissions refused, health flips
//! to draining). Any failure exits non-zero, so CI runs this as the
//! end-to-end net smoke.
//!
//! With `--sweep`, an **open-loop overload sweep** runs against a
//! dedicated in-process server: closed-loop calibration finds the
//! saturation throughput, then Poisson arrivals at 2× that rate (a
//! 20/60/20 High/Normal/Low priority mix) drive a QoS-configured server
//! past capacity. Arrivals do not wait for completions, so the server
//! must *shed* (queue-pressure thresholds, deadline rejection) to protect
//! goodput; the phase reports goodput under saturation, shed rate, and
//! per-priority p99, and fails if goodput is zero or nothing was shed.
//!
//! `--strict-qos` additionally gates goodput ≥ 80% of calibrated peak
//! and High-priority p99 ≤ Low-priority p99 (off by default: both are
//! timing-sensitive on noisy shared runners).
//!
//! Writes `BENCH_net.json` (per-app p50/p95/p99 µs, throughput,
//! deadline-miss rate, plus the sweep results when enabled) at the
//! repository root.
//!
//! Run with `cargo run --release -p kfuse-bench --bin loadgen`.
//! `KFUSE_BENCH_SCALE=<div>` divides the frame edges (CI smoke uses 4).

use std::fmt::Write as _;
use std::io::{Read, Write as IoWrite};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kfuse_apps::paper_apps;
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_net::wire::{read_frame, write_frame, Limits, WireError};
use kfuse_net::{Client, ClientError, ErrorCode, Frame, Priority, Server, ServerConfig};
use kfuse_obs::validate_prometheus;
use kfuse_sim::{execute_reference, synthetic_image, Execution};

/// Serving-sized frames: paper edges / 32, scaled down further by
/// `KFUSE_BENCH_SCALE` (same sizing as `bench_serve`).
fn workload(name: &str, scale: usize) -> (usize, usize) {
    let (w, h) = if name == "Night" {
        (1920 / 32, 1200 / 32)
    } else {
        (2048 / 32, 2048 / 32)
    };
    ((w / scale).max(8), (h / scale).max(8))
}

fn inputs_for(p: &Pipeline, seed: u64) -> Vec<(ImageId, Image)> {
    p.inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
        .collect()
}

struct AppSetup {
    name: &'static str,
    pipeline: Pipeline,
    inputs: Vec<(ImageId, Image)>,
    reference: Execution,
}

#[derive(Default)]
struct AppStats {
    latencies_us: Vec<u64>,
    deadline_misses: u64,
    errors: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--connections N] [--requests N] \
         [--deadline-ms N] [--no-drain] [--sweep] [--strict-qos]"
    );
    ExitCode::from(2)
}

/// SplitMix64: the workspace's standard tiny deterministic PRNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed inter-arrival gap (seconds) for a
    /// Poisson process of `rate` arrivals/second.
    fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// 20/60/20 High/Normal/Low, the serving mix the sweep offers.
    fn priority(&mut self) -> Priority {
        match self.next_u64() % 10 {
            0 | 1 => Priority::High,
            8 | 9 => Priority::Low,
            _ => Priority::Normal,
        }
    }
}

/// Index into per-priority stats arrays: High, Normal, Low.
fn prio_idx(p: Priority) -> usize {
    match p {
        Priority::High => 0,
        Priority::Normal => 1,
        Priority::Low => 2,
    }
}

const PRIO_NAMES: [&str; 3] = ["high", "normal", "low"];

/// Aggregated outcome of the open-loop overload sweep.
#[derive(Default)]
struct SweepStats {
    /// Completed-OK latencies (µs), by priority class.
    latencies_us: [Vec<u64>; 3],
    /// Typed load-shedding rejections (queue full / pressure shed /
    /// deadline expired / admission timeout), by priority class.
    shed: [u64; 3],
    /// Anything else that went wrong (transport faults, unexpected
    /// frames) — should be zero.
    errors: u64,
}

impl SweepStats {
    fn merge(&mut self, other: SweepStats) {
        for i in 0..3 {
            self.latencies_us[i].extend(other.latencies_us[i].iter());
            self.shed[i] += other.shed[i];
        }
        self.errors += other.errors;
    }

    fn ok(&self) -> u64 {
        self.latencies_us.iter().map(|v| v.len() as u64).sum()
    }

    fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }

    fn p99_us(&mut self, class: usize) -> u64 {
        let v = &mut self.latencies_us[class];
        if v.is_empty() {
            return 0;
        }
        v.sort_unstable();
        let i = ((v.len() as f64) * 0.99).ceil() as usize;
        v[i.clamp(1, v.len()) - 1]
    }
}

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut connections: usize = 4;
    let mut requests_per_app: usize = 16;
    let mut deadline_ms: u64 = 10_000;
    let mut exercise_drain = true;
    let mut sweep = false;
    let mut strict_qos = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--no-drain" => {
                exercise_drain = false;
                i += 1;
                continue;
            }
            "--sweep" => {
                sweep = true;
                i += 1;
                continue;
            }
            "--strict-qos" => {
                strict_qos = true;
                i += 1;
                continue;
            }
            flag => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                match flag {
                    "--addr" => addr = Some(value.clone()),
                    "--connections" => match value.parse() {
                        Ok(v) => connections = v,
                        Err(_) => return usage(),
                    },
                    "--requests" => match value.parse() {
                        Ok(v) => requests_per_app = v,
                        Err(_) => return usage(),
                    },
                    "--deadline-ms" => match value.parse() {
                        Ok(v) => deadline_ms = v,
                        Err(_) => return usage(),
                    },
                    _ => return usage(),
                }
                i += 2;
            }
        }
    }

    let scale: usize = std::env::var("KFUSE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);

    // In-process server unless an external address was given.
    let server = if addr.is_none() {
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
        let mut cfg = ServerConfig::default();
        cfg.runtime.workers = workers;
        cfg.runtime.queue_capacity = 256;
        Some(Server::bind("127.0.0.1:0", cfg).expect("bind in-process server"))
    } else {
        None
    };
    let target: SocketAddr = match (&server, &addr) {
        (Some(s), _) => s.local_addr(),
        (None, Some(a)) => a.parse().expect("parse --addr"),
        (None, None) => unreachable!(),
    };
    let metrics_addr = server.as_ref().map(|s| s.metrics_addr());
    println!("loadgen: target {target} ({connections} connections, {requests_per_app} req/app each, scale /{scale})");

    // Build every app once; the local reference execution is the
    // bit-identity oracle for the first reply per app per connection.
    let apps: Arc<Vec<AppSetup>> = Arc::new(
        paper_apps()
            .into_iter()
            .map(|app| {
                let (w, h) = workload(app.name, scale);
                let pipeline = (app.build_sized)(w, h);
                let inputs = inputs_for(&pipeline, 42);
                let reference = execute_reference(&pipeline, &inputs).expect("reference executes");
                AppSetup {
                    name: app.name,
                    pipeline,
                    inputs,
                    reference,
                }
            })
            .collect(),
    );

    let stats: Arc<Vec<Mutex<AppStats>>> = Arc::new(
        apps.iter()
            .map(|_| Mutex::new(AppStats::default()))
            .collect(),
    );
    let failures = Arc::new(Mutex::new(Vec::<String>::new()));
    let deadline = Duration::from_millis(deadline_ms);

    let started = Instant::now();
    let mut threads = Vec::new();
    for conn in 0..connections {
        let apps = Arc::clone(&apps);
        let stats = Arc::clone(&stats);
        let failures = Arc::clone(&failures);
        threads.push(std::thread::spawn(move || {
            let mut client = match Client::connect(target) {
                Ok(c) => c,
                Err(e) => {
                    failures
                        .lock()
                        .unwrap()
                        .push(format!("conn {conn}: connect: {e}"));
                    return;
                }
            };
            for app in apps.iter() {
                if let Err(e) = client.register(app.name, &app.pipeline) {
                    failures
                        .lock()
                        .unwrap()
                        .push(format!("conn {conn}: register {}: {e}", app.name));
                    return;
                }
            }
            for round in 0..requests_per_app {
                for (idx, app) in apps.iter().enumerate() {
                    let t0 = Instant::now();
                    let result = client.call(
                        app.name,
                        app.inputs.clone(),
                        Schedule::Optimized,
                        Some(deadline),
                    );
                    let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                    let mut s = stats[idx].lock().unwrap();
                    match result {
                        Ok(outputs) => {
                            s.latencies_us.push(us);
                            drop(s);
                            if round == 0 {
                                for (id, img) in &outputs {
                                    if !img.bit_equal(app.reference.expect_image(*id)) {
                                        failures.lock().unwrap().push(format!(
                                            "conn {conn}: {} output {} not bit-identical \
                                             to execute_reference",
                                            app.name, id.0
                                        ));
                                    }
                                }
                            }
                        }
                        Err(ClientError::Server {
                            code: ErrorCode::DeadlineExceeded,
                            ..
                        }) => s.deadline_misses += 1,
                        Err(e) => {
                            s.errors += 1;
                            drop(s);
                            failures
                                .lock()
                                .unwrap()
                                .push(format!("conn {conn}: {} request: {e}", app.name));
                        }
                    }
                }
            }
        }));
    }
    for t in threads {
        let _ = t.join();
    }
    let wall_s = started.elapsed().as_secs_f64();

    // Deadline propagation probe: a 1 µs budget cannot survive the queue,
    // so the server must answer DeadlineExceeded without executing.
    let mut probe_misses = 0u64;
    let probes = 4;
    {
        let mut client = Client::connect(target).expect("probe connect");
        let app = &apps[0];
        client
            .register(app.name, &app.pipeline)
            .expect("probe register");
        for _ in 0..probes {
            match client.call(
                app.name,
                app.inputs.clone(),
                Schedule::Optimized,
                Some(Duration::from_micros(1)),
            ) {
                Err(ClientError::Server {
                    code: ErrorCode::DeadlineExceeded,
                    ..
                }) => probe_misses += 1,
                Ok(_) => {}
                Err(e) => failures
                    .lock()
                    .unwrap()
                    .push(format!("deadline probe: {e}")),
            }
        }
        if probe_misses == 0 {
            failures
                .lock()
                .unwrap()
                .push("deadline probe: no 1µs submission was rejected".into());
        }
    }

    // Report + JSON.
    println!(
        "\n{:<10} {:>6} {:>9} {:>9} {:>9} {:>9} {:>7} {:>9}",
        "app", "ok", "p50 µs", "p95 µs", "p99 µs", "req/s", "misses", "miss rate"
    );
    let mut json_apps = String::new();
    let mut total_ok = 0usize;
    for (idx, app) in apps.iter().enumerate() {
        let mut s = stats[idx].lock().unwrap();
        s.latencies_us.sort_unstable();
        let ok = s.latencies_us.len();
        total_ok += ok;
        let pct = |p: f64| -> u64 {
            if s.latencies_us.is_empty() {
                return 0;
            }
            let i = ((ok as f64) * p).ceil() as usize;
            s.latencies_us[i.clamp(1, ok) - 1]
        };
        let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));
        let attempted = ok as u64 + s.deadline_misses + s.errors;
        let miss_rate = if attempted > 0 {
            s.deadline_misses as f64 / attempted as f64
        } else {
            0.0
        };
        let rps = ok as f64 / wall_s;
        println!(
            "{:<10} {:>6} {:>9} {:>9} {:>9} {:>9.1} {:>7} {:>8.3}%",
            app.name,
            ok,
            p50,
            p95,
            p99,
            rps,
            s.deadline_misses,
            miss_rate * 100.0
        );
        if !json_apps.is_empty() {
            json_apps.push(',');
        }
        write!(
            json_apps,
            "\n    {{\"name\": \"{}\", \"ok\": {ok}, \"p50_us\": {p50}, \
             \"p95_us\": {p95}, \"p99_us\": {p99}, \"req_s\": {rps:.3}, \
             \"deadline_misses\": {}, \"deadline_miss_rate\": {miss_rate:.6}}}",
            app.name, s.deadline_misses
        )
        .unwrap();
    }
    println!(
        "\ntotal: {total_ok} ok in {wall_s:.2}s = {:.1} req/s aggregate; \
         deadline probe: {probe_misses}/{probes} rejected",
        total_ok as f64 / wall_s
    );

    // Metrics sidecar: scrape, validate, health-check (in-process only —
    // an external server's sidecar address is not discoverable here).
    let mut prom_samples = 0usize;
    if let Some(maddr) = metrics_addr {
        match http_get(maddr, "/metrics") {
            Ok((status, body)) => {
                if status != 200 {
                    failures
                        .lock()
                        .unwrap()
                        .push(format!("/metrics status {status}"));
                } else {
                    match validate_prometheus(&body) {
                        Ok(n) => {
                            prom_samples = n;
                            println!("/metrics: {n} samples, valid exposition");
                        }
                        Err(e) => failures
                            .lock()
                            .unwrap()
                            .push(format!("/metrics invalid exposition: {e}")),
                    }
                    if !body.contains("kfuse_net_connections_total") {
                        failures
                            .lock()
                            .unwrap()
                            .push("/metrics missing kfuse_net_* families".into());
                    }
                }
            }
            Err(e) => failures
                .lock()
                .unwrap()
                .push(format!("/metrics scrape: {e}")),
        }
        match http_get(maddr, "/healthz") {
            Ok((200, body)) if body.trim() == "ok" => println!("/healthz: ok"),
            Ok((status, body)) => failures
                .lock()
                .unwrap()
                .push(format!("/healthz unexpected: {status} {body:?}")),
            Err(e) => failures.lock().unwrap().push(format!("/healthz: {e}")),
        }
    }

    // Graceful drain: refuse new work, keep health honest.
    if let (Some(server), true) = (&server, exercise_drain) {
        let mut client = Client::connect(target).expect("drain connect");
        client.drain().expect("drain ack");
        if !server.is_draining() {
            failures
                .lock()
                .unwrap()
                .push("server not draining after Drain".into());
        }
        match client.call(
            apps[0].name,
            apps[0].inputs.clone(),
            Schedule::Optimized,
            None,
        ) {
            Err(ClientError::Server {
                code: ErrorCode::Draining,
                ..
            }) => println!("drain: new submissions refused"),
            other => failures
                .lock()
                .unwrap()
                .push(format!("drain: submit not refused: {other:?}")),
        }
        if let Some(maddr) = metrics_addr {
            match http_get(maddr, "/healthz") {
                Ok((503, body)) if body.trim() == "draining" => {
                    println!("drain: /healthz reports draining");
                }
                other => failures
                    .lock()
                    .unwrap()
                    .push(format!("drain: /healthz not draining: {other:?}")),
            }
        }
    }

    // Open-loop overload sweep, against a dedicated in-process server
    // (the main one may be draining by now) with QoS shedding configured:
    // queue 64, immediate-reject admission, Normal shed past 75% queue
    // depth, Low past 50%, High never pressure-shed.
    let mut sweep_json = String::new();
    if sweep {
        use kfuse_runtime::Admission;
        let sworkers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
        let mut scfg = ServerConfig::default();
        scfg.runtime.workers = sworkers;
        scfg.runtime.queue_capacity = 64;
        scfg.runtime.admission = Admission::Reject;
        scfg.runtime.shed_normal_fraction = 0.75;
        scfg.runtime.shed_low_fraction = 0.5;
        let sweep_server = Server::bind("127.0.0.1:0", scfg).expect("bind sweep server");
        let starget = sweep_server.local_addr();

        let cal_secs = 0.8;
        let peak = calibrate_peak(starget, &apps[0], connections.max(2), cal_secs);
        // 2× saturation, floored so a pathologically slow calibration
        // still produces a real overload test.
        let offered = (2.0 * peak).max(50.0);
        let sweep_dur = Duration::from_secs(2);
        let sweep_conns = connections.max(2);
        println!(
            "\noverload sweep: peak ≈ {peak:.0} req/s; offering {offered:.0} req/s \
             open-loop (Poisson, 20/60/20 high/normal/low) for {:.1}s",
            sweep_dur.as_secs_f64()
        );

        let mut agg = SweepStats::default();
        let mut sweep_threads = Vec::new();
        for c in 0..sweep_conns {
            let apps = Arc::clone(&apps);
            let per_conn_rate = offered / sweep_conns as f64;
            sweep_threads.push(std::thread::spawn(move || {
                sweep_connection(
                    starget,
                    &apps[0],
                    per_conn_rate,
                    sweep_dur,
                    250_000,
                    0xc0ff_ee00 + c as u64,
                )
            }));
        }
        for t in sweep_threads {
            match t.join() {
                Ok(Ok(stats)) => agg.merge(stats),
                Ok(Err(e)) => failures.lock().unwrap().push(format!("sweep: {e}")),
                Err(_) => failures
                    .lock()
                    .unwrap()
                    .push("sweep: connection thread panicked".into()),
            }
        }
        sweep_server.shutdown();

        let ok = agg.ok();
        let shed = agg.total_shed();
        let goodput = ok as f64 / sweep_dur.as_secs_f64();
        let attempted = ok + shed + agg.errors;
        let shed_rate = if attempted > 0 {
            shed as f64 / attempted as f64
        } else {
            0.0
        };
        println!(
            "overload sweep: {ok} ok ({goodput:.0} req/s goodput, {:.0}% of peak), \
             {shed} shed ({:.1}%), {} errors",
            if peak > 0.0 {
                goodput / peak * 100.0
            } else {
                0.0
            },
            shed_rate * 100.0,
            agg.errors
        );
        let mut prio_json = String::new();
        for (class, name) in PRIO_NAMES.iter().enumerate() {
            let n = agg.latencies_us[class].len();
            let p99 = agg.p99_us(class);
            println!(
                "  {:<7} {:>7} ok  p99 {:>9} µs  shed {:>6}",
                name, n, p99, agg.shed[class]
            );
            if !prio_json.is_empty() {
                prio_json.push(',');
            }
            write!(
                prio_json,
                "\n      {{\"class\": \"{name}\", \"ok\": {n}, \"p99_us\": {p99}, \
                 \"shed\": {}}}",
                agg.shed[class]
            )
            .unwrap();
        }

        // Smoke gates: a saturated server must keep doing useful work
        // (nonzero goodput) *because* it sheds (nonzero shed) — a zero
        // in either slot means the overload path is broken.
        if ok == 0 {
            failures
                .lock()
                .unwrap()
                .push("sweep: zero goodput at 2× saturation".into());
        }
        if shed == 0 {
            failures
                .lock()
                .unwrap()
                .push("sweep: nothing shed at 2× saturation — load shedding inactive".into());
        }
        if strict_qos {
            if goodput < 0.8 * peak {
                failures.lock().unwrap().push(format!(
                    "sweep (strict): goodput {goodput:.0} req/s < 80% of peak {peak:.0}"
                ));
            }
            let (high_n, low_n) = (agg.latencies_us[0].len(), agg.latencies_us[2].len());
            if high_n > 0 && low_n > 0 && agg.p99_us(0) > agg.p99_us(2) {
                failures.lock().unwrap().push(format!(
                    "sweep (strict): high-priority p99 {} µs > low-priority p99 {} µs",
                    agg.p99_us(0),
                    agg.p99_us(2)
                ));
            }
        }

        sweep_json = format!(
            "\"overload_sweep\": {{\n    \"calibrated_peak_req_s\": {peak:.1},\n    \
             \"offered_req_s\": {offered:.1},\n    \"duration_s\": {:.1},\n    \
             \"connections\": {sweep_conns},\n    \"deadline_us\": 250000,\n    \
             \"ok\": {ok},\n    \"shed\": {shed},\n    \"errors\": {},\n    \
             \"goodput_req_s\": {goodput:.1},\n    \"shed_rate\": {shed_rate:.4},\n    \
             \"priorities\": [{prio_json}\n    ]\n  }},\n  ",
            sweep_dur.as_secs_f64(),
            agg.errors,
        );
    }

    let failed = {
        let f = failures.lock().unwrap();
        for msg in f.iter() {
            eprintln!("loadgen FAILURE: {msg}");
        }
        !f.is_empty()
    };

    let json = format!(
        "{{\n  \"benchmark\": \"network serving latency (kfuse-net loadgen)\",\n  \
         \"scale_divisor\": {scale},\n  \"connections\": {connections},\n  \
         \"requests_per_app_per_connection\": {requests_per_app},\n  \
         \"deadline_ms\": {deadline_ms},\n  \"wall_seconds\": {wall_s:.3},\n  \
         \"aggregate_req_s\": {:.3},\n  \
         \"deadline_probe\": {{\"probes\": {probes}, \"rejected\": {probe_misses}}},\n  \
         \"prometheus_samples\": {prom_samples},\n  {sweep_json}\"failures\": {},\n  \
         \"apps\": [{json_apps}\n  ]\n}}\n",
        total_ok as f64 / wall_s,
        if failed { "true" } else { "false" },
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    std::fs::write(path, json).expect("write BENCH_net.json");
    println!("\nwrote {path}");

    if let Some(server) = server {
        server.shutdown();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Closed-loop saturation probe: `connections` clients call as fast as
/// replies come back for `secs`; the aggregate completion rate is the
/// server's (approximate) peak goodput, the yardstick the open-loop
/// phase doubles.
fn calibrate_peak(target: SocketAddr, app: &AppSetup, connections: usize, secs: f64) -> f64 {
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let total = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut threads = Vec::new();
    for _ in 0..connections {
        let done = Arc::clone(&done);
        let total = Arc::clone(&total);
        let pipeline = app.pipeline.clone();
        let inputs = app.inputs.clone();
        threads.push(std::thread::spawn(move || {
            let Ok(mut client) = Client::connect(target) else {
                return;
            };
            if client.register("sweep", &pipeline).is_err() {
                return;
            }
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                if client
                    .call("sweep", inputs.clone(), Schedule::Optimized, None)
                    .is_ok()
                {
                    total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }));
    }
    std::thread::sleep(Duration::from_secs_f64(secs));
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
    total.load(std::sync::atomic::Ordering::Relaxed) as f64 / secs
}

/// One open-loop connection: a writer thread emits Poisson arrivals at
/// `rate`/s for `duration` — *never* waiting for completions, the
/// defining property of an overload test — while the calling thread
/// reads replies until the writer finishes and the in-flight set drains.
fn sweep_connection(
    target: SocketAddr,
    app: &AppSetup,
    rate: f64,
    duration: Duration,
    deadline_us: u64,
    seed: u64,
) -> Result<SweepStats, String> {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut stream = TcpStream::connect(target).map_err(|e| format!("sweep connect: {e}"))?;
    let limits = Limits::default();
    write_frame(
        &mut stream,
        &Frame::RegisterPipeline {
            name: "sweep".into(),
            fingerprint: app.pipeline.fingerprint(),
            pipeline: app.pipeline.clone(),
        },
    )
    .map_err(|e| format!("sweep register: {e}"))?;
    match read_frame(&mut stream, &limits) {
        Ok(Frame::RegisterAck { .. }) => {}
        other => return Err(format!("sweep register reply: {other:?}")),
    }

    let inflight: Arc<Mutex<HashMap<u64, (Instant, Priority)>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let mut wstream = stream
            .try_clone()
            .map_err(|e| format!("sweep clone: {e}"))?;
        let inflight = Arc::clone(&inflight);
        let done = Arc::clone(&done);
        let inputs = app.inputs.clone();
        std::thread::spawn(move || {
            let mut rng = SplitMix64(seed ^ 0x005e_ed0f_5eed);
            let start = Instant::now();
            let dur_s = duration.as_secs_f64();
            let mut offset = 0.0f64;
            let mut rid = 0u64;
            while offset < dur_s && rid < 50_000 {
                offset += rng.exp_gap(rate);
                let target_t = start + Duration::from_secs_f64(offset);
                let gap = target_t.saturating_duration_since(Instant::now());
                if !gap.is_zero() {
                    std::thread::sleep(gap);
                }
                rid += 1;
                let priority = rng.priority();
                inflight
                    .lock()
                    .unwrap()
                    .insert(rid, (Instant::now(), priority));
                let frame = Frame::Submit {
                    request_id: rid,
                    tenant: "sweep".into(),
                    deadline_us,
                    schedule: Schedule::Optimized,
                    inputs: inputs.clone(),
                    priority,
                    trace: None,
                };
                if write_frame(&mut wstream, &frame).is_err() {
                    break;
                }
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    // Reader: 500 ms poll timeout so the loop can notice the writer
    // finishing; between frames a timeout is a clean idle poll.
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok();
    let mut stats = SweepStats::default();
    let mut idle_polls = 0u32;
    loop {
        match read_frame(&mut stream, &limits) {
            Ok(Frame::ResultOk { request_id, .. }) => {
                idle_polls = 0;
                if let Some((t0, p)) = inflight.lock().unwrap().remove(&request_id) {
                    let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                    stats.latencies_us[prio_idx(p)].push(us);
                }
            }
            Ok(Frame::Error {
                request_id, code, ..
            }) => {
                idle_polls = 0;
                let entry = inflight.lock().unwrap().remove(&request_id);
                match code {
                    ErrorCode::QueueFull
                    | ErrorCode::DeadlineExceeded
                    | ErrorCode::AdmissionTimeout => {
                        let p = entry.map_or(Priority::Normal, |(_, p)| p);
                        stats.shed[prio_idx(p)] += 1;
                    }
                    _ => stats.errors += 1,
                }
            }
            Ok(_) => {
                idle_polls = 0;
                stats.errors += 1;
            }
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                idle_polls += 1;
                // Writer finished and nothing has arrived for 5 s: the
                // remaining in-flight entries will never be answered
                // (connection torn down mid-reply); stop waiting.
                if done.load(Ordering::SeqCst) && idle_polls > 10 {
                    break;
                }
            }
            Err(_) => break,
        }
        if done.load(Ordering::SeqCst) && inflight.lock().unwrap().is_empty() {
            break;
        }
    }
    let _ = writer.join();
    Ok(stats)
}

/// Minimal HTTP/1.0 GET returning `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: kfuse\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}
