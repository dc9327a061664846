//! Streaming-session throughput benchmark: frame-to-frame state reuse
//! versus cold per-frame resubmission, per temporal app, under the
//! optimized schedule.
//!
//! Two execution modes are timed over the same frame sequence:
//!
//! * **steady** — one [`kfuse_stream::StreamSession`] opened before the
//!   clock starts: the plan is compiled once, state planes *move* from
//!   frame N−1's execution into frame N's inputs, and the tile scratch
//!   arena is reused across frames.
//! * **cold** — what a sessionless client pays per frame: recompile the
//!   fused plan, clone every state plane back in (the client must resend
//!   state it has no way to pin server-side), and allocate fresh scratch.
//!
//! Before any timing, every steady frame is checked **bit for bit**
//! against [`kfuse_stream::run_reference`] — the naive tree-walking
//! interpreter stepped with cloned state history.
//! A mismatch aborts the benchmark; the verdict is recorded as
//! `bit_identical` in the output.
//!
//! Each app is measured at two operating points: the paper's 2,048²
//! single-frame evaluation size — execution dominates, so the session's
//! edge is the avoided per-frame state-plane clones — and a 512²
//! interactive streaming size, where the avoided per-frame replan is a
//! large fraction of the frame budget.
//!
//! Prints a Mpix/s table and writes machine-readable results to
//! `BENCH_stream.json` at the repository root. Run with
//! `cargo run --release -p kfuse-bench --bin bench_stream`. Set
//! `KFUSE_BENCH_SCALE=<div>` to divide the workload edge lengths for a
//! quick smoke run. With `--gate` the process exits non-zero unless
//! steady-state throughput is at least cold throughput for every app and
//! size — the CI smoke gate for the session machinery.

use kfuse_apps::temporal_apps;
use kfuse_core::FusionConfig;
use kfuse_dsl::{compile, Schedule};
use kfuse_ir::{Image, ImageId};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_obs::Tracer;
use kfuse_sim::{synthetic_image, CompiledPlan, FastConfig, Scratch};
use kfuse_stream::{run_reference, StreamPipeline, StreamSession};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Frames per timed sequence: enough to amortize warmup (max temporal
/// depth is 2) and let the steady path's moved-plane reuse show.
const FRAMES: usize = 12;

/// The one fused schedule the sessions run under.
const SCHEDULE: Schedule = Schedule::Optimized;

/// The two operating points, scaled down by `KFUSE_BENCH_SCALE` if set:
/// the paper's 2,048² single-frame evaluation size (where per-frame
/// execution dominates and the session's edge is the avoided state-plane
/// clones), and a 512² interactive streaming size (where the avoided
/// per-frame replan is a large fraction and sessions win on every app).
const POINTS: [(usize, &str); 2] = [(2048, "locality"), (512, "interactive")];

fn workload(edge: usize, scale: usize) -> (usize, usize) {
    ((edge / scale).max(16), (edge / scale).max(16))
}

/// The fresh (non-state) inputs for frame `f`, deterministically seeded
/// so steady, cold, and the reference all see the same sequence.
fn frame_inputs(stream: &StreamPipeline, f: usize) -> Vec<(ImageId, Image)> {
    stream
        .fresh_inputs()
        .iter()
        .map(|&id| {
            let desc = stream.frame().image(id).clone();
            (id, synthetic_image(desc, f as u64 * 97 + id.0 as u64 + 5))
        })
        .collect()
}

fn bits_equal(a: &Image, b: &Image) -> bool {
    a.data().len() == b.data().len()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Steps a pre-opened session through the whole frame sequence, consuming
/// pre-cloned frames: producing the input frames is the client's cost in
/// both modes, so the caller clones them **off the clock**. The session is
/// reset first, so every repeat replays warmup identically.
fn run_steady(session: &mut StreamSession, frames: Vec<Vec<(ImageId, Image)>>) {
    session.reset();
    for fresh in frames {
        std::hint::black_box(session.step(fresh).expect("steady frame executes"));
    }
}

/// The sessionless baseline: each frame recompiles the plan, clones the
/// state history in, and executes with fresh scratch — per-frame
/// resubmission against a server that keeps nothing warm.
fn run_cold(
    stream: &StreamPipeline,
    fusion: &FusionConfig,
    cfg: &FastConfig,
    frames: Vec<Vec<(ImageId, Image)>>,
) {
    let mut rings: Vec<VecDeque<Image>> = stream.states().iter().map(|_| VecDeque::new()).collect();
    for fresh in frames {
        let fused = compile(stream.frame(), SCHEDULE, fusion);
        let plan = CompiledPlan::compile(&fused).expect("cold plan compiles");
        let mut scratch = Scratch::default();
        let mut inputs = fresh;
        for (ring, s) in rings.iter_mut().zip(stream.states()) {
            let plane = if ring.len() == s.depth {
                ring.pop_front().expect("ring length just checked")
            } else {
                Image::zeros(stream.frame().image(s.tap).clone())
            };
            inputs.push((s.tap, plane));
        }
        let exec = plan
            .run(inputs, cfg, &mut scratch, &Tracer::disabled())
            .expect("cold frame executes");
        for (ring, s) in rings.iter_mut().zip(stream.states()) {
            ring.push_back(
                exec.image(s.source.id())
                    .expect("validated sources are always materialized")
                    .clone(),
            );
        }
        std::hint::black_box(&exec);
    }
}

struct Measurement {
    steady_mpix_s: f64,
    steady_spread: f64,
    steady_repeats: usize,
    cold_mpix_s: f64,
    /// Steady-state throughput over cold per-frame resubmission — the
    /// headline the smoke gate checks (must be ≥ 1). Median of the
    /// *paired per-round* ratios, so clock and allocator drift cancel.
    steady_over_cold: f64,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// Interquartile spread relative to the median, kfuse-tune's noise gauge.
fn rel_spread(sorted: &[f64]) -> f64 {
    let q1 = sorted[sorted.len() / 4];
    let q3 = sorted[(3 * sorted.len()) / 4];
    (q3 - q1) / sorted[sorted.len() / 2]
}

/// Times steady and cold in **interleaved pairs**: each round runs one
/// steady sequence then one cold sequence, so slow drift — CPU clocks,
/// allocator state, cache residency — lands on both paths equally.
/// Rounds continue (7–17) until the paired ratio stabilizes under 5%.
fn measure(
    stream: &StreamPipeline,
    fusion: &FusionConfig,
    frames: &[Vec<(ImageId, Image)>],
    mpix: f64,
) -> Measurement {
    let cfg = FastConfig::default();
    let mut session =
        StreamSession::new(stream.clone(), SCHEDULE, fusion, cfg).expect("session opens");
    // Two untimed passes each: the first takes first-touch page faults
    // off the clock, the second settles allocator arenas and CPU clocks
    // before the first recorded round (the process's first measured row
    // is otherwise visibly noisier than every later one).
    for _ in 0..2 {
        run_steady(&mut session, frames.to_vec());
        run_cold(stream, fusion, &cfg, frames.to_vec());
    }

    let mut steady_s = Vec::new();
    let mut cold_s = Vec::new();
    let mut ratios = Vec::new();
    for round in 0..17 {
        // Alternate which path goes first, so a systematic first-slot or
        // second-slot penalty (turbo ramps, allocator state) cancels too.
        // Frames are cloned for each pass *before* its clock starts:
        // producing the inputs is the client's cost in both modes.
        let (s, c) = if round % 2 == 0 {
            let fs = frames.to_vec();
            let t = std::time::Instant::now();
            run_steady(&mut session, fs);
            let s = t.elapsed().as_secs_f64();
            let fc = frames.to_vec();
            let t = std::time::Instant::now();
            run_cold(stream, fusion, &cfg, fc);
            (s, t.elapsed().as_secs_f64())
        } else {
            let fc = frames.to_vec();
            let t = std::time::Instant::now();
            run_cold(stream, fusion, &cfg, fc);
            let c = t.elapsed().as_secs_f64();
            let fs = frames.to_vec();
            let t = std::time::Instant::now();
            run_steady(&mut session, fs);
            (t.elapsed().as_secs_f64(), c)
        };
        steady_s.push(s);
        cold_s.push(c);
        ratios.push(c / s);
        if round + 1 >= 7 {
            let mut sorted = ratios.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
            if rel_spread(&sorted) < 0.05 {
                break;
            }
        }
    }
    let repeats = ratios.len();
    let steady_med = median(&mut steady_s);
    Measurement {
        steady_mpix_s: mpix / steady_med,
        steady_spread: rel_spread(&steady_s),
        steady_repeats: repeats,
        cold_mpix_s: mpix / median(&mut cold_s),
        steady_over_cold: median(&mut ratios),
    }
}

/// Steps a fresh session through the sequence and compares every frame's
/// every output bit for bit against the streaming oracle.
fn verify(
    stream: &StreamPipeline,
    fusion: &FusionConfig,
    frames: &[Vec<(ImageId, Image)>],
    oracle: &[Vec<(ImageId, Image)>],
) -> bool {
    let mut session = StreamSession::new(stream.clone(), SCHEDULE, fusion, FastConfig::default())
        .expect("session opens");
    for (f, fresh) in frames.iter().enumerate() {
        let out = session.step(fresh.clone()).expect("frame executes");
        let want = &oracle[f];
        if out.outputs.len() != want.len() {
            return false;
        }
        for ((id, img), (want_id, want_img)) in out.outputs.iter().zip(want) {
            if id != want_id || !bits_equal(img, want_img) {
                return false;
            }
        }
    }
    true
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let scale: usize = std::env::var("KFUSE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    let fusion = FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()));
    let threads = FastConfig::default().resolved_threads();

    // Process-level settle: the first measured row of a run is
    // reproducibly noisier than every later one on this class of machine
    // (allocator arena placement, page cache, CPU clocks), so run one
    // full throwaway measurement shaped exactly like the first row and
    // discard it.
    {
        let apps = temporal_apps();
        let (edge, _) = POINTS[0];
        let (w, h) = workload(edge, scale);
        let stream = (apps[0].build_sized)(w, h);
        let frames: Vec<_> = (0..FRAMES).map(|f| frame_inputs(&stream, f)).collect();
        let _ = measure(&stream, &fusion, &frames, 1.0);
    }

    println!(
        "{:<18} {:>9} {:<12} {:>14} {:>7} {:>13} {:>12} {:>10}",
        "app", "size", "point", "steady Mpix/s", "spread", "cold Mpix/s", "steady/cold", "bits"
    );
    let mut json_apps = String::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for app in temporal_apps() {
        let mut json_points = String::new();
        for (edge, point) in POINTS {
            let (w, h) = workload(edge, scale);
            let mpix = (w * h * FRAMES) as f64 / 1e6;
            let stream = (app.build_sized)(w, h);
            let frames: Vec<_> = (0..FRAMES).map(|f| frame_inputs(&stream, f)).collect();

            // Verify first, then drop the oracle: its dozen retained output
            // frames are serious memory pressure that would skew the timings.
            let oracle = run_reference(&stream, &frames).expect("reference executes");
            let bit_identical = verify(&stream, &fusion, &frames, &oracle);
            drop(oracle);
            assert!(
                bit_identical,
                "{} ({point}): a steady frame diverged from the streaming oracle",
                app.name
            );

            let m = measure(&stream, &fusion, &frames, mpix);
            println!(
                "{:<18} {:>9} {:<12} {:>14.2} {:>6.1}% {:>13.2} {:>11.2}x      exact",
                app.name,
                format!("{w}x{h}"),
                point,
                m.steady_mpix_s,
                m.steady_spread * 100.0,
                m.cold_mpix_s,
                m.steady_over_cold,
            );
            if m.steady_over_cold < 1.0 {
                gate_failures.push(format!(
                    "{} {point}: steady/cold {:.3} < 1",
                    app.name, m.steady_over_cold
                ));
            }
            if !json_points.is_empty() {
                json_points.push(',');
            }
            write!(
                json_points,
                "\n      {{\"point\": \"{point}\", \"width\": {w}, \"height\": {h}, \"bit_identical\": {bit_identical}, \"steady_mpix_s\": {:.3}, \"steady_spread\": {:.4}, \"steady_repeats\": {}, \"cold_mpix_s\": {:.3}, \"steady_over_cold\": {:.3}}}",
                m.steady_mpix_s,
                m.steady_spread,
                m.steady_repeats,
                m.cold_mpix_s,
                m.steady_over_cold,
            )
            .unwrap();
        }
        if !json_apps.is_empty() {
            json_apps.push(',');
        }
        write!(
            json_apps,
            "\n    {{\"name\": \"{}\", \"points\": [{}\n    ]}}",
            app.name, json_points
        )
        .unwrap();
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    let json = format!(
        "{{\n  \"benchmark\": \"streaming sessions (steady-state state reuse vs cold per-frame resubmission)\",\n  \"scale_divisor\": {scale},\n  \"frames\": {FRAMES},\n  \"threads\": {threads},\n  \"apps\": [{json_apps}\n  ]\n}}\n"
    );
    std::fs::write(path, json).expect("write BENCH_stream.json");
    println!("\nwrote {path}");
    if gate {
        if gate_failures.is_empty() {
            println!("gate: steady-state >= cold for every app and size");
        } else {
            for f in &gate_failures {
                println!("gate FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
