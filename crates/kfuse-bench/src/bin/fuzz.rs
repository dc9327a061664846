//! Differential fuzzing driver: sweep seeds through the full
//! `kfuse-fuzz` harness and report the first failures, minimized.
//!
//! For every seed in `[start, start + seeds)` the harness generates a
//! random valid pipeline and asserts (a) bit-identity across every
//! execution path — reference interpreter, fast executor under several
//! strip heights, compiled plan (plain and traced), all three fusion
//! schedules, and a warm-cache runtime round trip — and (b) every planner
//! invariant (proper partition, block legality, Eq. 12 clamp exactness,
//! Eq. 13 weight conservation, Eq. 1 objective consistency).
//!
//! Failing seeds are shrunk by dropping sink kernels and printed so they
//! can be checked in as regression tests (`tests/fuzz_regressions.rs`);
//! the process exits non-zero if any seed fails, so CI can run this as a
//! smoke gate (`fuzz --seeds 256`).
//!
//! `--wire N` additionally sweeps N seeds through the `kfuse-net` frame
//! codec (random frames through encode → decode → re-encode for
//! bit-identity, plus byte-flip corruption probes). `--stream N` sweeps N
//! seeds through the temporal harness: random streaming pipelines with
//! bounded `prev_frame(k)` depth, stepped through a session under every
//! fusion schedule and checked frame for frame against the streaming
//! oracle.
//!
//! Run with `cargo run --release -p kfuse-bench --bin fuzz -- --seeds 1024`.

use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: fuzz [--seeds N] [--start S] [--wire N] [--stream N] [--verbose]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut seeds = 256u64;
    let mut start = 0u64;
    let mut wire_seeds = 0u64;
    let mut stream_seeds = 0u64;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--start" => {
                start = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--wire" => {
                wire_seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--stream" => {
                stream_seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--verbose" => verbose = true,
            _ => usage(),
        }
    }

    let mut failures = 0u64;
    for seed in start..start.saturating_add(seeds) {
        match kfuse_fuzz::check_seed(seed) {
            Ok(report) => {
                if verbose {
                    println!(
                        "seed {seed:#018x}: ok ({} kernels, {} images, {} outputs)",
                        report.kernels, report.images, report.outputs
                    );
                }
            }
            Err(failure) => {
                failures += 1;
                println!("seed {seed:#018x}: FAILED: {failure}");
                let p = kfuse_fuzz::generate(seed);
                let shrunk =
                    kfuse_fuzz::shrink(&p, |q| kfuse_fuzz::check_pipeline(q, seed).is_err());
                let residual = kfuse_fuzz::check_pipeline(&shrunk, seed)
                    .expect_err("shrink preserves the failure");
                println!(
                    "  minimized: {} -> {} kernels; residual failure: {residual}",
                    p.kernels().len(),
                    shrunk.kernels().len()
                );
                for k in shrunk.kernels() {
                    let (rx, ry) = k.root_stage().max_extent();
                    println!(
                        "    kernel {} ({} stages, root extent {rx}x{ry})",
                        k.name,
                        k.stages.len()
                    );
                }
            }
        }
    }

    let mut wire_failures = 0u64;
    for seed in start..start.saturating_add(wire_seeds) {
        match kfuse_fuzz::check_wire_seed(seed) {
            Ok(()) => {
                if verbose {
                    println!("wire seed {seed:#018x}: ok");
                }
            }
            Err(failure) => {
                wire_failures += 1;
                println!("wire seed {seed:#018x}: FAILED: {failure}");
            }
        }
    }
    failures += wire_failures;

    let mut stream_failures = 0u64;
    for seed in start..start.saturating_add(stream_seeds) {
        match kfuse_fuzz::check_stream_seed(seed) {
            Ok(report) => {
                if verbose {
                    println!(
                        "stream seed {seed:#018x}: ok ({} kernels, {} states, depth {})",
                        report.kernels, report.states, report.max_depth
                    );
                }
            }
            Err(failure) => {
                stream_failures += 1;
                println!("stream seed {seed:#018x}: FAILED: {failure}");
                let s = kfuse_fuzz::generate_stream(seed);
                println!(
                    "  stream shape: {} kernels, {} states, max depth {}",
                    s.frame().kernels().len(),
                    s.states().len(),
                    s.max_depth()
                );
            }
        }
    }
    failures += stream_failures;

    println!(
        "fuzz: {} seeds checked starting at {start:#x}, {failures} failure(s)",
        seeds
    );
    if wire_seeds > 0 {
        println!("fuzz: {wire_seeds} wire seeds checked, {wire_failures} failure(s)");
    }
    if stream_seeds > 0 {
        println!("fuzz: {stream_seeds} stream seeds checked, {stream_failures} failure(s)");
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
