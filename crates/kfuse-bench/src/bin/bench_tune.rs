//! Planning-policy throughput benchmark: the static analytic model's pick
//! versus the autotuned choice, per paper application.
//!
//! For every app the static planner's configuration
//! ([`kfuse_tune::Choice::static_default`]: optimized schedule, derived
//! strip height) is one candidate of the full `kfuse_tune::autotune`
//! search (schedule × strip height × separable rewrite). The `mpix_s`
//! columns are the search's own medians, a best-of-N selection; the
//! verdict (`speedup`, `wins`/`pairs`, `clearly_faster`) is the winner
//! re-timed against the static default in alternating pairs.
//!
//! Every candidate, winner included, must be bit-identical to
//! `kfuse_sim::execute_reference` on the probe inputs before it is timed;
//! the winner is re-proved once more here. Tuning changes which plan
//! runs, never the pixels.
//!
//! Prints a table and writes `BENCH_tune.json` at the repository root.
//! `KFUSE_BENCH_SCALE=<div>` divides the workload edge lengths (CI smoke
//! runs use a large divisor).
//!
//! Run with `cargo run --release -p kfuse-bench --bin bench_tune`.

use kfuse_apps::paper_apps;
use kfuse_core::{PlanPolicy, StaticModelPolicy};
use kfuse_sim::{execute_fast_with, execute_reference};
use kfuse_tune::{autotune, output_pixels, probe_inputs, Choice, TuneOptions};
use std::fmt::Write as _;

/// Workload size per app: the paper's evaluation sizes, scaled down by
/// `KFUSE_BENCH_SCALE` if set (kept in lockstep with `bench_exec`).
fn workload(name: &str, scale: usize) -> (usize, usize) {
    let (w, h) = if name == "Night" {
        (1920, 1200)
    } else {
        (2048, 2048)
    };
    ((w / scale).max(8), (h / scale).max(8))
}

fn main() {
    let scale: usize = std::env::var("KFUSE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    let policy = StaticModelPolicy::paper_default();
    let base = policy.fusion_config();
    // Offline benchmarking may search the separable rewrite: the oracle
    // gates each candidate on exactly the inputs being measured, which is
    // precisely the claim this benchmark makes.
    let opts = TuneOptions {
        include_separable: true,
        max_repeats: 10,
        ..TuneOptions::default()
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tune.json");

    println!(
        "{:<10} {:>9} {:>13} {:>7} {:>13} {:>7} {:<24} {:>8} {:>6} {:>6}",
        "app",
        "size",
        "static Mpix/s",
        "spread",
        "tuned Mpix/s",
        "spread",
        "tuned choice",
        "paired",
        "wins",
        "clear"
    );
    let mut json_apps = String::new();
    for app in paper_apps() {
        let (w, h) = workload(app.name, scale);
        let p = (app.build_sized)(w, h);
        let inputs = probe_inputs(&p, 42);
        let mpix = output_pixels(&p) as f64 / 1e6;

        let result = autotune(&p, &inputs, base, &opts).expect("autotune finds a viable candidate");
        let static_choice = Choice::static_default();
        let static_m = result
            .measured
            .iter()
            .find(|m| m.choice == static_choice)
            .expect("the static default is always in the candidate set and bit-identical");
        let tuned_m = &result.measured[0];
        assert_eq!(tuned_m.choice, result.best);
        assert!(
            tuned_m.sample.median_s <= static_m.sample.median_s,
            "tuner returned a winner slower than the static candidate"
        );

        // Re-prove the winner bit-identical to the reference interpreter.
        let reference = execute_reference(&p, &inputs).expect("reference executes");
        let compiled = result.best.compile(&p, base);
        let exec = execute_fast_with(&compiled, &inputs, &result.best.fast_config())
            .expect("winner executes");
        for &out in p.outputs() {
            let (a, b) = (
                reference.image(out).expect("reference output"),
                exec.image(out).expect("winner output"),
            );
            assert!(
                a.bit_equal(b),
                "{}: tuned winner diverged from reference",
                app.name
            );
        }

        let static_mpix = mpix / static_m.sample.median_s;
        let tuned_mpix = mpix / tuned_m.sample.median_s;
        let (speedup, wins, pairs, clear) = result.versus_static.map_or((1.0, 0, 0, false), |v| {
            (v.speedup, v.wins, v.pairs, v.clearly_faster)
        });
        println!(
            "{:<10} {:>9} {:>13.2} {:>6.1}% {:>13.2} {:>6.1}% {:<24} {:>7.2}x {:>6} {:>6}",
            app.name,
            format!("{w}x{h}"),
            static_mpix,
            static_m.sample.spread * 100.0,
            tuned_mpix,
            tuned_m.sample.spread * 100.0,
            result.best.label(),
            speedup,
            format!("{wins}/{pairs}"),
            if clear { "yes" } else { "no" }
        );
        if !json_apps.is_empty() {
            json_apps.push(',');
        }
        write!(
            json_apps,
            "\n    {{\"name\": \"{}\", \"width\": {w}, \"height\": {h}, \"size_class\": {}, \"static\": {{\"choice\": \"{}\", \"mpix_s\": {:.3}, \"spread\": {:.4}, \"repeats\": {}}}, \"tuned\": {{\"choice\": \"{}\", \"mpix_s\": {:.3}, \"spread\": {:.4}, \"repeats\": {}}}, \"speedup\": {:.3}, \"wins\": {wins}, \"pairs\": {pairs}, \"clearly_faster\": {}, \"candidates_measured\": {}, \"candidates_rejected\": {}}}",
            app.name,
            result.key.size_class,
            static_choice.label(),
            static_mpix,
            static_m.sample.spread,
            static_m.sample.n,
            result.best.label(),
            tuned_mpix,
            tuned_m.sample.spread,
            tuned_m.sample.n,
            speedup,
            clear,
            result.measured.len(),
            result.rejected
        )
        .unwrap();
    }

    let json = format!(
        "{{\n  \"benchmark\": \"planning policy throughput (static analytic model vs autotuned choice; speedup, wins and clearly_faster from alternating pairs)\",\n  \"scale_divisor\": {scale},\n  \"apps\": [{json_apps}\n  ]\n}}\n"
    );
    std::fs::write(path, json).expect("write BENCH_tune.json");
    println!("\nwrote {path}");
}
