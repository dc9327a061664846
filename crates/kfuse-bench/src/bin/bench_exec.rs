//! Throughput benchmark of the functional executors: the compiled tiled
//! engine (`kfuse_sim::execute_fast`) versus the reference tree-walking
//! interpreter (`kfuse_sim::execute_reference`), per application, unfused
//! and under optimized fusion, at the paper's workload sizes (Section V-B:
//! 2,048² gray-scale, Night at 1,920 × 1,200 RGB).
//!
//! Every fast-path number is the **median** of adaptive repeats (5–15,
//! until the interquartile spread drops under 5%), measured with
//! `kfuse_tune::measure_until` — the same helper `bench_tune` uses — and
//! the headline's relative spread is reported alongside it, so a run-to-run
//! delta inside the spread band reads as noise rather than a regression.
//!
//! Per schedule the fast executor is timed under two configurations: the
//! default (the headline `fast_mpix_s`) and two worker threads
//! (`fast_mt2_mpix_s`). The optimized schedule is additionally measured
//! with the separable mask factorization enabled
//! (`FusionConfig::with_separable`, the `optimized_separable` row).
//!
//! Prints a Mpix/s table and writes machine-readable results to
//! `BENCH_exec.json` at the repository root. The previous file, if any,
//! is parsed first: when its `scale_divisor` matches, each app carries the
//! prior optimized-schedule throughput forward (`prev_fast_mpix_s` /
//! `uplift_vs_prev`), so old and new fast-path numbers sit side by side.
//!
//! With `--sizes <edge>,<edge>,…` the run appends an image-size sweep: per
//! app, one-thread baseline and optimized Mpix/s and their ratio on square
//! images of each edge length (`size_sweep` in the JSON) — fusion's
//! benefit on this host as a curve over the working set, not a point. The
//! edges are absolute; `KFUSE_BENCH_SCALE` does not divide them.
//!
//! Run with `cargo run --release -p kfuse-bench --bin bench_exec`.
//! Set `KFUSE_BENCH_SCALE=<div>` to divide the workload edge lengths
//! (e.g. `KFUSE_BENCH_SCALE=8` for a quick smoke run).

use kfuse_apps::paper_apps;
use kfuse_core::FusionConfig;
use kfuse_dsl::{compile, Schedule};
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_sim::{
    execute_fast_with, execute_reference, synthetic_image, CompiledKernel, FastConfig,
};
use kfuse_tune::{measure_until, Sample};
use std::fmt::Write as _;
use std::time::Instant;

/// Workload size per app: the paper's evaluation sizes, scaled down by
/// `KFUSE_BENCH_SCALE` if set.
fn workload(name: &str, scale: usize) -> (usize, usize) {
    let (w, h) = if name == "Night" {
        (1920, 1200)
    } else {
        (2048, 2048)
    };
    ((w / scale).max(8), (h / scale).max(8))
}

fn inputs_for(p: &Pipeline, seed: u64) -> Vec<(ImageId, Image)> {
    p.inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
        .collect()
}

/// Noise-aware timing: median over adaptive repeats with a reported
/// relative spread (kfuse-tune's measurement vocabulary). The previous
/// best-of-3 single numbers were how the phantom 0.89× "regression" on
/// Enhance was born — one noisy run decided the headline.
fn time_median(f: impl FnMut()) -> Sample {
    measure_until(5, 15, 0.05, f)
}

struct Measurement {
    schedule: &'static str,
    fast_mpix_s: f64,
    /// Relative interquartile spread of the headline fast timing —
    /// differences within this band are noise, not regressions.
    fast_spread: f64,
    /// Timed repeats behind the headline median.
    fast_repeats: usize,
    fast_mt2_mpix_s: f64,
    interp_mpix_s: f64,
    speedup: f64,
}

fn measure(p: &Pipeline, w: usize, h: usize, schedule: &'static str) -> Measurement {
    let inputs = inputs_for(p, 42);
    let mpix = (w * h) as f64 / 1e6;
    let time_fast = |cfg: FastConfig| {
        time_median(|| {
            std::hint::black_box(execute_fast_with(p, &inputs, &cfg).expect("fast executes"));
        })
    };
    let fast = time_fast(FastConfig::default());
    let mt2 = time_fast(FastConfig {
        threads: Some(2),
        ..FastConfig::default()
    });
    // The interpreter is orders of magnitude slower; a single timed run
    // (its work is deterministic and cache-resident after the fast runs)
    // keeps the whole benchmark tractable.
    let start = Instant::now();
    std::hint::black_box(execute_reference(p, &inputs).expect("reference executes"));
    let interp_s = start.elapsed().as_secs_f64();
    Measurement {
        schedule,
        fast_mpix_s: mpix / fast.median_s,
        fast_spread: fast.spread,
        fast_repeats: fast.n,
        fast_mt2_mpix_s: mpix / mt2.median_s,
        interp_mpix_s: mpix / interp_s,
        speedup: interp_s / fast.median_s,
    }
}

/// Derived strip rows of every kernel of `p`, in declaration order.
fn strip_rows(p: &Pipeline, w: usize, h: usize) -> Vec<usize> {
    p.kernels()
        .iter()
        .map(|k| CompiledKernel::new(k).strip_rows(w, h, &FastConfig::default()))
        .collect()
}

/// One row of the `--sizes` sweep: `app` on an `edge`² image, one thread.
fn sweep_point(app: &kfuse_apps::App, edge: usize, fusion_cfg: &FusionConfig) -> String {
    let baseline = (app.build_sized)(edge, edge);
    let fused = compile(&baseline, Schedule::Optimized, fusion_cfg);
    let cfg = FastConfig {
        threads: Some(1),
        ..FastConfig::default()
    };
    let mpix = (edge * edge) as f64 / 1e6;
    let time = |p: &Pipeline| {
        let inputs = inputs_for(p, 42);
        time_median(|| {
            std::hint::black_box(execute_fast_with(p, &inputs, &cfg).expect("fast executes"));
        })
    };
    let (base, opt) = (time(&baseline), time(&fused));
    let (base_mpix_s, opt_mpix_s) = (mpix / base.median_s, mpix / opt.median_s);
    let ratio = base.median_s / opt.median_s;
    println!(
        "{:<10} {:>9} {base_mpix_s:>14.2} {:>6.1}% {opt_mpix_s:>14.2} {:>6.1}% {ratio:>7.2}x",
        app.name,
        format!("{edge}x{edge}"),
        base.spread * 100.0,
        opt.spread * 100.0,
    );
    format!(
        "{{\"edge\": {edge}, \"baseline_mpix_s\": {base_mpix_s:.3}, \"baseline_spread\": {:.4}, \"optimized_mpix_s\": {opt_mpix_s:.3}, \"optimized_spread\": {:.4}, \"fusion_speedup\": {ratio:.3}}}",
        base.spread, opt.spread,
    )
}

/// `apps[name].schedules.optimized.fast_mpix_s` from the previous
/// `BENCH_exec.json`, if the file exists, parses, and was recorded at the
/// same scale divisor (comparing across workload sizes would be noise).
///
/// The previous file comes from an older build, so its schema may have
/// drifted — fields renamed, apps restructured. Every drift case degrades
/// to "no side-by-side for that entry" with a printed note, never a panic:
/// this run's numbers must land even when the old file is unreadable.
fn previous_optimized(path: &str, scale: usize) -> Vec<(String, f64)> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(_) => return Vec::new(), // first run: nothing to compare against
    };
    let (prev, notes) = parse_previous(&text, scale);
    for note in notes {
        println!("previous BENCH_exec.json: {note}");
    }
    prev
}

/// Schema-drift-tolerant parse of a previous results file: returns the
/// apps that still carry `schedules.optimized.fast_mpix_s`, plus a note
/// for everything that had to be skipped.
fn parse_previous(text: &str, scale: usize) -> (Vec<(String, f64)>, Vec<String>) {
    let mut notes = Vec::new();
    let doc = match kfuse_obs::parse_json(text) {
        Ok(doc) => doc,
        Err(e) => {
            notes.push(format!("unparseable, skipping side-by-side: {e}"));
            return (Vec::new(), notes);
        }
    };
    match doc.get("scale_divisor").and_then(|v| v.as_num()) {
        Some(prev_scale) if prev_scale == scale as f64 => {}
        Some(prev_scale) => {
            notes.push(format!(
                "recorded at scale divisor {prev_scale}, this run uses {scale}; skipping side-by-side"
            ));
            return (Vec::new(), notes);
        }
        None => {
            notes.push("no numeric `scale_divisor` field; skipping side-by-side".to_string());
            return (Vec::new(), notes);
        }
    }
    let Some(apps) = doc.get("apps").and_then(|v| v.as_arr()) else {
        notes.push("no `apps` array; skipping side-by-side".to_string());
        return (Vec::new(), notes);
    };
    let mut prev = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        let Some(name) = app.get("name").and_then(|v| v.as_str()) else {
            notes.push(format!("apps[{i}] has no string `name`; skipping it"));
            continue;
        };
        let mpix = app
            .get("schedules")
            .and_then(|s| s.get("optimized"))
            .and_then(|o| o.get("fast_mpix_s"))
            .and_then(|v| v.as_num());
        match mpix {
            Some(mpix) => prev.push((name.to_string(), mpix)),
            None => notes.push(format!(
                "app \"{name}\" has no numeric `schedules.optimized.fast_mpix_s`; skipping it"
            )),
        }
    }
    (prev, notes)
}

/// The edges after `--sizes`, if the flag is present.
fn sweep_sizes() -> Vec<usize> {
    let mut args = std::env::args().skip(1);
    match (args.next().as_deref(), args.next()) {
        (None, _) => Vec::new(),
        (Some("--sizes"), Some(list)) => list
            .split(',')
            .map(|e| {
                e.parse()
                    .expect("--sizes takes comma-separated edge lengths")
            })
            .collect(),
        _ => panic!("usage: bench_exec [--sizes <edge>,<edge>,...]"),
    }
}

fn main() {
    let sizes = sweep_sizes();
    let scale: usize = std::env::var("KFUSE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    let fusion_cfg = FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()));
    let threads = FastConfig::default().resolved_threads();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    let prev = previous_optimized(path, scale);

    println!(
        "{:<10} {:>9} {:<20} {:>12} {:>7} {:>12} {:>14} {:>9}",
        "app", "size", "schedule", "fast Mpix/s", "spread", "2-thread", "interp Mpix/s", "speedup"
    );
    let mut json_apps = String::new();
    for app in paper_apps() {
        let (w, h) = workload(app.name, scale);
        let baseline = (app.build_sized)(w, h);
        let fused = compile(&baseline, Schedule::Optimized, &fusion_cfg);
        let separable = compile(
            &baseline,
            Schedule::Optimized,
            &FusionConfig::new(BenefitModel::new(GpuSpec::gtx680())).with_separable(),
        );
        let mut json_schedules = String::new();
        let mut best = 0.0f64;
        for (p, schedule) in [
            (&baseline, "baseline"),
            (&fused, "optimized"),
            (&separable, "optimized_separable"),
        ] {
            let m = measure(p, w, h, schedule);
            let rows = strip_rows(p, w, h);
            println!(
                "{:<10} {:>9} {:<20} {:>12.2} {:>6.1}% {:>12.2} {:>14.3} {:>8.1}x",
                app.name,
                format!("{w}x{h}"),
                m.schedule,
                m.fast_mpix_s,
                m.fast_spread * 100.0,
                m.fast_mt2_mpix_s,
                m.interp_mpix_s,
                m.speedup
            );
            println!("{:<10} {:>9} strip rows per kernel {rows:?}", "", "");
            if m.schedule != "baseline" {
                best = best.max(m.fast_mpix_s);
            }
            if !json_schedules.is_empty() {
                json_schedules.push(',');
            }
            write!(
                json_schedules,
                "\n      \"{}\": {{\"fast_mpix_s\": {:.3}, \"fast_spread\": {:.4}, \"fast_repeats\": {}, \"interp_mpix_s\": {:.3}, \"speedup\": {:.2}, \"fast_mt2_mpix_s\": {:.3}, \"strip_rows\": {rows:?}}}",
                m.schedule,
                m.fast_mpix_s,
                m.fast_spread,
                m.fast_repeats,
                m.interp_mpix_s,
                m.speedup,
                m.fast_mt2_mpix_s
            )
            .unwrap();
        }
        let mut prev_fields = String::new();
        if let Some((_, p)) = prev.iter().find(|(n, _)| n == app.name) {
            write!(
                prev_fields,
                " \"prev_fast_mpix_s\": {p:.3}, \"uplift_vs_prev\": {:.2},",
                best / p
            )
            .unwrap();
            println!(
                "{:<10} {:>9} previous optimized {:.2} Mpix/s -> best {:.2} Mpix/s ({:.2}x)",
                app.name,
                "",
                p,
                best,
                best / p
            );
        }
        if !json_apps.is_empty() {
            json_apps.push(',');
        }
        write!(
            json_apps,
            "\n    {{\"name\": \"{}\", \"width\": {w}, \"height\": {h},{prev_fields} \"schedules\": {{{}\n    }}}}",
            app.name, json_schedules
        )
        .unwrap();
    }

    let mut json_sweep = String::new();
    if !sizes.is_empty() {
        println!(
            "\n{:<10} {:>9} {:>14} {:>7} {:>14} {:>7} {:>8}",
            "app", "size", "baseline Mpix/s", "spread", "optimized Mpix/s", "spread", "ratio"
        );
        for app in paper_apps() {
            let points: Vec<String> = sizes
                .iter()
                .map(|&edge| sweep_point(&app, edge, &fusion_cfg))
                .collect();
            if !json_sweep.is_empty() {
                json_sweep.push(',');
            }
            write!(
                json_sweep,
                "\n    {{\"name\": \"{}\", \"points\": [\n      {}\n    ]}}",
                app.name,
                points.join(",\n      ")
            )
            .unwrap();
        }
        json_sweep =
            format!(",\n  \"size_sweep_threads\": 1,\n  \"size_sweep\": [{json_sweep}\n  ]");
    }

    let json = format!(
        "{{\n  \"benchmark\": \"executor throughput (fast strip engine vs reference interpreter)\",\n  \"scale_divisor\": {scale},\n  \"threads\": {threads},\n  \"apps\": [{json_apps}\n  ]{json_sweep}\n}}\n"
    );
    std::fs::write(path, json).expect("write BENCH_exec.json");
    println!("\nwrote {path}");
}

#[cfg(test)]
mod tests {
    use super::parse_previous;

    #[test]
    fn current_schema_round_trips() {
        let text = r#"{"scale_divisor": 4, "apps": [
            {"name": "Unsharp", "schedules": {"optimized": {"fast_mpix_s": 123.5}}},
            {"name": "Night", "schedules": {"optimized": {"fast_mpix_s": 88.25}}}
        ]}"#;
        let (prev, notes) = parse_previous(text, 4);
        assert!(notes.is_empty(), "unexpected notes: {notes:?}");
        assert_eq!(
            prev,
            vec![("Unsharp".to_string(), 123.5), ("Night".to_string(), 88.25)]
        );
    }

    #[test]
    fn unparseable_text_is_noted_not_fatal() {
        let (prev, notes) = parse_previous("{not json", 1);
        assert!(prev.is_empty());
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("unparseable"), "{notes:?}");
    }

    #[test]
    fn scale_mismatch_and_missing_scale_skip_everything() {
        let text = r#"{"scale_divisor": 8, "apps": [
            {"name": "Unsharp", "schedules": {"optimized": {"fast_mpix_s": 1.0}}}
        ]}"#;
        let (prev, notes) = parse_previous(text, 4);
        assert!(prev.is_empty());
        assert!(notes[0].contains("scale divisor 8"), "{notes:?}");

        let (prev, notes) = parse_previous(r#"{"apps": []}"#, 4);
        assert!(prev.is_empty());
        assert!(notes[0].contains("scale_divisor"), "{notes:?}");
    }

    #[test]
    fn renamed_fields_skip_that_app_and_keep_the_rest() {
        // One app lost its name, one had the throughput field renamed,
        // one is intact — only the intact app carries forward, with one
        // note apiece for the drifted ones.
        let text = r#"{"scale_divisor": 1, "apps": [
            {"app_name": "Lost", "schedules": {"optimized": {"fast_mpix_s": 2.0}}},
            {"name": "Renamed", "schedules": {"optimized": {"mpix_per_s": 3.0}}},
            {"name": "Intact", "schedules": {"optimized": {"fast_mpix_s": 4.0}}}
        ]}"#;
        let (prev, notes) = parse_previous(text, 1);
        assert_eq!(prev, vec![("Intact".to_string(), 4.0)]);
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(notes[0].contains("apps[0]"), "{notes:?}");
        assert!(notes[1].contains("Renamed"), "{notes:?}");
    }

    #[test]
    fn apps_array_replaced_by_object_is_noted() {
        let (prev, notes) = parse_previous(r#"{"scale_divisor": 1, "apps": {}}"#, 1);
        assert!(prev.is_empty());
        assert!(notes[0].contains("`apps` array"), "{notes:?}");
    }
}
