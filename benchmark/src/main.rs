//! The kfuse benchmark: one workload per process, end-to-end metrics with
//! tracing off (`--trace 0`), the per-layer ledger in a separate traced
//! run (`--trace 1`). See README.md and `BENCHMARK.json`.

mod api;
mod clock;
mod host;
mod ledger;
mod load;
mod spec;
mod stats;
mod trace;
mod workloads;

use load::{drive, summarize, Log, Summary, OPT};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Inputs, Prepared, Workload};

const USAGE: &str =
    "usage: kfuse-benchmark [run|layers|manifest] --workload <exec_large|serve_small|\
plan_cold|stream_tcp> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  run      (= --trace 0) end-to-end metrics, tracing off
  layers   (= --trace 1) per-layer metrics; writes benchmark/out/trace-<workload>.json
  manifest print the text of BENCHMARK.json
  --smoke  small inputs and a 1 s budget, for check.sh";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut args: Vec<String>) -> Result<Args, String> {
    let mut trace = false;
    if let Some(mode) = args.first().filter(|a| !a.starts_with("--")).cloned() {
        trace = match mode.as_str() {
            "run" => false,
            "layers" => true,
            other => return Err(format!("unknown mode {other:?}")),
        };
        args.remove(0);
    }
    let (mut workload, mut seed, mut seconds, mut smoke) =
        (None, 1, spec::RUN_SECONDS as f64, false);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: if smoke { seconds.min(1.0) } else { seconds },
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("manifest") {
        print!("{}", spec::manifest());
        return ExitCode::SUCCESS;
    }
    let outcome = parse_args(args).and_then(|a| if a.trace { layers(&a) } else { run(&a) });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // The result line was printed with "correct": false.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Prints what a reader wants beside the result line: sample counts, the
/// percentile in use, and each class on its own row.
fn print_summary(inputs: &Inputs, prep: &Prepared, s: &Summary) {
    println!(
        "ops: {} attempted, {} errors, {} optimized samples; pooled p{:.0} {:.1} us",
        s.attempted,
        s.errors,
        s.opt_samples,
        s.tail_q * 100.0,
        s.op_tail_us
    );
    println!(
        "clock: median {:.2} GHz ({:.2} to {:.2}); every time below is scaled to {} GHz, \
         and a p50 is the lower decile of the medians of the slice's 1 s blocks",
        s.clock_ghz[0],
        s.clock_ghz[1],
        s.clock_ghz[2],
        clock::REF_GHZ
    );
    for (class, c) in s.classes.iter().enumerate() {
        let mut row = format!(
            "  {:<20} optimized p50 {:>12.1} us  baseline p50 {:>12.1} us  speedup {:>6.3}  n={}",
            prep.class_names[class], c.opt_p50_us, c.base_p50_us, c.speedup, c.opt_samples
        );
        if prep.class_names.len() == inputs.ledger_items().len() {
            let mpix = api::output_pixels(&inputs.ledger_items()[class].pipeline) as f64 / 1e6;
            row += &format!("  {:>8.2} Mpix/s", mpix / (c.opt_p50_us * 1e-6));
        }
        println!("{row}");
    }
}

/// The last line of standard output: one JSON object.
fn print_result(
    attempted: u64,
    failed: u64,
    table: &[spec::Metric],
    values: &BTreeMap<&str, f64>,
) -> Result<bool, String> {
    let mut fields = Vec::new();
    for m in table {
        let v = values
            .get(m.name)
            .ok_or(format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    if values.len() != table.len() {
        return Err("a metric was measured that BENCHMARK.json does not name".into());
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(correct)
}

/// `--trace 0`: set up (three times, for a steady `setup_s`), drive the
/// closed loop for `--seconds`, verify, report the end-to-end metrics.
/// Every time reported is scaled to the reference clock.
fn run(args: &Args) -> Result<bool, String> {
    let t = Instant::now();
    let inputs = Inputs::build(args.workload, args.seed, args.smoke)?;
    let oracle_s = t.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut prep: Option<Prepared> = None;
    for _ in 0..SETUPS {
        // Tearing the previous set-up down is not part of the next one.
        if let Some(old) = prep.take() {
            if old.finish()? > 0 {
                return Err("a warm-up output was wrong".into());
            }
        }
        let (ready, seconds) = clock::scaled_seconds(|| inputs.prepare());
        prep = Some(ready?);
        setups.push(seconds);
    }
    let mut prep = prep.expect("SETUPS is at least one");
    println!(
        "workload {} seed {} seconds {} inputs+oracle {oracle_s:.3} s, setups {setups:.3?} s",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    let logs = drive(
        &mut prep.callers,
        prep.reps,
        Duration::from_secs_f64(args.seconds),
        None,
    );
    let s = summarize(&logs, prep.class_names.len(), prep.tail_cap)?;
    print_summary(&inputs, &prep, &s);
    if let Some(e) = &s.first_error {
        println!("first error: {e}");
    }
    let mismatched = prep.finish()?;
    println!("outputs: {mismatched} wrong");
    let values = BTreeMap::from([
        ("ops_per_s", s.ops_per_s),
        ("op_p50_us", s.op_p50_us),
        ("fusion_speedup", s.fusion_speedup),
        ("peak_rss_mb", host::peak_rss_mib()?),
        ("setup_s", stats::median(&setups)),
    ]);
    print_result(
        s.attempted,
        s.errors + mismatched,
        &spec::END_TO_END,
        &values,
    )
}

/// Each ledger item's median optimized latency over the given slices.
fn e2e_by_item(logs: &[&Log], items: usize) -> Result<Vec<f64>, String> {
    (0..items as u32)
        .map(|item| {
            let us: Vec<f64> = logs
                .iter()
                .flat_map(|l| &l.samples)
                .filter(|s| s.item == item && s.sched as usize == OPT)
                .map(|s| s.us)
                .collect();
            if us.is_empty() {
                return Err(format!(
                    "ledger item {item} was never reached; --seconds is too short"
                ));
            }
            Ok(stats::median(&us))
        })
        .collect()
}

/// `--trace 1`: the same closed loop untraced then traced (their ratio is
/// the tracing overhead), then the ledger's probes of every layer.
fn layers(args: &Args) -> Result<bool, String> {
    let inputs = Inputs::build(args.workload, args.seed, args.smoke)?;
    let mut prep = inputs.prepare()?;
    let classes = prep.class_names.len();
    let mut trace = trace::Trace::new();
    let memcpy_gb_s = host::memcpy_gb_s();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("host.memcpy_gb_s", memcpy_gb_s),
        ("host.f32_gflop_s", host::f32_gflop_s()),
    ]);
    println!(
        "host: memcpy over {} MiB arrays (LLC {} MiB), {} cores",
        host::memcpy_array_bytes() >> 20,
        host::llc_bytes().map_or(0, |b| b >> 20),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let slice = Duration::from_secs_f64(args.seconds / 4.0);
    let untraced_logs = drive(&mut prep.callers, prep.reps, slice, None);
    let untraced = summarize(&untraced_logs, classes, prep.tail_cap)?;
    let before = prep.cache_stats();
    let span = trace.open("e2e", None);
    let mut traced_logs = drive(&mut prep.callers, prep.reps, slice, Some(trace.epoch()));
    trace.close(span);
    let after = prep.cache_stats();
    let traced = summarize(&traced_logs, classes, prep.tail_cap)?;
    print_summary(&inputs, &prep, &traced);
    for log in &mut traced_logs {
        for mut s in log.spans.drain(..) {
            s.parent = Some(span);
            trace.push(s);
        }
    }
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    values.insert(
        "runtime.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            (after.hits - before.hits) as f64 / lookups as f64
        },
    );
    values.insert(
        "runtime.evictions_per_op",
        (after.evictions - before.evictions) as f64 / traced.attempted as f64,
    );
    values.insert("trace.op_p50_us", traced.op_p50_us);
    values.insert("trace.op_tail_us", traced.op_tail_us);
    values.insert(
        "trace_overhead_pct",
        100.0 * (untraced.ops_per_s / traced.ops_per_s - 1.0),
    );

    let all_logs: Vec<&Log> = untraced_logs.iter().chain(&traced_logs).collect();
    let e2e_us = e2e_by_item(&all_logs, inputs.ledger_items().len())?;
    values.extend(ledger::run(
        args.workload,
        &inputs,
        &e2e_us,
        memcpy_gb_s,
        Duration::from_secs_f64(args.seconds / 2.0),
        args.seed,
        &mut trace,
    )?);

    let mismatched = prep.finish()?;
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload.name()));
    std::fs::write(&path, trace.to_json(args.workload.name(), args.seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace: {} spans in {}", trace.len(), path.display());
    for m in &spec::PER_LAYER {
        if let Some(v) = values.get(m.name) {
            println!("  {:<28} {v:>14.4} {}", m.name, m.unit);
        }
    }
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.errors + traced.errors + mismatched;
    print_result(attempted, failed, &spec::PER_LAYER, &values)
}
