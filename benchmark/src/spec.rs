//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root is
//! `manifest()` written to a file (a unit test holds the two together), and
//! the result line of a run carries exactly these names.

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// Every workload reports every end-to-end metric (tracing off). Times
/// are scaled to the reference clock (`clock.rs`), which takes the host's
/// turbo bins out of them, and taken from the quietest tenth of the run
/// (`load.rs`); what is left is an episode of loud neighbours that outlasts
/// a run, which moves every absolute time by ±10 % (AA.md), while a ratio
/// taken inside one run cancels it.
pub const END_TO_END: [Metric; 5] = [
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_p50_us", "us", "lower", 0.25),
    e2e("fusion_speedup", "ratio", "higher", 0.15),
    e2e("peak_rss_mb", "MiB", "lower", 0.20),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Every workload reports every per-layer metric (the traced run). A
/// layer the workload's op does not enter still has its probe run on the
/// workload's inputs; only its `share.*` is 0.
pub const PER_LAYER: [Metric; 38] = [
    layer("host.memcpy_gb_s", "GB/s", "higher"),
    layer("host.f32_gflop_s", "GFLOP/s", "higher"),
    layer("ir.fingerprint_us", "us", "lower"),
    layer("core.fuse_us", "us", "lower"),
    layer("core.fused_kernel_ratio", "ratio", "lower"),
    layer("sim.lower_us", "us", "lower"),
    layer("sim.exec_us", "us", "lower"),
    layer("sim.exec_baseline_us", "us", "lower"),
    layer("sim.mt2_scaling", "ratio", "higher"),
    layer("sim.roofline_frac", "ratio", "higher"),
    layer("runtime.execute_us", "us", "lower"),
    layer("runtime.execute_cold_us", "us", "lower"),
    layer("runtime.overhead_us", "us", "lower"),
    layer("runtime.cold_overhead_us", "us", "lower"),
    layer("runtime.cache_hit_ratio", "ratio", "higher"),
    layer("runtime.evictions_per_op", "count", "lower"),
    layer("net.rtt_us", "us", "lower"),
    layer("net.ping_us", "us", "lower"),
    layer("net.copy_rtt_us.64", "us", "lower"),
    layer("net.copy_rtt_us.512", "us", "lower"),
    layer("net.per_mib_us", "us", "lower"),
    layer("net.overhead_us", "us", "lower"),
    layer("net.bytes_per_op", "count", "lower"),
    layer("net.frame_rtt_us", "us", "lower"),
    layer("net.bytes_per_frame", "count", "lower"),
    layer("stream.step_us", "us", "lower"),
    layer("stream.overhead_us", "us", "lower"),
    layer("obs.recorder_overhead_pct", "%", "lower"),
    layer("share.ir", "ratio", "lower"),
    layer("share.core", "ratio", "lower"),
    layer("share.sim", "ratio", "higher"),
    layer("share.runtime", "ratio", "lower"),
    layer("share.net", "ratio", "lower"),
    layer("share.stream", "ratio", "lower"),
    layer("share.unattributed", "ratio", "lower"),
    layer("trace.op_p50_us", "us", "lower"),
    layer("trace.op_tail_us", "us", "lower"),
    layer("trace_overhead_pct", "%", "lower"),
];

/// Why each workload is here, in one line (README.md has the long form).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "exec_large",
        "the paper's experiment: six apps at 2048x2048 on one thread, 16 MiB planes, 4x one core's L2, executor is >95% of the op",
    ),
    (
        "serve_small",
        "per-message cost: two TCP connections call six 64x64 apps, plan-cache hit every time, executor is the minority share",
    ),
    (
        "plan_cold",
        "per-plan cost: 2048 random pipelines against a 32-entry plan cache, every request a miss, planner and lowering dominate",
    ),
    (
        "stream_tcp",
        "per-byte cost: session frames at 512x512 over TCP, 1 MiB each way, the only path through the state rings",
    ),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&command),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_limits_fit_the_contract() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(m.better == "higher" || m.better == "lower");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
