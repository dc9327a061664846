//! End-to-end observability integration: planner explainability, traced
//! execution, and runtime exporters, checked across all six paper apps.
//!
//! Three invariants hold the subsystem together:
//!
//! 1. the [`PlanTrace`] is a *faithful* account — its blocks are exactly
//!    the planner's partition and its fused-edge markings agree with it;
//! 2. tracing is observation, not perturbation — traced runs are
//!    bit-identical to untraced and reference runs;
//! 3. every hand-rolled exporter (Chrome trace JSON, metrics JSON,
//!    Prometheus exposition) round-trips the std-only validators that CI
//!    uses.

use kfuse_core::{plan_optimized, PlanTrace};
use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_model::GpuSpec;
use kfuse_obs::{
    parse_json, render_json, render_prometheus, validate_chrome_trace, validate_prometheus,
    ArgValue, EventKind, Tracer,
};
use kfuse_runtime::{Runtime, RuntimeConfig};
use kfuse_sim::{
    execute_reference, modeled_traffic, synthetic_image, CompiledKernel, CompiledPlan, Scratch,
    TileConfig,
};

fn inputs_for(p: &Pipeline, seed: u64) -> Vec<(ImageId, Image)> {
    p.inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
        .collect()
}

#[test]
fn plan_trace_is_consistent_for_all_apps() {
    let cfg = kfuse_dsl::default_config(GpuSpec::gtx680());
    for app in kfuse_apps::paper_apps() {
        let p = (app.build_paper)();
        let plan = plan_optimized(&p, &cfg);
        let trace = PlanTrace::from_plan(&p, &plan, &cfg);

        // Blocks partition the kernel set exactly.
        let mut names: Vec<String> = trace.blocks.iter().flatten().cloned().collect();
        names.sort();
        let mut expected: Vec<String> = p.kernels().iter().map(|k| k.name.clone()).collect();
        expected.sort();
        assert_eq!(names, expected, "{}: blocks must cover kernels", app.name);

        // Fused markings agree with block membership. (A *pairwise*
        // verdict does not forbid fusion: a fan-out edge is pairwise
        // illegal yet fuses when the whole block passes the block-level
        // legality check, e.g. Unsharp's shared-input diamond.)
        for e in &trace.edges {
            let same_block = trace
                .blocks
                .iter()
                .any(|b| b.contains(&e.src) && b.contains(&e.dst));
            assert_eq!(e.fused, same_block, "{}: {} -> {}", app.name, e.src, e.dst);
        }

        // Both renderers produce complete documents.
        let text = trace.render_text();
        for needle in [
            "edge weights (Eqs. 3-12):",
            "min-cut recursion (Algorithm 1):",
            "final partition:",
        ] {
            assert!(text.contains(needle), "{}: missing '{needle}'", app.name);
        }
        let dot = trace.to_dot();
        assert!(dot.starts_with("digraph fusion {") && dot.trim_end().ends_with('}'));
    }
}

#[test]
fn traced_execution_is_bit_identical_for_all_apps() {
    let fusion = kfuse_dsl::default_config(GpuSpec::gtx680());
    let cfg = TileConfig::default();
    for app in kfuse_apps::paper_apps() {
        let p = (app.build_sized)(48, 36);
        let inputs = inputs_for(&p, 11);
        let out = p.outputs()[0];
        let reference = execute_reference(&p, &inputs).unwrap();

        let fused = kfuse_dsl::compile(&p, Schedule::Optimized, &fusion);
        let plan = CompiledPlan::compile(&fused).unwrap();
        let tracer = Tracer::enabled();
        let traced = plan
            .run(inputs.clone(), &cfg, &mut Scratch::default(), &tracer)
            .unwrap();
        let untraced = plan.execute(&inputs, &cfg).unwrap();

        assert!(
            traced
                .expect_image(out)
                .bit_equal(reference.expect_image(out)),
            "{}: traced differs from reference",
            app.name
        );
        assert!(
            traced
                .expect_image(out)
                .bit_equal(untraced.expect_image(out)),
            "{}: traced differs from untraced",
            app.name
        );
        // One kernel span per executed (fused) kernel, each with modeled
        // traffic attached.
        let events = tracer.events();
        let kernel_spans: Vec<_> = events
            .iter()
            .filter(|e| e.name.starts_with("kernel:"))
            .collect();
        assert_eq!(kernel_spans.len(), fused.kernels().len(), "{}", app.name);
        for s in kernel_spans {
            assert!(matches!(s.kind, EventKind::Complete { .. }));
            assert!(
                s.args.iter().any(|(k, _)| *k == "global_load_bytes"),
                "{}: kernel span missing traffic args",
                app.name
            );
        }
    }
}

/// Telemetry describes the kernel that ran. Enhance's `gmean` runs with
/// its nine per-tap `ln(in + 1)` staged as one plane, so at 2048² on one
/// thread its strips are 64 rows — the plane's 8 KiB rows into the
/// 512 KiB strip budget — and its modeled traffic and span arguments are
/// those of the staged kernel, checked here by hand.
#[test]
fn staged_gmean_telemetry_by_hand() {
    let cfg = TileConfig {
        strip_rows: None,
        threads: Some(1),
    };
    let gamma = kfuse_apps::enhance::DEFAULT_GAMMA;
    let p = kfuse_apps::enhance(2048, 2048, gamma);
    let gmean = &p.kernels()[0];
    let ck = CompiledKernel::new(gmean);
    assert_eq!(ck.strip_rows(2048, 2048, &cfg), 64);
    let t = modeled_traffic(&p, gmean, &ck, &cfg);
    let (px, row) = (2048 * 2048 * 4, 2048 * 4);
    // 32 strips, each plane grown by the window's one-row halo and
    // clipped at the image: 65 + 30 · 66 + 65 = 2110 rows, 62 of them halo.
    assert_eq!(t.plane_write_bytes, 2110 * row);
    assert_eq!(t.halo_extra_bytes, 62 * row);
    // The staged `ln` reads the input once per plane cell; the window
    // reads the plane at nine taps per pixel and nothing else.
    assert_eq!(t.global_load_bytes, 2110 * row);
    assert_eq!(t.plane_read_bytes, 9 * px);
    assert_eq!(t.global_store_bytes, px);

    let small = kfuse_apps::enhance(48, 36, gamma);
    let tracer = Tracer::enabled();
    CompiledPlan::compile(&small)
        .unwrap()
        .run(
            inputs_for(&small, 3),
            &cfg,
            &mut Scratch::default(),
            &tracer,
        )
        .unwrap();
    let events = tracer.events();
    let span = events.iter().find(|e| e.name == "kernel:gmean").unwrap();
    let arg = |name| match span.args.iter().find(|(k, _)| *k == name) {
        Some((_, ArgValue::U64(v))) => *v,
        other => panic!("{name}: {other:?}"),
    };
    // Per pixel, the staged `ln(in + 1)`: one add, one `ln`; the window:
    // eight adds, a multiply, an `exp` and a subtract. Unstaged it was
    // nineteen ALU and ten SFU operations in one stage.
    let pixels = 48 * 36;
    assert_eq!(arg("stages"), 2);
    assert_eq!(arg("alu_ops"), 11 * pixels);
    assert_eq!(arg("sfu_ops"), 2 * pixels);
}

#[test]
fn runtime_exporters_round_trip_validators() {
    let tracer = Tracer::enabled();
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        tracer: tracer.clone(),
        ..RuntimeConfig::default()
    });
    let requests = 2;
    let mut served = 0;
    for app in kfuse_apps::paper_apps().into_iter().take(3) {
        let p = (app.build_sized)(48, 36);
        let inputs = inputs_for(&p, 5);
        for _ in 0..requests {
            rt.execute(app.name, &p, inputs.clone(), Schedule::Optimized)
                .unwrap();
            served += 1;
        }
    }

    let stats = validate_chrome_trace(&tracer.to_chrome_json()).unwrap();
    assert!(stats.spans_with_prefix("kernel:") >= served);
    for name in ["queue_wait", "plan", "execute"] {
        assert_eq!(
            stats.span_names.iter().filter(|s| *s == name).count(),
            served,
            "span {name}"
        );
    }

    let snap = rt.metrics();
    assert_eq!(snap.runtime.cache_size, 3);
    let families = snap.families();
    parse_json(&render_json(&families)).unwrap();
    assert!(validate_prometheus(&render_prometheus(&families)).unwrap() > 0);
}
