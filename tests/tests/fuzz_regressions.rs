//! Checked-in fuzz regression seeds and hardening regressions.
//!
//! The differential fuzzer (`kfuse-fuzz`, driven by
//! `cargo run --release -p kfuse-bench --bin fuzz`) sweeps random seeds in
//! CI; this file pins the interesting cases so `cargo test` replays them
//! forever without the sweep. Two kinds of test live here:
//!
//! 1. **Representative seeds** — generator seeds whose pipelines exercise
//!    the features the generator is biased toward (degenerate 1×1 images,
//!    radius ≥ dimension masks, every border mode, multi-channel images,
//!    pre-fused multi-stage kernels, Figure 2 diamond topologies). Each
//!    runs the full harness: bit-identity across every execution path plus
//!    the planner invariant audit.
//! 2. **Named bug regressions** — one test per bug fixed in the hardening
//!    sweep that accompanied the fuzzer, written against public APIs so
//!    they fail on the pre-fix code.

use kfuse_fuzz::check_seed;

/// Replays a representative slice of the acceptance sweep
/// (`fuzz --seeds 1024` at start 0). The seeds are chosen so the
/// generated pipelines jointly cover the generator's feature matrix; a
/// failure here means an execution path or planner invariant regressed
/// on a shape the sweep already proved correct.
#[test]
fn sweep_representative_seeds() {
    for seed in 0..8u64 {
        check_seed(seed).unwrap_or_else(|f| panic!("seed {seed:#x} regressed: {f}"));
    }
}

/// High-entropy seeds far from the contiguous sweep range, so the pinned
/// set is not just a prefix of what CI re-checks anyway.
#[test]
fn sweep_scattered_seeds() {
    for seed in [0x9e3779b97f4a7c15u64, 0xdeadbeef, 0x0123456789abcdef] {
        check_seed(seed).unwrap_or_else(|f| panic!("seed {seed:#x} regressed: {f}"));
    }
}

/// Pins the harness's separable lane: replays the first sweep seeds whose
/// generated pipelines contain exactly-separable convolution stages, so
/// `cargo test` always exercises the factor-then-cross-check path (the
/// factored pipeline must be bit-identical across the interpreter and
/// the fast executor). The generator is biased to emit such stages;
/// this fails loudly if that bias ever rots away.
#[test]
fn sweep_separable_seeds() {
    let mut pinned = Vec::new();
    for seed in 0..200u64 {
        if pinned.len() == 4 {
            break;
        }
        let p = kfuse_fuzz::generate(seed);
        if kfuse_core::factor_pipeline(&p).1 > 0 {
            check_seed(seed).unwrap_or_else(|f| panic!("separable seed {seed:#x} regressed: {f}"));
            pinned.push(seed);
        }
    }
    assert_eq!(pinned.len(), 4, "separable bias produced only {pinned:?}");
}

/// Pins the executor's tap staging: sweep seeds whose pipelines hold a
/// kernel that reads one slot through the same transcendental at two or
/// more offsets, which the strip engine stages as a plane of its own
/// (`kfuse_sim::stage_tap_subexpressions`). Together they cover all four
/// border modes — `Constant` taps mapped through `f`, `Repeat` and
/// `Mirror` wrapping on 1-pixel-wide and 1-pixel-tall images — and the
/// harness runs each staged kernel against the unstaged reference.
#[test]
fn sweep_staged_tap_seeds() {
    for seed in [11u64, 18, 19, 40, 52, 64] {
        let p = kfuse_fuzz::generate(seed);
        let staged = p
            .kernels()
            .iter()
            .filter_map(kfuse_sim::stage_tap_subexpressions);
        assert!(staged.count() > 0, "seed {seed} drifted: nothing to stage");
        check_seed(seed).unwrap_or_else(|f| panic!("staged-tap seed {seed:#x} regressed: {f}"));
    }
}

/// Pins the harness's policy-differential lane with seeds where the
/// paper-constant and a skewed-constant planning policy pick **different
/// partitions** — the interesting case, since identical plans make the
/// lane vacuous. A policy may change which plan runs, never the pixels:
/// `check_seed` runs both policies' fused pipelines against the
/// reference interpreter bit for bit.
#[test]
fn sweep_policy_divergent_seeds() {
    use kfuse_core::{FusionConfig, PlanPolicy, StaticModelPolicy};
    use kfuse_model::{BenefitModel, GpuSpec};
    let static_policy = StaticModelPolicy::paper_default();
    // Memory barely more expensive than recompute: fusion benefits
    // shrink toward the ε-clamp and marginal fusions flip to "don't".
    let skewed = StaticModelPolicy::new(FusionConfig::new(BenefitModel::new(GpuSpec {
        t_global: 8.0,
        t_shared: 4.0,
        c_alu: 40.0,
        c_sfu: 160.0,
        ..GpuSpec::gtx680()
    })));
    let mut pinned = Vec::new();
    for seed in 0..300u64 {
        if pinned.len() == 3 {
            break;
        }
        let p = kfuse_fuzz::generate(seed);
        let s_kernels = static_policy.fuse(&p).pipeline.kernels().len();
        let m_kernels = skewed.fuse(&p).pipeline.kernels().len();
        if s_kernels != m_kernels {
            check_seed(seed).unwrap_or_else(|f| panic!("policy seed {seed:#x} regressed: {f}"));
            pinned.push(seed);
        }
    }
    assert!(
        !pinned.is_empty(),
        "no seed in 0..300 made the policies disagree — the lane is vacuous"
    );
}

/// Pins the temporal harness (`kfuse_fuzz::stream`, swept in CI via
/// `fuzz --stream N`): replays the first sweep seeds whose generated
/// streams jointly cover the temporal feature matrix — a feedback loop
/// through a marked output, an `Input`-sourced delay tap, more than one
/// state binding, and a ring at `MAX_PREV_DEPTH`. Each seed steps a
/// session under **every** fusion schedule and requires every frame to
/// match the streaming oracle bit for bit.
#[test]
fn sweep_temporal_stream_seeds() {
    use kfuse_stream::{StateSource, MAX_PREV_DEPTH};
    let mut need_input = true;
    let mut need_output = true;
    let mut need_multi = true;
    let mut need_deep = true;
    let mut pinned = Vec::new();
    for seed in 0..200u64 {
        if !(need_input || need_output || need_multi || need_deep) {
            break;
        }
        let s = kfuse_fuzz::generate_stream(seed);
        let has_input = s
            .states()
            .iter()
            .any(|b| matches!(b.source, StateSource::Input(_)));
        let has_output = s
            .states()
            .iter()
            .any(|b| matches!(b.source, StateSource::Output(_)));
        let interesting = (need_input && has_input)
            || (need_output && has_output)
            || (need_multi && s.states().len() > 1)
            || (need_deep && s.max_depth() == MAX_PREV_DEPTH);
        if !interesting {
            continue;
        }
        need_input &= !has_input;
        need_output &= !has_output;
        need_multi &= s.states().len() <= 1;
        need_deep &= s.max_depth() != MAX_PREV_DEPTH;
        kfuse_fuzz::check_stream_seed(seed)
            .unwrap_or_else(|f| panic!("stream seed {seed:#x} regressed: {f}"));
        pinned.push(seed);
    }
    assert!(
        !(need_input || need_output || need_multi || need_deep),
        "temporal generator lost coverage; pinned only {pinned:?}"
    );
}

/// Regression: `MinCutGraph::stoer_wagner` used to run maximum-adjacency
/// ordering on whatever weights it was handed; a NaN made every
/// comparison false and silently mis-ordered the search. It now reports
/// a typed error naming the bad edge.
#[test]
fn min_cut_rejects_non_finite_weights() {
    use kfuse_graph::{MinCutError, MinCutGraph};
    let mut g = MinCutGraph::new(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, f64::NAN);
    assert!(matches!(
        g.stoer_wagner(0),
        Err(MinCutError::BadWeight { u: 1, v: 2, weight }) if weight.is_nan()
    ));
}

/// Regression: the Eq. 12 clamp was `raw < ε`, which is false for NaN, so
/// a degenerate [`GpuSpec`] (`t_shared = 0` makes δ infinite; adding
/// `t_global = 0` makes the benefit 0/0 = NaN) leaked non-finite weights
/// into the min-cut graph. The clamp now pins every non-finite raw weight
/// to ε, and the planner invariant audit — which asserts every min-cut
/// weight is finite and positive — passes on such a spec.
#[test]
fn degenerate_gpu_spec_plans_cleanly() {
    use kfuse_core::FusionConfig;
    use kfuse_model::{BenefitModel, GpuSpec};
    let mut gpu = GpuSpec::gtx680();
    gpu.t_shared = 0.0;
    gpu.t_global = 0.0;
    let cfg = FusionConfig::new(BenefitModel::new(gpu));
    for seed in 0..4u64 {
        let p = kfuse_fuzz::generate(seed);
        kfuse_fuzz::check_invariants(&p, &cfg)
            .unwrap_or_else(|f| panic!("seed {seed:#x} under degenerate GPU: {f}"));
    }
}

/// Regression: `PlanCache::insert` replaced an occupied slot without
/// checking the entry's binding-layout hash, so two tenants alternating
/// structurally-identical pipelines with different image-id layouts
/// thrashed one slot invisibly — `lookup` guards on layout, `insert`
/// did not. Layout-differing replacement now bumps the eviction counter.
#[test]
fn plan_cache_counts_layout_thrash() {
    use kfuse_dsl::Schedule;
    use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel, Pipeline};
    use kfuse_runtime::{CachedPlan, PlanCache, PlanKey};
    use kfuse_sim::{CompiledPlan, FastConfig};
    use std::sync::Arc;

    let mut p = Pipeline::new("p");
    let input = p.add_input(ImageDesc::new("in", 4, 4, 1));
    let out = p.add_image(ImageDesc::new("out", 4, 4, 1));
    p.add_kernel(Kernel::simple(
        "id",
        vec![input],
        out,
        vec![BorderMode::Clamp],
        vec![Expr::load(0)],
        vec![],
    ));
    p.mark_output(out);
    let plan = Arc::new(CompiledPlan::compile(&p).unwrap());
    let layout = p.binding_fingerprint();
    let key = PlanKey {
        fingerprint: p.fingerprint(),
        schedule: Schedule::Optimized,
        exec: FastConfig::default(),
    };

    let mut cache = PlanCache::new(4);
    let entry = |layout| CachedPlan {
        layout,
        plan: Arc::clone(&plan),
    };
    cache.insert(key, entry(layout));
    cache.insert(key, entry(layout)); // idempotent: not counted
    assert_eq!(cache.evictions(), 0);
    cache.insert(key, entry(layout.wrapping_add(1))); // thrash: counted
    assert_eq!(cache.evictions(), 1);
    assert!(cache.lookup(&key, layout).is_none());
    assert!(cache.lookup(&key, layout.wrapping_add(1)).is_some());
}

/// Regression: `validate_chrome_trace` rejected counter events whose
/// `args.value` was `null` — exactly what the exporter emits for a
/// non-finite counter sample, since RFC 8259 JSON has no NaN token. The
/// validator now accepts the redaction.
#[test]
fn chrome_trace_accepts_redacted_counters() {
    use kfuse_obs::{to_chrome_json, Event, EventKind};
    let events: Vec<Event> = [f64::NAN, 1.5]
        .iter()
        .map(|&value| Event {
            name: "gauge".to_string(),
            cat: "serve",
            ts_us: 0,
            tid: 1,
            trace_id: 0,
            kind: EventKind::Counter { value },
            args: Vec::new(),
        })
        .collect();
    let json = to_chrome_json(&events);
    assert!(json.contains("\"value\":null"));
    let stats = kfuse_obs::validate_chrome_trace(&json).unwrap();
    assert_eq!(stats.counters, 2);
}

/// Regression: a pipeline that has admitted requests but recorded no
/// latencies has a NaN mean; both metric exporters must render documents
/// their own strict validators accept (`null` in JSON, `NaN` in the
/// Prometheus text format).
#[test]
fn metrics_nan_mean_exports_validate() {
    use kfuse_runtime::MetricsRegistry;
    let reg = MetricsRegistry::default();
    reg.handle("idle").record_request();
    let snap = reg.snapshot();
    assert!(snap.pipeline("idle").unwrap().mean_us.is_nan());
    kfuse_obs::parse_json(&snap.to_json()).expect("JSON export parses");
    kfuse_obs::validate_prometheus(&snap.to_prometheus()).expect("exposition validates");
}

/// The shrinker must preserve the failure predicate it is given and only
/// ever drop sink kernels, so a minimized reproducer from a sweep is
/// still a valid pipeline exhibiting the original failure.
#[test]
fn shrink_preserves_predicate_and_validity() {
    let p = kfuse_fuzz::generate(7);
    // An always-failing predicate: shrink must drive the pipeline down to
    // a single kernel, and the result must still validate.
    let shrunk = kfuse_fuzz::shrink(&p, |q| !q.kernels().is_empty());
    assert_eq!(shrunk.kernels().len(), 1);
    assert!(shrunk.validate().is_ok());
    // A predicate needing two kernels: shrink stops as soon as dropping
    // another sink would lose the failure.
    let two = kfuse_fuzz::shrink(&p, |q| q.kernels().len() >= 2);
    assert!(p.kernels().len() < 2 || two.kernels().len() == 2);
}

/// Pins the wire protocol's trace field: for each frame type that has one
/// (`Submit`, `ResultOk`, `Error`, `SubmitFrame`) the first sweep seed
/// generating presence byte 1 (a context follows) and presence byte 0.
/// Each seed replays the full wire harness — encode → decode → re-encode
/// bit-identity plus single-byte-flip no-panic probes. Fails loudly if the
/// generator's variant coverage ever drifts off these seeds.
#[test]
fn wire_trace_context_revision_seeds() {
    use kfuse_fuzz::wire::{check_wire_seed, generate_frame};

    // (seed, type_byte, traced)
    let pinned: [(u64, u8, bool); 8] = [
        (6, 3, true),    // Submit with trace context
        (41, 3, false),  // Submit without
        (16, 4, true),   // ResultOk with
        (2, 4, false),   // ResultOk without
        (28, 5, true),   // Error with
        (25, 5, false),  // Error without
        (1, 12, true),   // SubmitFrame with
        (63, 12, false), // SubmitFrame without
    ];
    for (seed, type_byte, traced) in pinned {
        let frame = generate_frame(seed);
        assert_eq!(frame.type_byte(), type_byte, "seed {seed} drifted");
        assert_eq!(frame.trace().is_some(), traced, "seed {seed} drifted");
        check_wire_seed(seed).unwrap();
    }
}
