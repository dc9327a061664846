//! What a plan-cache miss may and may not do to the IR it is given.
//!
//! * Stage bodies are shared, never copied: every pass that leaves a stage
//!   unchanged hands on the same `Arc<[Expr]>` it was given. A deep copy
//!   would still compute the same thing, so only pointer identity catches
//!   one coming back.
//! * Lowering is a function of the stage alone. Its CSE map is keyed by a
//!   fresh `RandomState` per compile, which is only sound because CSE
//!   looks keys up and never iterates the map.

use kfuse_apps::{paper_apps, temporal_apps};
use kfuse_core::{apply_partition, check_block, plan_optimized, synthesize, FusionConfig};
use kfuse_dsl::{compile, Schedule};
use kfuse_fuzz::gen::{generate_with, GenConfig};
use kfuse_ir::{Kernel, KernelId, Pipeline, Stage};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_sim::{compile_stage, stage_tap_subexpressions, CompiledPlan};
use std::sync::Arc;

fn cfg() -> FusionConfig {
    FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()))
}

/// The nine apps (six paper apps, three temporal frame pipelines) at 48×32.
fn apps() -> Vec<(&'static str, Pipeline)> {
    let paper = paper_apps()
        .into_iter()
        .map(|a| (a.name, (a.build_sized)(48, 32)));
    let temporal = temporal_apps()
        .into_iter()
        .map(|a| (a.name, (a.build_sized)(48, 32).frame().clone()));
    paper.chain(temporal).collect()
}

/// Asserts that `got`'s stages have the very bodies of `want`'s, in order.
fn assert_same_bodies<'a>(
    what: &str,
    want: impl IntoIterator<Item = &'a Stage>,
    got: impl IntoIterator<Item = &'a Stage>,
) {
    let (want, got): (Vec<_>, Vec<_>) = (want.into_iter().collect(), got.into_iter().collect());
    assert_eq!(want.len(), got.len(), "{what}: stage count");
    for (w, g) in want.iter().zip(&got) {
        assert!(
            Arc::ptr_eq(&w.body, &g.body),
            "{what}: stage {} has a copied body",
            g.name
        );
    }
}

fn stages(p: &Pipeline) -> impl Iterator<Item = &Stage> {
    p.kernels().iter().flat_map(|k| &k.stages)
}

#[test]
fn a_plan_miss_shares_every_unchanged_stage_body() {
    let (mut singletons, mut fused) = (0, 0);
    for (name, p) in apps() {
        assert_same_bodies(
            &format!("{name}: Pipeline::clone"),
            stages(&p),
            stages(&p.clone()),
        );
        let baseline = compile(&p, Schedule::Baseline, &cfg());
        assert_same_bodies(
            &format!("{name}: Schedule::Baseline"),
            stages(&p),
            stages(&baseline),
        );
        let plan = CompiledPlan::compile(&p).expect("app compiles");
        assert_same_bodies(
            &format!("{name}: CompiledPlan::pipeline"),
            stages(&p),
            stages(plan.pipeline()),
        );

        let partition = plan_optimized(&p, &cfg()).partition;
        let out = apply_partition(&p, &partition, true);
        for block in partition.blocks() {
            let members: Vec<KernelId> = block.members().iter().map(|m| KernelId(m.0)).collect();
            if let [k] = members[..] {
                let src = p.kernel(k);
                let kept: &Kernel = (out.kernels().iter())
                    .find(|q| q.output == src.output)
                    .expect("a singleton block keeps its kernel");
                assert_same_bodies(
                    &format!("{name}: apply_partition singleton {}", src.name),
                    &src.stages,
                    &kept.stages,
                );
                singletons += 1;
            } else {
                let info = check_block(&p, &members).expect("plan blocks are legal");
                let k = synthesize(&p, &info, true);
                let sources = info.topo.iter().flat_map(|&m| &p.kernel(m).stages);
                assert_same_bodies(
                    &format!("{name}: synthesize {}", k.name),
                    sources,
                    &k.stages,
                );
                fused += 1;
            }
        }
        assert_eq!(partition.len(), out.kernels().len());
    }
    assert!(
        singletons > 0 && fused > 0,
        "{singletons} singletons, {fused} fused blocks"
    );
}

/// Lowers every stage `CompiledKernel::new` would lower for `k` twice and
/// compares the tapes field by field (`Tape` has no `PartialEq`).
fn assert_lowering_repeats(what: &str, k: &Kernel) {
    let staged = stage_tap_subexpressions(k);
    let k = staged.as_ref().unwrap_or(k);
    for s in &k.stages {
        let (a, b) = (compile_stage(s), compile_stage(s));
        let at = format!("{what}: kernel {} stage {}", k.name, s.name);
        assert_eq!(a.instrs, b.instrs, "{at}: instrs");
        assert_eq!(a.const_len, b.const_len, "{at}: const_len");
        assert_eq!(a.roots, b.roots, "{at}: roots");
        assert_eq!(a.loads, b.loads, "{at}: loads");
        assert_eq!(a.slots, b.slots, "{at}: slots");
        assert_eq!(a.n_slots, b.n_slots, "{at}: n_slots");
    }
}

#[test]
fn lowering_does_not_depend_on_the_hash_seed() {
    let generated = (0..64).map(|seed| (seed, generate_with(seed, &GenConfig::default())));
    let pipelines = apps()
        .into_iter()
        .map(|(name, p)| (name.to_string(), p))
        .chain(generated.map(|(seed, p)| (format!("generated {seed}"), p)));
    for (name, p) in pipelines {
        let fused = compile(&p, Schedule::Optimized, &cfg());
        for k in p.kernels().iter().chain(fused.kernels()) {
            assert_lowering_repeats(&name, k);
        }
    }
}
