//! Robustness of the planner on degenerate and adversarial pipeline
//! shapes: the recursive algorithm must terminate with a valid partition
//! on disconnected graphs, wide fan-outs, deep chains, multi-output
//! pipelines and single-kernel programs.

use kfuse_core::{fuse_basic, fuse_optimized, FusionConfig};
use kfuse_dsl::{c, v, Mask, PipelineBuilder};
use kfuse_graph::NodeId;
use kfuse_ir::{BorderMode, Pipeline};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_paper::fuse_greedy;
use kfuse_sim::{execute, synthetic_image};

fn cfg() -> FusionConfig {
    FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()))
}

fn assert_valid_and_exact(p: &Pipeline) {
    let config = cfg();
    let universe: Vec<NodeId> = (0..p.kernels().len()).map(NodeId).collect();
    let inputs: Vec<_> = p
        .inputs()
        .iter()
        .map(|&id| (id, synthetic_image(p.image(id).clone(), 17)))
        .collect();
    let reference = execute(p, &inputs).unwrap();
    for result in [
        fuse_optimized(p, &config),
        fuse_basic(p, &config),
        fuse_greedy(p, &config),
    ] {
        assert!(result.plan.partition.is_valid_partition_of(&universe));
        assert!(result.pipeline.validate().is_ok());
        let exec = execute(&result.pipeline, &inputs).unwrap();
        for &out in p.outputs() {
            assert!(reference
                .expect_image(out)
                .bit_equal(exec.expect_image(out)));
        }
    }
}

/// Two completely independent chains in one pipeline (disconnected DAG):
/// the component split inside Algorithm 1 must handle it.
#[test]
fn disconnected_graphs() {
    let mut b = PipelineBuilder::new("two-chains", 16, 16);
    let in1 = b.gray_input("in1");
    let in2 = b.gray_input("in2");
    let a1 = b.point("a1", &[in1], vec![v(0) + c(1.0)]);
    let a2 = b.point("a2", &[a1], vec![v(0) * c(2.0)]);
    let b1 = b.point("b1", &[in2], vec![v(0) - c(3.0)]);
    let b2 = b.point("b2", &[b1], vec![v(0) * c(0.5)]);
    b.output(a2);
    b.output(b2);
    let p = b.build();
    assert_valid_and_exact(&p);
    // Each chain fuses independently into one kernel.
    let fused = fuse_optimized(&p, &cfg());
    assert_eq!(fused.pipeline.kernels().len(), 2);
}

/// A 1 → 8 fan-out: every edge is pairwise illegal (external output), no
/// block larger than the whole graph is legal, and the whole graph has
/// eight destinations — everything stays unfused but valid.
#[test]
fn wide_fanout() {
    let mut b = PipelineBuilder::new("fan", 16, 16);
    let input = b.gray_input("in");
    let hub = b.point("hub", &[input], vec![v(0) + c(1.0)]);
    for i in 0..8 {
        let o = b.point(format!("leaf{i}"), &[hub], vec![v(0) * c(i as f32 + 1.0)]);
        b.output(o);
    }
    let p = b.build();
    assert_valid_and_exact(&p);
    let fused = fuse_optimized(&p, &cfg());
    assert_eq!(fused.pipeline.kernels().len(), 9, "nothing can fuse");
}

/// A 24-kernel point chain fuses into a single kernel regardless of depth.
#[test]
fn deep_chain() {
    let mut b = PipelineBuilder::new("deep", 16, 16);
    let mut prev = b.gray_input("in");
    for i in 0..24 {
        prev = b.point(format!("k{i}"), &[prev], vec![v(0) + c(1.0)]);
    }
    b.output(prev);
    let p = b.build();
    assert_valid_and_exact(&p);
    let fused = fuse_optimized(&p, &cfg());
    assert_eq!(fused.pipeline.kernels().len(), 1);
    assert_eq!(fused.pipeline.kernels()[0].stages.len(), 24);
}

/// Single-kernel pipelines pass through unchanged.
#[test]
fn single_kernel() {
    let mut b = PipelineBuilder::new("one", 16, 16);
    let input = b.gray_input("in");
    let out = b.convolve("g", input, &Mask::gaussian3(), BorderMode::Mirror);
    b.output(out);
    let p = b.build();
    assert_valid_and_exact(&p);
    let fused = fuse_optimized(&p, &cfg());
    assert_eq!(fused.pipeline.kernels().len(), 1);
    assert!(fused.pipeline.kernels()[0].is_simple());
}

/// A deep local chain: resource limits force the planner to split it even
/// though every pair is legal, and the result must still be exact.
#[test]
fn deep_local_chain_respects_resources() {
    let mut b = PipelineBuilder::new("deep-local", 24, 24);
    let mut prev = b.gray_input("in");
    for i in 0..6 {
        prev = b.convolve(format!("g{i}"), prev, &Mask::box3(), BorderMode::Clamp);
    }
    b.output(prev);
    let p = b.build();
    assert_valid_and_exact(&p);
    let fused = fuse_optimized(&p, &cfg());
    // The Eq. 2 threshold caps how many 3×3 stages stack into one kernel.
    assert!(
        fused.pipeline.kernels().len() >= 2,
        "six stacked locals must not fuse into one under c_Mshared = 3, got {}",
        fused.pipeline.kernels().len()
    );
}

/// Mixed-size pipelines never fuse across header-incompatible kernels.
#[test]
fn header_incompatible_sizes_never_fuse() {
    // Build manually: two sizes in one pipeline (no cross edges — cross
    // edges with different sizes are rejected at validation).
    use kfuse_ir::{Expr, ImageDesc, Kernel};
    let mut p = Pipeline::new("mixed");
    let in_a = p.add_input(ImageDesc::new("inA", 16, 16, 1));
    let mid_a = p.add_image(ImageDesc::new("midA", 16, 16, 1));
    let out_a = p.add_image(ImageDesc::new("outA", 16, 16, 1));
    let in_b = p.add_input(ImageDesc::new("inB", 8, 8, 1));
    let out_b = p.add_image(ImageDesc::new("outB", 8, 8, 1));
    p.add_kernel(Kernel::simple(
        "a1",
        vec![in_a],
        mid_a,
        vec![BorderMode::Clamp],
        vec![Expr::load(0) + Expr::Const(1.0)],
        vec![],
    ));
    p.add_kernel(Kernel::simple(
        "a2",
        vec![mid_a],
        out_a,
        vec![BorderMode::Clamp],
        vec![Expr::load(0) * Expr::Const(2.0)],
        vec![],
    ));
    p.add_kernel(Kernel::simple(
        "b1",
        vec![in_b],
        out_b,
        vec![BorderMode::Clamp],
        vec![Expr::load(0) - Expr::Const(1.0)],
        vec![],
    ));
    p.mark_output(out_a);
    p.mark_output(out_b);
    p.validate().unwrap();
    assert_valid_and_exact(&p);
    let fused = fuse_optimized(&p, &cfg());
    // a1+a2 fuse; b1 stays alone.
    assert_eq!(fused.pipeline.kernels().len(), 2);
}
