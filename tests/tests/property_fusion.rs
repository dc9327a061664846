//! Property-based validation of the fusion pass on randomly generated
//! pipelines: arbitrary DAGs of point and local kernels with arbitrary
//! border modes must survive both fusion passes bit-exactly, and the
//! planner's partitions must satisfy the structural constraints of the
//! paper's problem statement (Section II-A).
//!
//! The random DAGs are driven by a deterministic [`SplitMix64`] stream, so
//! every run exercises the same pipelines without any external dependency.

use kfuse_core::{fuse_basic, fuse_optimized, FusionConfig};
use kfuse_dsl::Mask;
use kfuse_graph::NodeId;
use kfuse_integration_tests::SplitMix64;
use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel, Pipeline};
use kfuse_model::{BenefitModel, GpuSpec};
use kfuse_sim::{execute, synthetic_image};

#[derive(Clone, Debug)]
struct KernelSpec {
    op: u8,
    border: u8,
    src1: usize,
    src2: Option<usize>,
}

fn border(code: u8) -> BorderMode {
    match code % 4 {
        0 => BorderMode::Clamp,
        1 => BorderMode::Mirror,
        2 => BorderMode::Repeat,
        _ => BorderMode::Constant(3.5),
    }
}

/// Draws 2–7 random kernel specs from the RNG stream.
fn random_specs(rng: &mut SplitMix64) -> Vec<KernelSpec> {
    let n = rng.range(2, 8);
    (0..n)
        .map(|_| KernelSpec {
            op: rng.byte(),
            border: rng.byte(),
            src1: rng.below(64),
            src2: rng.flag().then(|| rng.below(64)),
        })
        .collect()
}

/// Builds a random pipeline over a `w × h` gray input from kernel specs.
fn build_pipeline(w: usize, h: usize, specs: &[KernelSpec]) -> Pipeline {
    let mut p = Pipeline::new("random");
    let input = p.add_input(ImageDesc::new("in", w, h, 1));
    let mut images = vec![input];
    for (i, spec) in specs.iter().enumerate() {
        let a = images[spec.src1 % images.len()];
        let out = p.add_image(ImageDesc::new(format!("img{i}"), w, h, 1));
        let b_mode = border(spec.border);
        let kernel = match spec.op % 6 {
            // Local operators.
            0 => Kernel::simple(
                format!("k{i}_gauss"),
                vec![a],
                out,
                vec![b_mode],
                vec![Mask::gaussian3().to_expr(0, 0)],
                vec![],
            ),
            1 => Kernel::simple(
                format!("k{i}_sobel"),
                vec![a],
                out,
                vec![b_mode],
                vec![Mask::sobel_x().to_expr(0, 0)],
                vec![],
            ),
            2 => Kernel::simple(
                format!("k{i}_box5"),
                vec![a],
                out,
                vec![b_mode],
                vec![Mask::gaussian5().to_expr(0, 0)],
                vec![],
            ),
            // Point operators.
            3 => Kernel::simple(
                format!("k{i}_sq"),
                vec![a],
                out,
                vec![b_mode],
                vec![Expr::load(0) * Expr::load(0) + Expr::Const(0.25)],
                vec![],
            ),
            4 => Kernel::simple(
                format!("k{i}_abs"),
                vec![a],
                out,
                vec![b_mode],
                vec![Expr::Un(
                    kfuse_ir::UnOp::Abs,
                    Box::new(Expr::load(0) - Expr::Const(64.0)),
                )],
                vec![],
            ),
            // Binary point operator over two sources.
            _ => {
                let b = images[spec.src2.unwrap_or(0) % images.len()];
                Kernel::simple(
                    format!("k{i}_mix"),
                    vec![a, b],
                    out,
                    vec![b_mode, b_mode],
                    vec![Expr::Bin(
                        kfuse_ir::BinOp::Max,
                        Box::new(Expr::load(0)),
                        Box::new(Expr::load(1) * Expr::Const(0.5)),
                    )],
                    vec![],
                )
            }
        };
        p.add_kernel(kernel);
        images.push(out);
    }
    // Every sink becomes a pipeline output.
    for &img in &images {
        if p.producer_of(img).is_some() && p.consumers_of(img).is_empty() {
            p.mark_output(img);
        }
    }
    p
}

fn cfg() -> FusionConfig {
    FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()))
}

/// Runs `body` against `cases` random pipelines of size `w × h`.
fn for_random_pipelines(
    seed: u64,
    cases: usize,
    w: usize,
    h: usize,
    mut body: impl FnMut(&Pipeline, u64),
) {
    let mut rng = SplitMix64::new(seed);
    let mut accepted = 0;
    while accepted < cases {
        let specs = random_specs(&mut rng);
        let p = build_pipeline(w, h, &specs);
        if p.validate().is_err() {
            continue;
        }
        accepted += 1;
        body(&p, rng.next_u64());
    }
}

/// Optimized fusion preserves every output bit-exactly on random DAGs with
/// mixed border modes.
#[test]
fn optimized_fusion_is_bit_exact() {
    for_random_pipelines(0xf00d, 64, 13, 9, |p, seed| {
        let inputs: Vec<_> = p
            .inputs()
            .iter()
            .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
            .collect();
        let reference = execute(p, &inputs).unwrap();
        let result = fuse_optimized(p, &cfg());
        let fused_exec = execute(&result.pipeline, &inputs).unwrap();
        for &out in p.outputs() {
            let r = reference.expect_image(out);
            let f = fused_exec.expect_image(out);
            assert!(r.bit_equal(f), "output {out:?} differs");
        }
    });
}

/// Basic fusion preserves outputs too.
#[test]
fn basic_fusion_is_bit_exact() {
    for_random_pipelines(0xbead, 64, 11, 7, |p, seed| {
        let inputs: Vec<_> = p
            .inputs()
            .iter()
            .map(|&id| (id, synthetic_image(p.image(id).clone(), seed)))
            .collect();
        let reference = execute(p, &inputs).unwrap();
        let result = fuse_basic(p, &cfg());
        let fused_exec = execute(&result.pipeline, &inputs).unwrap();
        for &out in p.outputs() {
            assert!(reference
                .expect_image(out)
                .bit_equal(fused_exec.expect_image(out)));
        }
    });
}

/// The planner's partition is a disjoint cover with legal blocks, and the
/// fused pipeline validates with one kernel per block.
#[test]
fn partition_invariants() {
    for_random_pipelines(0xcafe, 64, 16, 16, |p, _| {
        let config = cfg();
        let result = fuse_optimized(p, &config);
        let universe: Vec<NodeId> = (0..p.kernels().len()).map(NodeId).collect();
        assert!(result.plan.partition.is_valid_partition_of(&universe));
        assert!(result.pipeline.validate().is_ok());
        assert_eq!(result.pipeline.kernels().len(), result.plan.partition.len());
        // Every multi-kernel block passes the full legality check.
        for block in result.plan.fused_blocks() {
            let members: Vec<kfuse_ir::KernelId> = block
                .members()
                .iter()
                .map(|n| kfuse_ir::KernelId(n.0))
                .collect();
            assert!(kfuse_core::block_legality(p, &members, &result.plan.edges, &config).is_ok());
        }
    });
}

/// Fusion never increases the modelled DRAM traffic.
#[test]
fn fusion_never_increases_traffic() {
    for_random_pipelines(0xd00f, 64, 32, 32, |p, _| {
        let result = fuse_optimized(p, &cfg());
        let before = kfuse_paper::total_dram_bytes(p, kfuse_model::BlockShape::DEFAULT);
        let after =
            kfuse_paper::total_dram_bytes(&result.pipeline, kfuse_model::BlockShape::DEFAULT);
        assert!(after <= before * 1.0001, "traffic grew: {after} > {before}");
    });
}

/// The objective value Eq. (1) of the emitted partition is at least the
/// all-singletons baseline (zero) and is consistent with a recount.
#[test]
fn objective_is_consistent() {
    for_random_pipelines(0xabba, 64, 16, 16, |p, _| {
        let plan = kfuse_core::plan_optimized(p, &cfg());
        assert!(plan.total_benefit >= 0.0);
        let recount = kfuse_core::objective(&plan.partition, &plan.edges);
        assert!((plan.total_benefit - recount).abs() < 1e-9);
    });
}
