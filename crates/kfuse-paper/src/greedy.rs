//! Greedy heaviest-edge-first grouping — the PolyMage/Halide-style
//! comparator.
//!
//! The paper positions its min-cut formulation against the grouping
//! strategies of PolyMage (Mullapudi et al., ASPLOS 2015) and Halide's
//! auto-scheduler (Mullapudi et al., SIGGRAPH 2016), which are "essentially
//! a pair-wise greedy fusion, expanding the fusion scope while accounting
//! for the fusion profitability" (Section I). This module implements that
//! strategy on our benefit model so the `ablation_greedy` bench can compare
//! the two on equal footing:
//!
//! repeatedly merge the two partition blocks joined by the heaviest
//! profitable edge, provided the merged block passes the full legality
//! check; stop when no such merge exists.
//!
//! Unlike the basic fusion of \[12\] this greedy variant *can* grow blocks
//! beyond pairs and accepts shared inputs; unlike Algorithm 1 it commits
//! to merges bottom-up and cannot "see" that cutting a cheap edge frees a
//! large legal block.

use kfuse_core::{
    apply_partition, block_legality, compute_edge_weights, objective, FusionConfig, FusionPlan,
    FusionResult, Trace, TraceEvent,
};
use kfuse_graph::{Block, NodeId, Partition};
use kfuse_ir::{KernelId, Pipeline};

/// Plans fusion by greedy heaviest-edge block merging.
pub fn plan_greedy(p: &Pipeline, cfg: &FusionConfig) -> FusionPlan {
    let edges = compute_edge_weights(p, cfg);
    let mut trace = Trace::default();
    let mut blocks: Vec<Vec<KernelId>> = p.kernel_ids().map(|k| vec![k]).collect();

    // Candidate edges by descending weight; ties keep graph order.
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by(|&a, &b| {
        edges[b]
            .estimate
            .weight
            .partial_cmp(&edges[a].estimate.weight)
            .expect("finite weights")
    });

    loop {
        let mut merged = false;
        for &ei in &order {
            let e = &edges[ei];
            // Greedy considers only edges whose pairwise estimate is a real
            // benefit.
            if !e.legal || e.estimate.raw <= 0.0 {
                continue;
            }
            let bi = blocks.iter().position(|b| b.contains(&e.src)).unwrap();
            let bj = blocks.iter().position(|b| b.contains(&e.dst)).unwrap();
            if bi == bj {
                continue;
            }
            let mut candidate = blocks[bi].clone();
            candidate.extend(blocks[bj].iter().copied());
            candidate.sort_unstable();
            if block_legality(p, &candidate, &edges, cfg).is_ok() {
                trace.events.push(TraceEvent::Ready {
                    members: candidate
                        .iter()
                        .map(|&k| p.kernel(k).name.clone())
                        .collect(),
                    depth: 0,
                });
                let (hi, lo) = (bi.max(bj), bi.min(bj));
                blocks.remove(hi);
                blocks.remove(lo);
                blocks.push(candidate);
                merged = true;
                break;
            }
        }
        if !merged {
            break;
        }
    }

    let partition = Partition::from_blocks(
        blocks
            .iter()
            .map(|b| Block::new(b.iter().map(|k| NodeId(k.0)).collect()))
            .collect(),
    );
    let total_benefit = objective(&partition, &edges);
    FusionPlan {
        partition,
        edges,
        trace,
        total_benefit,
    }
}

/// One-call greedy fusion (optimized codegen, like Algorithm 1's output).
pub fn fuse_greedy(p: &Pipeline, cfg: &FusionConfig) -> FusionResult {
    let plan = plan_greedy(p, cfg);
    let pipeline = apply_partition(p, &plan.partition, true);
    FusionResult { pipeline, plan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel};
    use kfuse_model::{BenefitModel, GpuSpec};

    fn cfg() -> FusionConfig {
        FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()))
    }

    fn desc(name: &str) -> ImageDesc {
        ImageDesc::new(name, 32, 32, 1)
    }

    /// On a clean point chain greedy reaches the same single block as
    /// Algorithm 1.
    #[test]
    fn greedy_fuses_point_chain() {
        let mut p = Pipeline::new("chain");
        let input = p.add_input(desc("in"));
        let m1 = p.add_image(desc("m1"));
        let m2 = p.add_image(desc("m2"));
        let out = p.add_image(desc("out"));
        for (i, (src, dst)) in [(input, m1), (m1, m2), (m2, out)].iter().enumerate() {
            p.add_kernel(Kernel::simple(
                format!("k{i}"),
                vec![*src],
                *dst,
                vec![BorderMode::Clamp],
                vec![Expr::load(0) + Expr::Const(1.0)],
                vec![],
            ));
        }
        p.mark_output(out);
        let result = fuse_greedy(&p, &cfg());
        assert_eq!(result.pipeline.kernels().len(), 1);
        assert!(result.plan.total_benefit > 0.0);
    }

    /// Greedy cannot fuse a graph whose only beneficial structure is
    /// guarded by pairwise-illegal edges (the Sobel fan-out): it never
    /// considers them, while Algorithm 1 heals them inside a larger block.
    #[test]
    fn greedy_misses_fanout_only_blocks() {
        // in → a → {b, c} → d: the a→b and a→c edges are pairwise illegal
        // (fan-out), b→d and c→d are pairwise illegal (d has two inputs
        // from different producers... b→d leaves c→d external input).
        let mut p = Pipeline::new("diamond");
        let input = p.add_input(desc("in"));
        let ma = p.add_image(desc("ma"));
        let mb = p.add_image(desc("mb"));
        let mc = p.add_image(desc("mc"));
        let out = p.add_image(desc("out"));
        p.add_kernel(Kernel::simple(
            "a",
            vec![input],
            ma,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) + Expr::Const(1.0)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "b",
            vec![ma],
            mb,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::Const(2.0)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "c",
            vec![ma],
            mc,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::Const(3.0)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "d",
            vec![mb, mc],
            out,
            vec![BorderMode::Clamp, BorderMode::Clamp],
            vec![Expr::load(0) + Expr::load(1)],
            vec![],
        ));
        p.mark_output(out);
        p.validate().unwrap();

        let config = cfg();
        let greedy = fuse_greedy(&p, &config);
        let mincut = kfuse_core::fuse_optimized(&p, &config);
        // Algorithm 1 fuses the whole diamond; greedy fuses nothing.
        assert_eq!(mincut.pipeline.kernels().len(), 1);
        assert_eq!(greedy.pipeline.kernels().len(), 4);
        assert!(mincut.plan.total_benefit > greedy.plan.total_benefit);
    }

    /// Greedy respects legality: the Harris fan-outs keep its result equal
    /// to the min-cut partition there (three pairs).
    #[test]
    fn greedy_partition_is_valid() {
        let mut p = Pipeline::new("two");
        let input = p.add_input(desc("in"));
        let m = p.add_image(desc("m"));
        let out = p.add_image(desc("out"));
        p.add_kernel(Kernel::simple(
            "a",
            vec![input],
            m,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "b",
            vec![m],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        ));
        p.mark_output(out);
        let result = fuse_greedy(&p, &cfg());
        let universe: Vec<NodeId> = (0..2).map(NodeId).collect();
        assert!(result.plan.partition.is_valid_partition_of(&universe));
    }
}
