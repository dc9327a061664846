//! Algorithm 1: recursive min-cut partitioning, and plan application.
//!
//! Given the dependence DAG with benefit-model edge weights, the algorithm
//! maintains a working set of partition blocks (initially the whole graph)
//! and a ready set. Illegal blocks are bisected along a Stoer–Wagner
//! minimum cut; legal blocks and singletons move to the ready set
//! (paper Section III-A). Every step is recorded in a [`Trace`] so the
//! Figure 3 walkthrough can be replayed verbatim.

use crate::legality::{check_block, BlockInfo, Illegal};
use crate::resources::{fits_device, resource_check};
use crate::synthesis::synthesize;
use kfuse_graph::{Block, MinCutGraph, NodeId, Partition};
use kfuse_ir::{ImageId, Kernel, KernelId, Pipeline};
use kfuse_model::{BenefitModel, BlockShape, EdgeEstimate, FusionScenario};

/// Configuration of the fusion planner.
#[derive(Clone, Debug)]
pub struct FusionConfig {
    /// The benefit model (GPU parameters, `ε`, `γ`, `IS` mode).
    pub model: BenefitModel,
    /// Thread-block geometry assumed by the resource estimate.
    pub block: BlockShape,
    /// The user threshold `c_Mshared` of Eq. (2).
    pub shared_threshold: f64,
    /// Whether a block containing an `ε`-weight (illegal or unprofitable)
    /// internal edge is itself illegal (Section II-C4: fusions with benefit
    /// ≤ 0 are treated as illegal scenarios).
    pub require_profitable_edges: bool,
    /// Whether to run the separable mask-factorization rewrite
    /// ([`crate::separable`]) on the fused pipeline: exactly-separable
    /// convolution stages are split into 1-D row/column passes.
    ///
    /// Off by default because the factored form reassociates the mask sum
    /// — its output matches the unfactored pipeline only to rounding, not
    /// bit for bit, and the default path preserves the bit-exact fusion
    /// oracle. Pair with [`kfuse_model::BenefitModel::separable_phi`] to
    /// make the planner price recompute `φ` for the cheaper factored form.
    pub separable: bool,
}

impl FusionConfig {
    /// A configuration with the defaults used throughout the evaluation.
    pub fn new(model: BenefitModel) -> Self {
        Self {
            model,
            block: BlockShape::DEFAULT,
            shared_threshold: 3.0,
            require_profitable_edges: true,
            separable: false,
        }
    }

    /// Enables the separable mask-factorization rewrite and the matching
    /// `φ` reduction in the benefit model.
    pub fn with_separable(mut self) -> Self {
        self.separable = true;
        self.model.separable_phi = true;
        self
    }
}

/// One dependence edge with its legality verdict and benefit estimate.
#[derive(Clone, Debug)]
pub struct EdgeInfo {
    /// Producer kernel.
    pub src: KernelId,
    /// Consumer kernel.
    pub dst: KernelId,
    /// The communicated intermediate image.
    pub image: ImageId,
    /// Pairwise legality (dependence + header + resource).
    pub legal: bool,
    /// Human-readable reason when `legal` is false (`None` when legal).
    pub verdict: Option<String>,
    /// Benefit estimate under the configured model.
    pub estimate: EdgeEstimate,
}

/// A replayable record of the partitioning run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in execution order.
    pub events: Vec<TraceEvent>,
}

/// One partitioning event.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// An edge received its weight (lines 2–4 of Algorithm 1).
    EdgeWeight {
        /// Producer kernel name.
        src: String,
        /// Consumer kernel name.
        dst: String,
        /// Classified scenario.
        scenario: FusionScenario,
        /// Final clamped weight `w_e`.
        weight: f64,
    },
    /// A working-set block was examined.
    Examine {
        /// Member kernel names, sorted.
        members: Vec<String>,
        /// `None` if legal, otherwise the reason.
        verdict: Option<String>,
        /// Recursion depth: number of cuts/splits above this block.
        depth: usize,
    },
    /// A disconnected block was split into weak components (a zero-weight
    /// cut, strictly better than any Stoer–Wagner cut).
    ComponentSplit {
        /// Member kernel names.
        members: Vec<String>,
        /// Number of components produced.
        parts: usize,
        /// Recursion depth: number of cuts/splits above this block.
        depth: usize,
    },
    /// An illegal block was bisected along a minimum cut.
    Cut {
        /// Member kernel names.
        members: Vec<String>,
        /// Weight of the cut.
        weight: f64,
        /// One side of the bipartition.
        side_a: Vec<String>,
        /// The other side.
        side_b: Vec<String>,
        /// Recursion depth: number of cuts/splits above this block.
        depth: usize,
    },
    /// A block entered the ready set.
    Ready {
        /// Member kernel names.
        members: Vec<String>,
        /// Recursion depth: number of cuts/splits above this block.
        depth: usize,
    },
}

/// The planner's output: a legal partition with its provenance.
#[derive(Clone, Debug)]
pub struct FusionPlan {
    /// Legal partition blocks over kernel ids (`NodeId(i)` ↔ `KernelId(i)`).
    pub partition: Partition,
    /// Per-edge verdicts and estimates.
    pub edges: Vec<EdgeInfo>,
    /// Replayable event log.
    pub trace: Trace,
    /// The objective value β of Eq. (1): summed weight inside all blocks.
    pub total_benefit: f64,
}

impl FusionPlan {
    /// Blocks with more than one member (the actual transformations).
    pub fn fused_blocks(&self) -> Vec<&Block> {
        self.partition
            .blocks()
            .iter()
            .filter(|b| b.len() > 1)
            .collect()
    }
}

fn names(p: &Pipeline, ks: &[KernelId]) -> Vec<String> {
    ks.iter().map(|&k| p.kernel(k).name.clone()).collect()
}

/// Computes legality and benefit for every dependence edge
/// (lines 2–4 of Algorithm 1).
pub fn compute_edge_weights(p: &Pipeline, cfg: &FusionConfig) -> Vec<EdgeInfo> {
    let dag = p.kernel_dag();
    let mut out = Vec::new();
    for (_, e) in dag.edges() {
        let src = KernelId(e.src.0);
        let dst = KernelId(e.dst.0);
        let verdict = pair_verdict(p, src, dst, cfg);
        let legal = verdict.is_none();
        let estimate = cfg.model.edge_weight(p, src, dst, e.weight, legal);
        out.push(EdgeInfo {
            src,
            dst,
            image: e.weight,
            legal,
            verdict,
            estimate,
        });
    }
    out
}

/// Pairwise legality: dependence scenarios, headers, and Eq. (2) on the
/// synthesized two-kernel candidate.
pub fn pair_is_legal(p: &Pipeline, ks: KernelId, kd: KernelId, cfg: &FusionConfig) -> bool {
    pair_verdict(p, ks, kd, cfg).is_none()
}

/// Pairwise legality with the reason: `None` means the pair `(ks, kd)` may
/// fuse; `Some(reason)` carries the human-readable rejection (dependence
/// scenario, header mismatch, Eq. (2) resource overuse, or device cap).
pub fn pair_verdict(
    p: &Pipeline,
    ks: KernelId,
    kd: KernelId,
    cfg: &FusionConfig,
) -> Option<String> {
    let info = match check_block(p, &[ks, kd]) {
        Ok(info) => info,
        Err(reason) => return Some(reason.to_string()),
    };
    let fused = synthesize(p, &info, true);
    let members = [p.kernel(ks), p.kernel(kd)];
    if let Err(reason) = resource_check(p, &fused, &members, cfg.block, cfg.shared_threshold) {
        return Some(reason.to_string());
    }
    if !fits_device(p, &fused, cfg.block, cfg.model.gpu.shared_mem_per_block) {
        return Some("fused kernel exceeds device shared memory".to_string());
    }
    None
}

/// Full block legality: dependence + header, Eq. (2) resources, device cap,
/// and (optionally) profitability of all internal edges.
///
/// Returns the block structure on success so the caller can synthesize
/// without re-checking.
pub fn block_legality(
    p: &Pipeline,
    block: &[KernelId],
    edges: &[EdgeInfo],
    cfg: &FusionConfig,
) -> Result<BlockInfo, Illegal> {
    let info = check_block(p, block)?;
    if block.len() == 1 {
        return Ok(info);
    }
    let fused = synthesize(p, &info, true);
    let members: Vec<&Kernel> = block.iter().map(|&k| p.kernel(k)).collect();
    resource_check(p, &fused, &members, cfg.block, cfg.shared_threshold)?;
    if !fits_device(p, &fused, cfg.block, cfg.model.gpu.shared_mem_per_block) {
        return Err(Illegal::ResourceOveruse {
            ratio: f64::INFINITY,
            threshold: cfg.shared_threshold,
        });
    }
    if cfg.require_profitable_edges {
        // Section II-C4: a fusion whose estimated benefit is ≤ 0 is treated
        // as an illegal scenario. Only *pairwise-legal but unprofitable*
        // edges poison a block — an ε edge that is merely pair-illegal
        // (e.g. a fan-out edge) can be healed by the larger block, which is
        // exactly how Sobel and Unsharp fuse as whole graphs.
        for e in edges {
            if block.contains(&e.src) && block.contains(&e.dst) && e.legal && e.estimate.raw <= 0.0
            {
                return Err(Illegal::UnprofitableEdge {
                    src: p.kernel(e.src).name.clone(),
                    dst: p.kernel(e.dst).name.clone(),
                });
            }
        }
    }
    Ok(info)
}

/// Runs Algorithm 1 and returns the legal partition with its trace.
pub fn plan_optimized(p: &Pipeline, cfg: &FusionConfig) -> FusionPlan {
    let edges = compute_edge_weights(p, cfg);
    let mut trace = Trace::default();
    for e in &edges {
        trace.events.push(TraceEvent::EdgeWeight {
            src: p.kernel(e.src).name.clone(),
            dst: p.kernel(e.dst).name.clone(),
            scenario: e.estimate.scenario,
            weight: e.estimate.weight,
        });
    }

    let dag = p.kernel_dag();
    let all: Vec<KernelId> = p.kernel_ids().collect();
    let mut working: std::collections::VecDeque<(Vec<KernelId>, usize)> = Default::default();
    working.push_back((all.clone(), 0));
    let mut ready: Vec<Vec<KernelId>> = Vec::new();

    while let Some((mut block, depth)) = working.pop_front() {
        block.sort_unstable();
        if block.len() == 1 {
            trace.events.push(TraceEvent::Ready {
                members: names(p, &block),
                depth,
            });
            ready.push(block);
            continue;
        }
        // Disconnected blocks split into weak components first — a cut of
        // weight zero, cheaper than anything Stoer–Wagner can find.
        let nodes: Vec<NodeId> = block.iter().map(|k| NodeId(k.0)).collect();
        let comps = dag.weak_components(&nodes);
        if comps.len() > 1 {
            trace.events.push(TraceEvent::ComponentSplit {
                members: names(p, &block),
                parts: comps.len(),
                depth,
            });
            for c in comps {
                working.push_back((c.into_iter().map(|n| KernelId(n.0)).collect(), depth + 1));
            }
            continue;
        }

        match block_legality(p, &block, &edges, cfg) {
            Ok(_) => {
                trace.events.push(TraceEvent::Examine {
                    members: names(p, &block),
                    verdict: None,
                    depth,
                });
                trace.events.push(TraceEvent::Ready {
                    members: names(p, &block),
                    depth,
                });
                ready.push(block);
            }
            Err(reason) => {
                trace.events.push(TraceEvent::Examine {
                    members: names(p, &block),
                    verdict: Some(reason.to_string()),
                    depth,
                });
                // Bisect along the weighted minimum cut (Stoer–Wagner),
                // starting each phase at the smallest member for
                // determinism (the paper starts Harris at `dx`).
                let mut g = MinCutGraph::new(block.len());
                let local = |k: KernelId| block.iter().position(|&b| b == k).unwrap();
                for e in &edges {
                    if block.contains(&e.src) && block.contains(&e.dst) {
                        g.add_edge(local(e.src), local(e.dst), e.estimate.weight);
                    }
                }
                let cut = g
                    .stoer_wagner(0)
                    .expect("the model clamps every weight to a finite positive value (Eq. 12)")
                    .expect("illegal blocks have at least two members");
                let side: Vec<KernelId> = cut.side.iter().map(|&i| block[i]).collect();
                let rest: Vec<KernelId> = block
                    .iter()
                    .copied()
                    .filter(|k| !side.contains(k))
                    .collect();
                trace.events.push(TraceEvent::Cut {
                    members: names(p, &block),
                    weight: cut.weight,
                    side_a: names(p, &side),
                    side_b: names(p, &rest),
                    depth,
                });
                working.push_back((side, depth + 1));
                working.push_back((rest, depth + 1));
            }
        }
    }

    let partition = Partition::from_blocks(
        ready
            .iter()
            .map(|b| Block::new(b.iter().map(|k| NodeId(k.0)).collect()))
            .collect(),
    );
    debug_assert!(
        partition.is_valid_partition_of(&all.iter().map(|k| NodeId(k.0)).collect::<Vec<_>>())
    );

    let total_benefit = objective(&partition, &edges);
    FusionPlan {
        partition,
        edges,
        trace,
        total_benefit,
    }
}

/// The objective β of Eq. (1): total weight of edges inside blocks.
pub fn objective(partition: &Partition, edges: &[EdgeInfo]) -> f64 {
    edges
        .iter()
        .filter(|e| {
            partition
                .block_of(NodeId(e.src.0))
                .is_some_and(|b| b.contains(NodeId(e.dst.0)))
        })
        .map(|e| e.estimate.weight)
        .sum()
}

/// Applies a plan: every multi-kernel block is synthesized into one fused
/// kernel; singletons are kept as-is. `stage_inputs` selects the codegen
/// style (see [`synthesize`]).
///
/// Kernels are emitted in a valid execution order (topological order of
/// block destinations).
///
/// # Panics
///
/// Panics if a multi-kernel block of the plan is dependence-illegal —
/// plans produced by [`plan_optimized`] never are.
pub fn apply_plan(p: &Pipeline, plan: &FusionPlan, stage_inputs: bool) -> Pipeline {
    apply_partition(p, &plan.partition, stage_inputs)
}

/// [`apply_plan`] for a bare partition (used by the basic-fusion baseline).
pub fn apply_partition(p: &Pipeline, partition: &Partition, stage_inputs: bool) -> Pipeline {
    let dag = p.kernel_dag();
    let topo = dag.topo_order().expect("validated pipelines are acyclic");
    let mut kernels: Vec<Kernel> = Vec::new();
    for n in topo {
        let k = KernelId(n.0);
        let block = partition
            .block_of(NodeId(k.0))
            .expect("partition covers the graph");
        let members: Vec<KernelId> = block.members().iter().map(|m| KernelId(m.0)).collect();
        if members.len() == 1 {
            kernels.push(p.kernel(k).clone());
            continue;
        }
        let info = check_block(p, &members).expect("plan blocks are legal");
        if info.destination == k {
            kernels.push(synthesize(p, &info, stage_inputs));
        }
    }
    let fused = p.with_kernels(kernels);
    debug_assert!(fused.validate().is_ok(), "fused pipeline must validate");
    fused
}

/// Result of a complete fusion run: the transformed pipeline and the plan
/// that produced it.
#[derive(Clone, Debug)]
pub struct FusionResult {
    /// The pipeline with fused kernels.
    pub pipeline: Pipeline,
    /// The plan (partition, edge estimates, trace).
    pub plan: FusionPlan,
}

/// One-call optimized fusion: plan with Algorithm 1, then apply. When
/// [`FusionConfig::separable`] is set, the fused pipeline additionally goes
/// through the separable mask-factorization rewrite
/// ([`crate::factor_pipeline`]).
pub fn fuse_optimized(p: &Pipeline, cfg: &FusionConfig) -> FusionResult {
    let plan = plan_optimized(p, cfg);
    let mut pipeline = apply_plan(p, &plan, true);
    if cfg.separable {
        pipeline = crate::separable::factor_pipeline(&pipeline).0;
    }
    FusionResult { pipeline, plan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{BorderMode, Expr, ImageDesc};
    use kfuse_model::GpuSpec;

    fn cfg() -> FusionConfig {
        FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()))
    }

    fn desc(name: &str) -> ImageDesc {
        ImageDesc::new(name, 32, 32, 1)
    }

    /// in → a → b → c (all point): the whole chain fuses into one block.
    #[test]
    fn point_chain_fuses_completely() {
        let mut p = Pipeline::new("chain");
        let input = p.add_input(desc("in"));
        let m1 = p.add_image(desc("m1"));
        let m2 = p.add_image(desc("m2"));
        let out = p.add_image(desc("out"));
        let imgs = [(input, m1), (m1, m2), (m2, out)];
        for (i, (src, dst)) in imgs.iter().enumerate() {
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
        p.validate().unwrap();

        let result = fuse_optimized(&p, &cfg());
        assert_eq!(result.plan.partition.len(), 1);
        assert_eq!(result.pipeline.kernels().len(), 1);
        assert_eq!(result.pipeline.kernels()[0].name, "k0+k1+k2");
        assert!(result.pipeline.validate().is_ok());
        assert!(result.plan.total_benefit > 0.0);
    }

    /// A diamond with an external consumer of the intermediate: the
    /// offending edge is ε and the partition must respect it.
    #[test]
    fn external_output_prevents_fusion() {
        let mut p = Pipeline::new("diamond");
        let input = p.add_input(desc("in"));
        let mid = p.add_image(desc("mid"));
        let o1 = p.add_image(desc("o1"));
        let o2 = p.add_image(desc("o2"));
        p.add_kernel(Kernel::simple(
            "a",
            vec![input],
            mid,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) + Expr::Const(1.0)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "b",
            vec![mid],
            o1,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::Const(2.0)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "c",
            vec![mid],
            o2,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::Const(3.0)],
            vec![],
        ));
        p.mark_output(o1);
        p.mark_output(o2);
        p.validate().unwrap();

        let plan = plan_optimized(&p, &cfg());
        // a's output escapes to both b and c: no legal multi-kernel block
        // exists, so everything ends up a singleton.
        assert_eq!(plan.partition.len(), 3);
        assert!(plan.edges.iter().all(|e| !e.legal));
        let fused = apply_plan(&p, &plan, true);
        assert_eq!(fused.kernels().len(), 3);
    }

    /// Partition invariants hold on a non-trivial graph.
    #[test]
    fn partition_is_disjoint_cover() {
        let mut p = Pipeline::new("mix");
        let input = p.add_input(desc("in"));
        let m1 = p.add_image(desc("m1"));
        let m2 = p.add_image(desc("m2"));
        let out = p.add_image(desc("out"));
        p.add_kernel(Kernel::simple(
            "a",
            vec![input],
            m1,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) + Expr::Const(1.0)],
            vec![],
        ));
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        p.add_kernel(Kernel::simple(
            "g",
            vec![m1],
            m2,
            vec![BorderMode::Clamp],
            vec![Expr::convolve(0, 0, &mask)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "t",
            vec![m2],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::Const(0.5)],
            vec![],
        ));
        p.mark_output(out);
        p.validate().unwrap();

        let plan = plan_optimized(&p, &cfg());
        let universe: Vec<NodeId> = (0..3).map(NodeId).collect();
        assert!(plan.partition.is_valid_partition_of(&universe));
        let fused = apply_plan(&p, &plan, true);
        assert!(fused.validate().is_ok());
    }

    /// The trace records weights, examinations and ready events.
    #[test]
    fn trace_is_populated() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in"));
        let m = p.add_image(desc("m"));
        let out = p.add_image(desc("out"));
        p.add_kernel(Kernel::simple(
            "a",
            vec![input],
            m,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) + Expr::Const(1.0)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "b",
            vec![m],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) + Expr::Const(2.0)],
            vec![],
        ));
        p.mark_output(out);
        let plan = plan_optimized(&p, &cfg());
        assert!(plan
            .trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::EdgeWeight { .. })));
        assert!(plan
            .trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Ready { .. })));
    }
}
