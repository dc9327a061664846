//! Static per-launch cost analysis of (possibly fused) kernels.
//!
//! For every kernel the analyzer derives what the Hipacc-style CUDA code
//! generator would make one thread do: ALU/SFU operations, shared-memory
//! accesses, and — the quantity fusion optimizes — unique DRAM samples
//! moved. The analysis mirrors the synthesis conventions of `kfuse-core`:
//!
//! * **Register stages** are evaluated inline once per distinct absolute
//!   offset at which their value is needed (common-subexpression reuse for
//!   repeated point reads; full recomputation for window reads — the `φ`
//!   of paper Eq. 7).
//! * **Shared stages** are computed cooperatively into a tile once per
//!   block, so their per-thread multiplicity is the tile-overhead factor.
//! * **Staged external inputs** (window-accessed, `input_staging`) are
//!   filled once per block from DRAM and then read from shared memory;
//!   unstaged window reads pay per-warp unique DRAM samples instead (the
//!   basic-fusion codegen of \[12\]).

use kfuse_core::shared_usage_bytes;
use kfuse_core::synthesis::{absolute_extents, input_access_extents};
use kfuse_ir::{Kernel, MemSpace, Pipeline, StageRef};
use kfuse_model::BlockShape;

/// Per-thread operation counts of one kernel launch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadCost {
    /// ALU operations.
    pub alu: f64,
    /// SFU operations.
    pub sfu: f64,
    /// Shared-memory (or cache-served) access instructions.
    pub shared_access: f64,
    /// Unique DRAM samples loaded.
    pub dram_ld: f64,
    /// DRAM samples stored.
    pub dram_st: f64,
}

/// Cost summary of one kernel launch.
#[derive(Clone, Debug, PartialEq)]
pub struct LaunchCost {
    /// Kernel name.
    pub name: String,
    /// Iteration-space threads (`width · height`).
    pub threads: usize,
    /// Per-thread counts.
    pub per_thread: ThreadCost,
    /// Shared memory allocated per block (drives occupancy).
    pub shared_bytes_per_block: usize,
    /// Number of shared-memory stages (local-to-local intermediates); each
    /// costs tile barriers and halo branching in generated code.
    pub shared_stages: usize,
    /// Total DRAM traffic in bytes.
    pub dram_bytes: f64,
}

/// Per-stage evaluation multiplicities (exposed for tests and benches).
///
/// `multiplicity[i]` is how many times stage `i`'s body is evaluated per
/// output pixel.
pub fn stage_multiplicities(k: &Kernel, block: BlockShape) -> Vec<f64> {
    let n = k.stages.len();
    let abs = absolute_extents(k);
    // Distinct absolute offsets at which each register-path stage is needed.
    let mut positions: Vec<Vec<(i32, i32)>> = vec![Vec::new(); n];
    positions[k.root].push((0, 0));
    // Extra multiplicity contributed by shared-stage consumers.
    let mut shared_consumer_mult = vec![0.0f64; n];

    let mut mult = vec![0.0f64; n];
    for j in (0..n).rev() {
        let s = &k.stages[j];
        let m_j = if s.space == MemSpace::Shared {
            let (rx, ry) = abs[j];
            block.tile_factor(rx as usize, ry as usize)
        } else {
            positions[j].len() as f64 + shared_consumer_mult[j]
        };
        mult[j] = m_j;
        for (slot, r) in s.refs.iter().enumerate() {
            if let StageRef::Stage(i) = r {
                let offs = s.offsets_of_slot(slot);
                if s.space == MemSpace::Shared {
                    // Producer evaluated over the consumer's tile.
                    let (rx, ry) = abs[*i];
                    shared_consumer_mult[*i] += block.tile_factor(rx as usize, ry as usize);
                } else {
                    let base = positions[j].clone();
                    for &(dx, dy) in &offs {
                        for &(px, py) in &base {
                            let pos = (px + dx, py + dy);
                            if !positions[*i].contains(&pos) {
                                positions[*i].push(pos);
                            }
                        }
                    }
                }
            }
        }
    }
    // Shared stages keep their tile factor even if discovered late.
    for j in 0..n {
        if k.stages[j].space == MemSpace::Shared {
            let (rx, ry) = abs[j];
            mult[j] = block.tile_factor(rx as usize, ry as usize);
        }
    }
    mult
}

/// Fraction of an unstaged window access served by the L2 cache through
/// inter-warp overlap. Adjacent warps of a block touch overlapping rows;
/// on Kepler/Maxwell roughly half of the would-be refetches hit L2. The
/// remaining half is the penalty the basic-fusion codegen pays for not
/// staging producer inputs into shared memory.
const L2_WINDOW_REUSE: f64 = 0.5;

/// Unique DRAM samples per thread for an unstaged window access of extent
/// `(ex, ey)`: each warp row touches `(bx + 2·ex)` contiguous samples over
/// `2·ey + 1` rows; inter-warp overlap is partially served by L2
/// ([`L2_WINDOW_REUSE`]).
fn unstaged_unique_samples(block: BlockShape, ex: usize, ey: usize) -> f64 {
    let per_warp = ((2 * ey + 1) * (block.bx + 2 * ex)) as f64 / block.bx as f64;
    let per_block = staged_unique_samples(block, ex, ey);
    L2_WINDOW_REUSE * per_block + (1.0 - L2_WINDOW_REUSE) * per_warp
}

/// Unique DRAM samples per thread for a staged (tiled) access of extent
/// `(ex, ey)`: the whole block cooperatively fills one tile.
fn staged_unique_samples(block: BlockShape, ex: usize, ey: usize) -> f64 {
    block.tile_samples(ex, ey) as f64 / block.threads() as f64
}

/// Analyzes one kernel launch.
pub fn analyze_kernel(p: &Pipeline, k: &Kernel, block: BlockShape) -> LaunchCost {
    let out_desc = p.image(k.output);
    let threads = out_desc.iteration_space();
    let mult = stage_multiplicities(k, block);
    let in_ext = input_access_extents(k);
    let staged: Vec<bool> = in_ext
        .iter()
        .map(|&(rx, ry)| k.input_staging && (rx, ry) != (0, 0))
        .collect();

    let mut tc = ThreadCost::default();

    for (j, s) in k.stages.iter().enumerate() {
        let m = mult[j];
        let oc = s.op_counts();
        tc.alu += m * oc.alu as f64;
        tc.sfu += m * oc.sfu as f64;
        // Loads: count raw load instructions per slot.
        for (slot, r) in s.refs.iter().enumerate() {
            let mut raw = 0usize;
            for b in s.body.iter() {
                b.visit_loads(&mut |sl, _, _, _| {
                    if sl == slot {
                        raw += 1;
                    }
                });
            }
            if raw == 0 {
                continue;
            }
            match *r {
                StageRef::Stage(i) => {
                    if k.stages[i].space == MemSpace::Shared {
                        tc.shared_access += m * raw as f64;
                    }
                    // Register stages: value is in a register, free.
                }
                StageRef::Input(_) => {
                    // Both staged (shared tile) and unstaged (cache-served)
                    // reads cost one near-memory access instruction.
                    tc.shared_access += m * raw as f64;
                }
            }
        }
    }

    // DRAM loads: once per distinct external input.
    for (i, &img) in k.inputs.iter().enumerate() {
        let channels = p.image(img).channels as f64;
        let (ex, ey) = (in_ext[i].0 as usize, in_ext[i].1 as usize);
        tc.dram_ld += channels
            * if staged[i] {
                staged_unique_samples(block, ex, ey)
            } else {
                unstaged_unique_samples(block, ex, ey)
            };
    }
    tc.dram_st += out_desc.channels as f64;

    let dram_bytes = (tc.dram_ld + tc.dram_st) * threads as f64 * 4.0;
    let shared_stages = k
        .stages
        .iter()
        .filter(|s| s.space == MemSpace::Shared)
        .count();
    LaunchCost {
        name: k.name.clone(),
        threads,
        per_thread: tc,
        shared_bytes_per_block: shared_usage_bytes(p, k, block),
        shared_stages,
        dram_bytes,
    }
}

/// Analyzes every kernel of a pipeline, in execution (topological) order.
pub fn analyze_pipeline(p: &Pipeline, block: BlockShape) -> Vec<LaunchCost> {
    let dag = p.kernel_dag();
    dag.topo_order()
        .expect("validated pipelines are acyclic")
        .into_iter()
        .map(|n| analyze_kernel(p, p.kernel(kfuse_ir::KernelId(n.0)), block))
        .collect()
}

/// Total DRAM traffic of a pipeline run in bytes — the quantity kernel
/// fusion reduces by eliminating intermediate images.
pub fn total_dram_bytes(p: &Pipeline, block: BlockShape) -> f64 {
    analyze_pipeline(p, block)
        .iter()
        .map(|c| c.dram_bytes)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_core::{check_block, synthesize, FusionConfig};
    use kfuse_ir::{BorderMode, Expr, ImageDesc};
    use kfuse_model::{BenefitModel, GpuSpec};

    fn desc(name: &str) -> ImageDesc {
        ImageDesc::new(name, 64, 64, 1)
    }

    fn gauss3() -> Expr {
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        Expr::convolve(0, 0, &mask)
    }

    #[test]
    fn point_kernel_costs() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in"));
        let out = p.add_image(desc("out"));
        p.add_kernel(Kernel::simple(
            "sq",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::load(0)],
            vec![],
        ));
        p.mark_output(out);
        let c = analyze_kernel(&p, &p.kernels()[0], BlockShape::DEFAULT);
        assert_eq!(c.threads, 64 * 64);
        assert_eq!(c.per_thread.alu, 1.0);
        assert_eq!(c.per_thread.dram_ld, 1.0);
        assert_eq!(c.per_thread.dram_st, 1.0);
        assert_eq!(c.shared_bytes_per_block, 0);
        // 2 samples × 4096 threads × 4 bytes.
        assert_eq!(c.dram_bytes, 2.0 * 4096.0 * 4.0);
    }

    #[test]
    fn local_kernel_stages_tile() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in"));
        let out = p.add_image(desc("out"));
        p.add_kernel(Kernel::simple(
            "g",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![gauss3()],
            vec![],
        ));
        p.mark_output(out);
        let c = analyze_kernel(&p, &p.kernels()[0], BlockShape::DEFAULT);
        // Tile fill: 34·6 / 128 samples per thread.
        assert!((c.per_thread.dram_ld - 204.0 / 128.0).abs() < 1e-9);
        assert_eq!(c.per_thread.shared_access, 9.0);
        assert_eq!(c.shared_bytes_per_block, 204 * 4);
    }

    #[test]
    fn unstaged_window_pays_more_dram() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in"));
        let out = p.add_image(desc("out"));
        let mut k = Kernel::simple(
            "g",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![gauss3()],
            vec![],
        );
        k.input_staging = false;
        p.mark_output(out);
        let c = analyze_kernel(&p, &k, BlockShape::DEFAULT);
        // Blend of per-warp (3·34/32) and per-block (204/128) uniqueness.
        let expect = 0.5 * (3.0 * 34.0 / 32.0) + 0.5 * (204.0 / 128.0);
        assert!((c.per_thread.dram_ld - expect).abs() < 1e-9);
        // Still strictly more DRAM than the staged variant.
        assert!(c.per_thread.dram_ld > 204.0 / 128.0);
        assert_eq!(c.shared_bytes_per_block, 0);
    }

    fn fused_p2l() -> (Pipeline, Kernel) {
        let mut p = Pipeline::new("p2l");
        let input = p.add_input(desc("in"));
        let mid = p.add_image(desc("mid"));
        let out = p.add_image(desc("out"));
        let a = p.add_kernel(Kernel::simple(
            "sq",
            vec![input],
            mid,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::load(0)],
            vec![],
        ));
        let b = p.add_kernel(Kernel::simple(
            "g",
            vec![mid],
            out,
            vec![BorderMode::Clamp],
            vec![gauss3()],
            vec![],
        ));
        p.mark_output(out);
        let info = check_block(&p, &[a, b]).unwrap();
        let fused = synthesize(&p, &info, true);
        (p, fused)
    }

    /// Point-to-local: the producer is recomputed once per window element
    /// (paper Eq. 7 with sz = 9).
    #[test]
    fn point_to_local_multiplicity_is_window_size() {
        let (_p, fused) = fused_p2l();
        let mult = stage_multiplicities(&fused, BlockShape::DEFAULT);
        assert_eq!(mult[fused.root], 1.0);
        assert_eq!(mult[0], 9.0);
    }

    /// Fusion eliminates the intermediate's DRAM round trip.
    #[test]
    fn fusion_reduces_dram_traffic() {
        let (p, fused) = fused_p2l();
        let unfused: f64 = total_dram_bytes(&p, BlockShape::DEFAULT);
        let fused_cost = analyze_kernel(&p, &fused, BlockShape::DEFAULT);
        assert!(
            fused_cost.dram_bytes < unfused,
            "fused {} vs unfused {}",
            fused_cost.dram_bytes,
            unfused
        );
    }

    /// Shared point reads are computed once (register CSE), not once per
    /// consumer.
    #[test]
    fn point_reads_share_one_evaluation() {
        let mut p = Pipeline::new("cse");
        let input = p.add_input(desc("in"));
        let mid = p.add_image(desc("mid"));
        let out = p.add_image(desc("out"));
        let a = p.add_kernel(Kernel::simple(
            "a",
            vec![input],
            mid,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) + Expr::Const(1.0)],
            vec![],
        ));
        // Consumer reads `mid` twice at (0,0).
        let b = p.add_kernel(Kernel::simple(
            "b",
            vec![mid],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::load(0)],
            vec![],
        ));
        p.mark_output(out);
        let info = check_block(&p, &[a, b]).unwrap();
        let fused = synthesize(&p, &info, true);
        let mult = stage_multiplicities(&fused, BlockShape::DEFAULT);
        assert_eq!(mult[0], 1.0);
    }

    /// Local-to-local: the producer becomes a shared tile with the
    /// tile-overhead multiplicity, not a 9× recompute.
    #[test]
    fn local_to_local_uses_tile_factor() {
        let mut p = Pipeline::new("l2l");
        let input = p.add_input(desc("in"));
        let mid = p.add_image(desc("mid"));
        let out = p.add_image(desc("out"));
        let a = p.add_kernel(Kernel::simple(
            "b1",
            vec![input],
            mid,
            vec![BorderMode::Clamp],
            vec![gauss3()],
            vec![],
        ));
        let b = p.add_kernel(Kernel::simple(
            "b2",
            vec![mid],
            out,
            vec![BorderMode::Clamp],
            vec![gauss3()],
            vec![],
        ));
        p.mark_output(out);
        let info = check_block(&p, &[a, b]).unwrap();
        let fused = synthesize(&p, &info, true);
        let mult = stage_multiplicities(&fused, BlockShape::DEFAULT);
        // Tile for extent (1,1): 204 samples over 128 threads.
        assert!((mult[0] - 204.0 / 128.0).abs() < 1e-9);
        let _ = FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()));
    }

    #[test]
    fn rgb_images_scale_traffic() {
        let mut p = Pipeline::new("rgb");
        let input = p.add_input(ImageDesc::new("in", 64, 64, 3));
        let out = p.add_image(ImageDesc::new("out", 64, 64, 3));
        let body = (0..3)
            .map(|c| {
                Expr::Load {
                    slot: 0,
                    dx: 0,
                    dy: 0,
                    ch: c,
                } * Expr::Const(2.0)
            })
            .collect();
        p.add_kernel(Kernel::simple(
            "scale",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            body,
            vec![],
        ));
        p.mark_output(out);
        let c = analyze_kernel(&p, &p.kernels()[0], BlockShape::DEFAULT);
        assert_eq!(c.per_thread.dram_ld, 3.0);
        assert_eq!(c.per_thread.dram_st, 3.0);
    }
}
