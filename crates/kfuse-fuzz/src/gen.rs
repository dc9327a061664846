//! Random-but-valid pipeline generation.
//!
//! The generator is biased toward the cases the paper's correctness story
//! hinges on (Sections II and IV): degenerate 1×1 and near-1 images, mask
//! radii at or beyond the image/tile dimension (where index exchange must
//! wrap several times), every border mode, multi-channel images, the
//! Figure 2 topologies — shared inputs, external outputs, and diamonds —
//! and **exactly-separable convolutions** (power-of-two outer-product
//! masks, sometimes behind a hoisted dyadic scale), so the differential
//! harness's separable lane actually splits stages during a sweep.
//! Beyond single-stage kernels it also emits **pre-fused multi-stage
//! kernels** (a `Shared`/`Register` producer stage under a `Global` root),
//! so the deep-halo executor paths are exercised even when the planner
//! would decline to fuse anything on a tiny image. In half the pipelines
//! one kernel reads one slot of one stage through a **transcendental per
//! tap** (`ln(|v| + 1)` or `exp(-|v| / 32)` of every load), the shape the
//! strip engine stages as a plane of its own when it recurs at two or more
//! offsets (`kfuse_sim::stage_tap_subexpressions`). Those draws come from a
//! side stream, so every other draw — and the shape of every pipeline a
//! pinned seed was chosen for — is what it was before the bias existed;
//! one kernel per pipeline keeps long pipelines (the benchmark's
//! `plan_cold` draws up to 24 kernels) close to their old size.
//!
//! Every generated pipeline passes [`Pipeline::validate`]; the generator
//! asserts this, so a failure here is a generator bug, not a finding.

use crate::rng::SplitMix64;
use kfuse_ir::{
    BinOp, BorderMode, Expr, ImageDesc, ImageId, Kernel, MemSpace, Pipeline, Stage, StageRef, UnOp,
};

/// Knobs of the pipeline generator. The defaults match what
/// [`crate::check_seed`] fuzzes with; the shrinker narrows them.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum kernels per pipeline (at least one is always generated).
    pub max_kernels: usize,
    /// Maximum mask radius per axis. Radii are drawn from
    /// `{0, 1, 2, dim, dim+1}` and clamped here, so tiny images still see
    /// radius ≥ dimension.
    pub max_radius: i32,
    /// Whether to emit pre-fused multi-stage kernels.
    pub multi_stage: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            max_kernels: 5,
            max_radius: 4,
            multi_stage: true,
        }
    }
}

/// Image sizes, biased toward the degenerate end: single pixels, single
/// rows/columns, and images smaller than the default tile.
const SIZES: &[(usize, usize)] = &[
    (1, 1),
    (1, 4),
    (3, 1),
    (2, 2),
    (3, 3),
    (4, 5),
    (7, 3),
    (8, 8),
    (13, 9),
    (17, 16),
    (32, 24),
];

/// Generates the pipeline for `seed` under the default [`GenConfig`].
pub fn generate(seed: u64) -> Pipeline {
    generate_with(seed, &GenConfig::default())
}

/// Generates a random valid pipeline, deterministically from `seed`.
pub fn generate_with(seed: u64, cfg: &GenConfig) -> Pipeline {
    let mut rng = SplitMix64::new(seed);
    let mut taps = SplitMix64::new(seed ^ 0x7461_7073_2f66_6e21);
    let &(w, h) = rng.pick(SIZES);
    let mut p = Pipeline::new(format!("fuzz-{seed:#x}"));

    let n_inputs = 1 + rng.below(2) as usize;
    // Images available as kernel sources: (id, channels).
    let mut avail: Vec<(ImageId, usize)> = Vec::new();
    for i in 0..n_inputs {
        let ch = *rng.pick(&[1usize, 1, 1, 2, 3]);
        let id = p.add_input(ImageDesc::new(format!("in{i}"), w, h, ch));
        avail.push((id, ch));
    }

    let n_kernels = 1 + rng.below(cfg.max_kernels as u64) as usize;
    let tap_kernel = taps
        .chance(1, 2)
        .then(|| taps.below(n_kernels as u64) as usize);
    let mut produced: Vec<ImageId> = Vec::new();
    for ki in 0..n_kernels {
        // Re-picking an already-consumed image yields shared-input and
        // diamond topologies; duplicate picks give one kernel two slots
        // onto the same image.
        let n_srcs = 1 + usize::from(rng.chance(1, 3));
        let srcs: Vec<(ImageId, usize)> = (0..n_srcs).map(|_| *rng.pick(&avail)).collect();
        let out_ch = *rng.pick(&[1usize, 1, 1, 2, 3]);
        let out = p.add_image(ImageDesc::new(format!("img{ki}"), w, h, out_ch));
        let kernel = if cfg.multi_stage && rng.chance(1, 4) {
            gen_fused_kernel(&mut rng, cfg, ki, &srcs, out, out_ch, w, h)
        } else {
            gen_simple_kernel(&mut rng, cfg, ki, &srcs, out, out_ch, w, h)
        };
        p.add_kernel(if tap_kernel == Some(ki) {
            transcendental_taps(&mut taps, kernel)
        } else {
            kernel
        });
        produced.push(out);
        avail.push((out, out_ch));
    }

    // Every sink must be observable, or the pipeline computes nothing.
    for &img in &produced {
        if p.consumers_of(img).is_empty() {
            p.mark_output(img);
        }
    }
    // External-output topology (Figure 2c): sometimes a *consumed*
    // intermediate additionally escapes the pipeline, which pins its
    // fusion edge to ε.
    let consumed: Vec<ImageId> = produced
        .iter()
        .copied()
        .filter(|&i| !p.consumers_of(i).is_empty())
        .collect();
    if !consumed.is_empty() && rng.chance(1, 3) {
        p.mark_output(*rng.pick(&consumed));
    }

    assert!(
        p.validate().is_ok(),
        "generator emitted an invalid pipeline for seed {seed:#x}: {:?}",
        p.validate()
    );
    p
}

/// A mask radius from `{0, 1, 2, dim, dim+1}` clamped to `max_radius` —
/// covering point kernels, ordinary stencils, and radius ≥ dimension.
fn pick_radius(rng: &mut SplitMix64, cfg: &GenConfig, dim: usize) -> i32 {
    let d = dim as i32;
    let choices = [0, 0, 1, 1, 2, d, d + 1];
    (*rng.pick(&choices)).clamp(0, cfg.max_radius)
}

fn pick_border(rng: &mut SplitMix64) -> BorderMode {
    match rng.below(5) {
        0 => BorderMode::Clamp,
        1 => BorderMode::Mirror,
        2 => BorderMode::Repeat,
        3 => BorderMode::Constant(0.0),
        _ => BorderMode::Constant(-7.5),
    }
}

/// A convolution-like sum over the `(2rx+1)×(2ry+1)` window of `slot`:
/// the center tap is always present, other taps are kept with probability
/// 3/5, each load reads a random channel below `src_ch`, and terms combine
/// with `+`/`-`/`min`/`max`.
fn conv_expr(rng: &mut SplitMix64, slot: usize, rx: i32, ry: i32, src_ch: usize) -> Expr {
    let mut acc: Option<Expr> = None;
    for dy in -ry..=ry {
        for dx in -rx..=rx {
            let center = dx == 0 && dy == 0;
            if !center && rng.chance(2, 5) {
                continue;
            }
            let ch = rng.below(src_ch as u64) as usize;
            let load = Expr::Load { slot, dx, dy, ch };
            let term = if rng.chance(1, 4) {
                load
            } else {
                Expr::Bin(
                    BinOp::Mul,
                    Box::new(Expr::Const(rng.coef())),
                    Box::new(load),
                )
            };
            acc = Some(match acc {
                None => term,
                Some(a) => combine(rng, a, term),
            });
        }
    }
    acc.expect("window always contains the center tap")
}

/// An exactly-separable convolution: the outer product of two
/// power-of-two tap vectors, sometimes behind a hoisted dyadic scale (the
/// shape the DSL's normalized-mask lowering emits). Powers of two keep
/// every product and pivot division exact in `f32`, so
/// [`kfuse_ir::stage_factorization`]'s bitwise outer-product check is
/// guaranteed to accept the mask — these bodies are what the differential
/// harness's separable lane splits into row/column passes.
fn separable_conv_expr(rng: &mut SplitMix64, slot: usize, ch: usize, rx: i32, ry: i32) -> Expr {
    const TAPS: [f32; 6] = [-4.0, -2.0, -1.0, 1.0, 2.0, 4.0];
    let col: Vec<f32> = (0..2 * ry + 1).map(|_| *rng.pick(&TAPS)).collect();
    let row: Vec<f32> = (0..2 * rx + 1).map(|_| *rng.pick(&TAPS)).collect();
    let mask: Vec<Vec<f32>> = col
        .iter()
        .map(|&u| row.iter().map(|&v| u * v).collect())
        .collect();
    let rows: Vec<&[f32]> = mask.iter().map(|r| &r[..]).collect();
    let conv = Expr::convolve(slot, ch, &rows);
    if rng.chance(1, 3) {
        conv * Expr::Const(0.0625)
    } else {
        conv
    }
}

fn combine(rng: &mut SplitMix64, a: Expr, b: Expr) -> Expr {
    let op = match rng.below(8) {
        0 => BinOp::Sub,
        1 => BinOp::Min,
        2 => BinOp::Max,
        _ => BinOp::Add,
    };
    Expr::Bin(op, Box::new(a), Box::new(b))
}

/// Occasionally wraps a body in a unary op (kept NaN-free via `abs` under
/// `sqrt` so mismatches stay attributable to load/border arithmetic).
fn maybe_unary(rng: &mut SplitMix64, e: Expr) -> Expr {
    match rng.below(8) {
        0 => Expr::Un(UnOp::Abs, Box::new(e)),
        1 => Expr::Un(UnOp::Neg, Box::new(e)),
        2 => Expr::Un(UnOp::Floor, Box::new(e)),
        3 => Expr::Un(UnOp::Sqrt, Box::new(Expr::Un(UnOp::Abs, Box::new(e)))),
        _ => e,
    }
}

/// `k` with every load of one slot of one stage wrapped in the same
/// transcendental: `ln(|v| + 1)` or `exp(-|v| / 32)`, both finite on finite
/// inputs.
fn transcendental_taps(rng: &mut SplitMix64, mut k: Kernel) -> Kernel {
    let s = rng.below(k.stages.len() as u64) as usize;
    let stage = &mut k.stages[s];
    let slot = rng.below(stage.refs.len() as u64) as usize;
    let log = rng.chance(1, 2);
    let f = |load: Expr| {
        let abs = Expr::Un(UnOp::Abs, Box::new(load));
        if log {
            Expr::Un(UnOp::Log, Box::new(abs + Expr::Const(1.0)))
        } else {
            Expr::Un(UnOp::Exp, Box::new(-abs * Expr::Const(0.03125)))
        }
    };
    let wrap = |at, dx, dy, ch| {
        let load = Expr::Load {
            slot: at,
            dx,
            dy,
            ch,
        };
        if at == slot {
            f(load)
        } else {
            load
        }
    };
    stage.body = stage.body.iter().map(|e| e.map_loads(&wrap)).collect();
    k
}

#[allow(clippy::too_many_arguments)]
fn gen_simple_kernel(
    rng: &mut SplitMix64,
    cfg: &GenConfig,
    ki: usize,
    srcs: &[(ImageId, usize)],
    out: ImageId,
    out_ch: usize,
    w: usize,
    h: usize,
) -> Kernel {
    let inputs: Vec<ImageId> = srcs.iter().map(|s| s.0).collect();
    let borders: Vec<BorderMode> = srcs.iter().map(|_| pick_border(rng)).collect();
    // Sometimes the whole kernel is a pure exactly-separable convolution:
    // one slot shared by every channel (stage_factorization requires the
    // channels' borders to agree), radius 1–2 per axis. The border is
    // still random, so `Constant` covers the must-not-split path.
    if cfg.max_radius >= 1 && rng.chance(1, 4) {
        let slot = rng.below(srcs.len() as u64) as usize;
        let max_r = cfg.max_radius.min(2) as u64;
        let rx = 1 + rng.below(max_r) as i32;
        let ry = 1 + rng.below(max_r) as i32;
        let body = (0..out_ch)
            .map(|_| {
                let ch = rng.below(srcs[slot].1 as u64) as usize;
                separable_conv_expr(rng, slot, ch, rx, ry)
            })
            .collect();
        return Kernel::simple(format!("k{ki}"), inputs, out, borders, body, vec![]);
    }
    let mut body = Vec::with_capacity(out_ch);
    for _ in 0..out_ch {
        let slot = rng.below(srcs.len() as u64) as usize;
        let rx = pick_radius(rng, cfg, w);
        let ry = pick_radius(rng, cfg, h);
        let mut e = conv_expr(rng, slot, rx, ry, srcs[slot].1);
        if srcs.len() > 1 && rng.chance(1, 2) {
            let other = (slot + 1) % srcs.len();
            let ch = rng.below(srcs[other].1 as u64) as usize;
            e = combine(
                rng,
                e,
                Expr::Load {
                    slot: other,
                    dx: 0,
                    dy: 0,
                    ch,
                },
            );
        }
        body.push(maybe_unary(rng, e));
    }
    Kernel::simple(format!("k{ki}"), inputs, out, borders, body, vec![])
}

/// A pre-fused two-stage kernel: a non-`Global` producer stage feeding a
/// root stage through [`StageRef::Stage`] — the shape `synthesize`
/// produces, built directly so the executor's halo-plane and
/// index-exchange paths run on every image size the generator picks.
#[allow(clippy::too_many_arguments)]
fn gen_fused_kernel(
    rng: &mut SplitMix64,
    cfg: &GenConfig,
    ki: usize,
    srcs: &[(ImageId, usize)],
    out: ImageId,
    out_ch: usize,
    w: usize,
    h: usize,
) -> Kernel {
    let inputs: Vec<ImageId> = srcs.iter().map(|s| s.0).collect();
    let name = format!("k{ki}a+k{ki}b");

    let prod_ch = *rng.pick(&[1usize, 1, 2]);
    let mut prod_body = Vec::with_capacity(prod_ch);
    for _ in 0..prod_ch {
        let slot = rng.below(srcs.len() as u64) as usize;
        let rx = pick_radius(rng, cfg, w);
        let ry = pick_radius(rng, cfg, h);
        prod_body.push(conv_expr(rng, slot, rx, ry, srcs[slot].1));
    }
    let producer = Stage {
        name: format!("k{ki}a"),
        refs: (0..srcs.len()).map(StageRef::Input).collect(),
        borders: srcs.iter().map(|_| pick_border(rng)).collect(),
        body: prod_body.into(),
        params: vec![],
        // Placement follows the root's consumption pattern, set below.
        space: MemSpace::Register,
    };

    let rrx = pick_radius(rng, cfg, w);
    let rry = pick_radius(rng, cfg, h);
    let mut root_body = Vec::with_capacity(out_ch);
    for _ in 0..out_ch {
        let mut e = conv_expr(rng, 0, rrx, rry, prod_ch);
        if rng.chance(1, 2) {
            let ch = rng.below(srcs[0].1 as u64) as usize;
            e = combine(
                rng,
                e,
                Expr::Load {
                    slot: 1,
                    dx: 0,
                    dy: 0,
                    ch,
                },
            );
        }
        root_body.push(maybe_unary(rng, e));
    }
    let root = Stage {
        name: format!("k{ki}b"),
        refs: vec![StageRef::Stage(0), StageRef::Input(0)],
        borders: vec![pick_border(rng), pick_border(rng)],
        body: root_body.into(),
        params: vec![],
        space: MemSpace::Global,
    };

    let mut stages = vec![producer, root];
    // Window-consumed producers live in shared memory, point-consumed ones
    // in registers (paper Section II-C3).
    if rrx != 0 || rry != 0 {
        stages[0].space = MemSpace::Shared;
    }
    let k = Kernel {
        name,
        inputs,
        output: out,
        stages,
        root: 1,
        input_staging: true,
    };
    debug_assert!(k.check().is_ok(), "{:?}", k.check());
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed in a broad sweep yields a valid pipeline (the generator
    /// itself asserts validity; this pins the property in `cargo test`).
    #[test]
    fn generated_pipelines_validate() {
        for seed in 0..200 {
            let p = generate(seed);
            assert!(!p.kernels().is_empty());
            assert!(!p.outputs().is_empty(), "seed {seed}: no outputs marked");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 99, 0xDEAD_BEEF] {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.kernels().len(), b.kernels().len());
            for (ka, kb) in a.kernels().iter().zip(b.kernels()) {
                assert_eq!(ka, kb);
            }
        }
    }

    /// The sweep actually covers the shapes the fuzzer exists for:
    /// degenerate images, fused multi-stage kernels, every border mode,
    /// multi-channel images, radius ≥ dimension, exactly-separable stages,
    /// and per-tap transcendentals the executor stages.
    #[test]
    fn sweep_covers_target_shapes() {
        let mut tiny = false;
        let mut fused = false;
        let mut multi_channel = false;
        let mut radius_ge_dim = false;
        let mut separable = false;
        let mut taps = false;
        let mut modes = [false; 4];
        for seed in 0..400 {
            let p = generate(seed);
            separable |= p
                .kernels()
                .iter()
                .flat_map(|k| &k.stages)
                .any(|s| kfuse_ir::stage_factorization(s).is_some());
            let (w, h) = {
                let d = p.image(kfuse_ir::ImageId(0));
                (d.width, d.height)
            };
            tiny |= w.min(h) == 1;
            for k in p.kernels() {
                fused |= k.stages.len() > 1;
                taps |= kfuse_sim::stage_tap_subexpressions(k).is_some();
                for s in &k.stages {
                    let (rx, ry) = s.max_extent();
                    radius_ge_dim |= rx as usize >= w || ry as usize >= h;
                    for b in &s.borders {
                        match b {
                            BorderMode::Clamp => modes[0] = true,
                            BorderMode::Mirror => modes[1] = true,
                            BorderMode::Repeat => modes[2] = true,
                            BorderMode::Constant(_) => modes[3] = true,
                        }
                    }
                }
            }
            multi_channel |= p.images().iter().any(|d| d.channels > 1);
        }
        assert!(tiny && fused && multi_channel && radius_ge_dim);
        assert!(separable, "no exactly-separable stage in the sweep");
        assert!(taps, "no kernel with a transcendental per tap to stage");
        assert!(modes.iter().all(|&m| m), "border modes covered: {modes:?}");
    }
}
