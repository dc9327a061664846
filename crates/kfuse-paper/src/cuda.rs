//! CUDA kernel emission.
//!
//! Mirrors the structure of Hipacc's CUDA backend as the paper describes
//! it:
//!
//! * one `__global__` function per (possibly fused) kernel, launched on
//!   2D thread blocks;
//! * window-accessed **external inputs** are staged into `__shared__`
//!   tiles by a cooperative fill loop with border handling, followed by
//!   `__syncthreads()`;
//! * **register stages** (point-consumed or point-bodied inlined
//!   producers) become `__device__` functions invoked per use — the
//!   recompute that Eq. 7 charges — with their coordinates
//!   **index-exchanged** against the iteration space per the consumer's
//!   border mode (Section IV-B);
//! * **shared stages** (local-to-local intermediates) get their own
//!   `__shared__` tile, filled by evaluating the stage's device function at
//!   exchanged halo coordinates, so consumers read exactly the values the
//!   unfused pipeline would have produced (Figure 4c).
//!
//! One simplification relative to Hipacc is documented here: stage device
//! functions read their external inputs through bordered *global* loads
//! rather than through the tile (device functions cannot capture
//! `__shared__` arrays without threading pointers through every call); the
//! traffic difference is what the [`crate::cost`] model charges, and the
//! values are identical.

use crate::expr::{emit_expr, float_lit, LoadEmitter};
use kfuse_core::{absolute_extents, input_access_extents};
use kfuse_ir::{BorderMode, Kernel, MemSpace, Pipeline, Stage, StageRef};
use kfuse_model::BlockShape;
use std::fmt::Write as _;

/// Sanitizes a kernel/stage name into a C identifier.
pub fn c_ident(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// The common prelude: includes, block-shape macros, and the border-
/// exchange helpers of Section IV-B.
pub fn prelude(block: BlockShape) -> String {
    format!(
        "\
// ==== generated by kfuse: min-cut kernel fusion (CGO'19 reproduction) ====
#include <cuda_runtime.h>
#include <math.h>

#define KF_BX {bx}
#define KF_BY {by}

__device__ __forceinline__ int kf_border_clamp(int i, int n) {{
    return min(max(i, 0), n - 1);
}}
__device__ __forceinline__ int kf_border_mirror(int i, int n) {{
    int p = 2 * n;
    int m = ((i % p) + p) % p;
    return (m < n) ? m : (p - 1 - m);
}}
__device__ __forceinline__ int kf_border_repeat(int i, int n) {{
    return ((i % n) + n) % n;
}}
__device__ __forceinline__ int kf_in_bounds(int x, int y, int w, int h) {{
    return x >= 0 && x < w && y >= 0 && y < h;
}}
",
        bx = block.bx,
        by = block.by
    )
}

fn border_fn(mode: BorderMode) -> Option<&'static str> {
    match mode {
        BorderMode::Clamp => Some("kf_border_clamp"),
        BorderMode::Mirror => Some("kf_border_mirror"),
        BorderMode::Repeat => Some("kf_border_repeat"),
        BorderMode::Constant(_) => None,
    }
}

/// Bordered read of `ptr` (image of `w × h × c`) at `(xe, ye)` where the
/// coordinate expressions may be out of bounds.
#[allow(clippy::too_many_arguments)]
fn bordered_global_read(
    ptr: &str,
    xe: &str,
    ye: &str,
    w: &str,
    h: &str,
    channels: usize,
    ch: usize,
    mode: BorderMode,
) -> String {
    let idx = |x: &str, y: &str| {
        if channels == 1 {
            format!("{ptr}[({y}) * {w} + ({x})]")
        } else {
            format!("{ptr}[(({y}) * {w} + ({x})) * {channels} + {ch}]")
        }
    };
    match border_fn(mode) {
        Some(f) => idx(&format!("{f}({xe}, {w})"), &format!("{f}({ye}, {h})")),
        None => {
            let BorderMode::Constant(v) = mode else {
                unreachable!()
            };
            format!(
                "(kf_in_bounds({xe}, {ye}, {w}, {h}) ? {} : {})",
                idx(&format!("({xe})"), &format!("({ye})")),
                float_lit(v)
            )
        }
    }
}

/// Names of the kernel's value parameters: one `const float*` per input.
fn input_params(p: &Pipeline, k: &Kernel) -> Vec<(String, usize)> {
    k.inputs
        .iter()
        .enumerate()
        .map(|(i, &img)| (format!("in{i}"), p.image(img).channels))
        .collect()
}

/// Emitter context for one stage's device function: all loads resolve to
/// bordered global reads (inputs) or recursive stage calls (index
/// exchange).
struct StageFnEmitter<'a> {
    p: &'a Pipeline,
    k: &'a Kernel,
    kname: String,
    stage: &'a Stage,
}

impl LoadEmitter for StageFnEmitter<'_> {
    fn load(&self, slot: usize, dx: i32, dy: i32, ch: usize) -> String {
        let xe = offset_expr("x", dx);
        let ye = offset_expr("y", dy);
        match self.stage.refs[slot] {
            StageRef::Input(i) => {
                let channels = self.p.image(self.k.inputs[i]).channels;
                bordered_global_read(
                    &format!("in{i}"),
                    &xe,
                    &ye,
                    "w",
                    "h",
                    channels,
                    ch,
                    self.stage.borders[slot],
                )
            }
            StageRef::Stage(j) => stage_call(
                self.p,
                self.k,
                &self.kname,
                j,
                ch,
                &xe,
                &ye,
                self.stage.borders[slot],
            ),
        }
    }

    fn param(&self, i: usize) -> String {
        float_lit(self.stage.params[i])
    }
}

fn offset_expr(base: &str, d: i32) -> String {
    match d {
        0 => base.to_string(),
        d if d > 0 => format!("{base} + {d}"),
        d => format!("{base} - {}", -d),
    }
}

/// A call to stage `j`'s device function at an exchanged coordinate — the
/// paper's index exchange: the intermediate coordinate is remapped into
/// the iteration space by the *consumer's* border mode before the producer
/// is evaluated.
#[allow(clippy::too_many_arguments)]
fn stage_call(
    p: &Pipeline,
    k: &Kernel,
    kname: &str,
    j: usize,
    ch: usize,
    xe: &str,
    ye: &str,
    mode: BorderMode,
) -> String {
    let fname = stage_fn_name(kname, k, j, ch);
    let args = stage_fn_args(p, k);
    match border_fn(mode) {
        Some(f) => format!("{fname}({args}, {f}({xe}, w), {f}({ye}, h))"),
        None => {
            let BorderMode::Constant(v) = mode else {
                unreachable!()
            };
            format!(
                "(kf_in_bounds({xe}, {ye}, w, h) ? {fname}({args}, {xe}, {ye}) : {})",
                float_lit(v)
            )
        }
    }
}

fn stage_fn_name(kname: &str, k: &Kernel, j: usize, ch: usize) -> String {
    format!("{kname}_{}_c{ch}", c_ident(&k.stages[j].name))
}

fn stage_fn_args(p: &Pipeline, k: &Kernel) -> String {
    let mut args: Vec<String> = input_params(p, k).iter().map(|(n, _)| n.clone()).collect();
    args.push("w".into());
    args.push("h".into());
    args.join(", ")
}

/// Emits the `__device__` functions for every non-root stage of `k`.
fn emit_stage_fns(p: &Pipeline, k: &Kernel, kname: &str, out: &mut String) {
    for (j, stage) in k.stages.iter().enumerate() {
        if j == k.root {
            continue;
        }
        let space = match stage.space {
            MemSpace::Register => "register stage (recomputed per use)",
            MemSpace::Shared => "shared-memory stage (tile below)",
            MemSpace::Global => unreachable!("non-root stages are never global"),
        };
        for ch in 0..stage.channels() {
            let params: String = input_params(p, k)
                .iter()
                .map(|(n, _)| format!("const float* __restrict__ {n}, "))
                .collect();
            let _ = writeln!(
                out,
                "// {space}: inlined producer `{}`\n__device__ __forceinline__ float {}({}int w, int h, int x, int y) {{",
                stage.name,
                stage_fn_name(kname, k, j, ch),
                params
            );
            let emitter = StageFnEmitter {
                p,
                k,
                kname: kname.to_string(),
                stage,
            };
            let _ = writeln!(out, "    return {};", emit_expr(&stage.body[ch], &emitter));
            out.push_str("}\n");
        }
    }
}

/// Load emitter for the root body: staged inputs and shared stages read
/// tiles; everything else falls back to the stage-function path.
struct RootEmitter<'a> {
    p: &'a Pipeline,
    k: &'a Kernel,
    kname: String,
    stage: &'a Stage,
    staged_inputs: &'a [Option<(i32, i32)>],
    shared_stage_ext: &'a [Option<(i32, i32)>],
}

impl LoadEmitter for RootEmitter<'_> {
    fn load(&self, slot: usize, dx: i32, dy: i32, ch: usize) -> String {
        match self.stage.refs[slot] {
            StageRef::Input(i) => {
                if let Some((ex, ey)) = self.staged_inputs[i] {
                    tile_read(&format!("s_in{i}"), ex, ey, dx, dy, ch)
                } else {
                    let channels = self.p.image(self.k.inputs[i]).channels;
                    if (dx, dy) == (0, 0) {
                        // The root body runs behind the bounds check, so a
                        // centre read needs no border handling.
                        if channels == 1 {
                            format!("in{i}[y * w + x]")
                        } else {
                            format!("in{i}[(y * w + x) * {channels} + {ch}]")
                        }
                    } else {
                        bordered_global_read(
                            &format!("in{i}"),
                            &offset_expr("x", dx),
                            &offset_expr("y", dy),
                            "w",
                            "h",
                            channels,
                            ch,
                            self.stage.borders[slot],
                        )
                    }
                }
            }
            StageRef::Stage(j) => {
                if let Some((ex, ey)) = self.shared_stage_ext[j] {
                    tile_read(&tile_name(&self.kname, self.k, j), ex, ey, dx, dy, ch)
                } else {
                    stage_call(
                        self.p,
                        self.k,
                        &self.kname,
                        j,
                        ch,
                        &offset_expr("x", dx),
                        &offset_expr("y", dy),
                        self.stage.borders[slot],
                    )
                }
            }
        }
    }

    fn param(&self, i: usize) -> String {
        float_lit(self.stage.params[i])
    }
}

fn tile_name(kname: &str, k: &Kernel, j: usize) -> String {
    format!("s_{}_{}", kname, c_ident(&k.stages[j].name))
}

fn tile_dims(block: BlockShape, ex: i32, ey: i32) -> (usize, usize) {
    (block.bx + 2 * ex as usize, block.by + 2 * ey as usize)
}

fn tile_read(tile: &str, ex: i32, ey: i32, dx: i32, dy: i32, ch: usize) -> String {
    let tw = format!("(KF_BX + {})", 2 * ex);
    let lx = offset_expr(&format!("threadIdx.x + {ex}"), dx);
    let ly = offset_expr(&format!("threadIdx.y + {ey}"), dy);
    format!(
        "{tile}[(({ch}) * (KF_BY + {}) + ({ly})) * {tw} + ({lx})]",
        2 * ey
    )
}

/// Emits a cooperative tile-fill loop writing `element_of(ax, ay, ch)` into
/// `tile` for halo extent `(ex, ey)`.
fn emit_tile_fill(
    out: &mut String,
    tile: &str,
    channels: usize,
    block: BlockShape,
    (ex, ey): (i32, i32),
    element_of: impl Fn(&str, &str, usize) -> String,
) {
    let (tw, th) = tile_dims(block, ex, ey);
    let _ = writeln!(
        out,
        "    __shared__ float {tile}[{channels} * {th} * {tw}];\n    \
         for (int i = threadIdx.y * KF_BX + threadIdx.x; i < {th} * {tw}; i += KF_BX * KF_BY) {{\n        \
         const int lx = i % {tw};\n        \
         const int ly = i / {tw};\n        \
         const int ax = (int)(blockIdx.x * KF_BX) - {ex} + lx;\n        \
         const int ay = (int)(blockIdx.y * KF_BY) - {ey} + ly;"
    );
    for ch in 0..channels {
        let _ = writeln!(
            out,
            "        {tile}[({ch} * {th} + ly) * {tw} + lx] = {};",
            element_of("ax", "ay", ch)
        );
    }
    out.push_str("    }\n");
}

/// Emits the complete `__global__` function (plus stage device functions)
/// for one kernel.
pub fn emit_kernel(p: &Pipeline, k: &Kernel, block: BlockShape) -> String {
    let kname = c_ident(&k.name);
    let mut out = String::new();
    emit_stage_fns(p, k, &kname, &mut out);

    let abs = absolute_extents(k);
    let in_ext = input_access_extents(k);
    let staged_inputs: Vec<Option<(i32, i32)>> = in_ext
        .iter()
        .map(|&e| (k.input_staging && e != (0, 0)).then_some(e))
        .collect();
    let shared_stage_ext: Vec<Option<(i32, i32)>> = k
        .stages
        .iter()
        .enumerate()
        .map(|(j, s)| (s.space == MemSpace::Shared).then_some(abs[j]))
        .collect();

    // Signature.
    let params: String = input_params(p, k)
        .iter()
        .map(|(n, _)| format!("const float* __restrict__ {n}, "))
        .collect();
    let out_channels = p.image(k.output).channels;
    let _ = writeln!(
        out,
        "// fused from {} stage(s): {}\n__global__ void kf_{kname}({params}float* __restrict__ out, int w, int h) {{",
        k.stages.len(),
        k.stages.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(" ; ")
    );
    out.push_str(
        "    const int x = (int)(blockIdx.x * KF_BX + threadIdx.x);\n    \
         const int y = (int)(blockIdx.y * KF_BY + threadIdx.y);\n",
    );

    // Staged external inputs: tile fill with the border mode of the first
    // reading slot.
    let mut needs_sync = false;
    for (i, staged) in staged_inputs.iter().enumerate() {
        let Some(ext) = staged else { continue };
        let channels = p.image(k.inputs[i]).channels;
        let mode = first_border_of_input(k, i);
        emit_tile_fill(
            &mut out,
            &format!("s_in{i}"),
            channels,
            block,
            *ext,
            |ax, ay, ch| {
                bordered_global_read(&format!("in{i}"), ax, ay, "w", "h", channels, ch, mode)
            },
        );
        needs_sync = true;
    }

    // Shared stages: tile fill by evaluating the stage function at
    // exchanged coordinates (the consumer's border mode).
    for (j, ext) in shared_stage_ext.iter().enumerate() {
        let Some(ext) = ext else { continue };
        let channels = k.stages[j].channels();
        let mode = first_border_of_stage(k, j);
        emit_tile_fill(
            &mut out,
            &tile_name(&kname, k, j),
            channels,
            block,
            *ext,
            |ax, ay, ch| stage_call(p, k, &kname, j, ch, ax, ay, mode),
        );
        needs_sync = true;
    }
    if needs_sync {
        out.push_str("    __syncthreads();\n");
    }

    out.push_str("    if (x >= w || y >= h) return;\n");

    // Root body.
    let root = &k.stages[k.root];
    let emitter = RootEmitter {
        p,
        k,
        kname: kname.clone(),
        stage: root,
        staged_inputs: &staged_inputs,
        shared_stage_ext: &shared_stage_ext,
    };
    for ch in 0..out_channels {
        let store = if out_channels == 1 {
            "out[y * w + x]".to_string()
        } else {
            format!("out[(y * w + x) * {out_channels} + {ch}]")
        };
        let _ = writeln!(
            out,
            "    {store} = {};",
            emit_expr(&root.body[ch], &emitter)
        );
    }
    out.push_str("}\n");
    out
}

/// Border mode of the first slot through which kernel `k` reads input `i`.
fn first_border_of_input(k: &Kernel, i: usize) -> BorderMode {
    for s in &k.stages {
        for (slot, r) in s.refs.iter().enumerate() {
            if *r == StageRef::Input(i) {
                return s.borders[slot];
            }
        }
    }
    BorderMode::Clamp
}

/// Border mode of the first slot through which stage `j` is consumed.
fn first_border_of_stage(k: &Kernel, j: usize) -> BorderMode {
    for s in &k.stages {
        for (slot, r) in s.refs.iter().enumerate() {
            if *r == StageRef::Stage(j) {
                return s.borders[slot];
            }
        }
    }
    BorderMode::Clamp
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{Expr, ImageDesc};

    fn point_pipeline() -> Pipeline {
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 64, 64, 1));
        let out = p.add_image(ImageDesc::new("out", 64, 64, 1));
        p.add_kernel(Kernel::simple(
            "dbl",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::Const(2.0)],
            vec![],
        ));
        p.mark_output(out);
        p
    }

    #[test]
    fn identifiers_are_sanitized() {
        assert_eq!(c_ident("sx+gx"), "sx_gx");
        assert_eq!(c_ident("atrous1+scoto"), "atrous1_scoto");
        assert_eq!(c_ident("3way"), "_3way");
    }

    #[test]
    fn point_kernel_is_plain() {
        let p = point_pipeline();
        let src = emit_kernel(&p, &p.kernels()[0], BlockShape::DEFAULT);
        assert!(src.contains("__global__ void kf_dbl("));
        assert!(src.contains("out[y * w + x] = (in0[y * w + x] * 2.0f);"));
        assert!(!src.contains("__shared__"), "point kernels stage nothing");
        assert!(!src.contains("__syncthreads"));
    }

    #[test]
    fn local_kernel_stages_and_syncs() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 64, 64, 1));
        let out = p.add_image(ImageDesc::new("out", 64, 64, 1));
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        p.add_kernel(Kernel::simple(
            "gauss",
            vec![input],
            out,
            vec![BorderMode::Mirror],
            vec![Expr::convolve(0, 0, &mask)],
            vec![],
        ));
        p.mark_output(out);
        let src = emit_kernel(&p, &p.kernels()[0], BlockShape::DEFAULT);
        assert!(src.contains("__shared__ float s_in0[1 * 6 * 34];"));
        assert!(src.contains("__syncthreads();"));
        assert!(src.contains("kf_border_mirror"));
        // Window reads hit the tile, not global memory.
        assert!(src.contains("s_in0[((0) * (KF_BY + 2) + (threadIdx.y + 1 - 1)) * (KF_BX + 2) + (threadIdx.x + 1 - 1)]"));
    }

    #[test]
    fn braces_balance() {
        let p = point_pipeline();
        let src =
            prelude(BlockShape::DEFAULT) + &emit_kernel(&p, &p.kernels()[0], BlockShape::DEFAULT);
        let open = src.matches('{').count();
        let close = src.matches('}').count();
        assert_eq!(open, close, "unbalanced braces in generated source");
        let po = src.matches('(').count();
        let pc = src.matches(')').count();
        assert_eq!(po, pc, "unbalanced parentheses in generated source");
    }

    #[test]
    fn constant_border_guards_with_bounds_check() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 8, 8, 1));
        let out = p.add_image(ImageDesc::new("out", 8, 8, 1));
        let mut k = Kernel::simple(
            "s",
            vec![input],
            out,
            vec![BorderMode::Constant(7.0)],
            vec![Expr::load_at(0, 1, 0) + Expr::load_at(0, -1, 0)],
            vec![],
        );
        k.input_staging = false;
        p.mark_output(out);
        let src = emit_kernel(&p, &k, BlockShape::DEFAULT);
        assert!(src.contains("kf_in_bounds"));
        assert!(src.contains("7.0f"));
    }
}
