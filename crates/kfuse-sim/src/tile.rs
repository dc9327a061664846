//! Strip-by-strip execution of compiled kernels with halo-plane
//! materialization.
//!
//! The reference interpreter resolves a load of an inlined stage by
//! re-evaluating the producer's expression tree at the exchanged position —
//! for a chain of fused local operators that recomputation compounds
//! per *load*, which is exactly the redundant-computation blowup the
//! paper's `φ` term (Eq. 8) models, paid on every pixel instead of only in
//! the halo.
//!
//! This engine is the CPU analogue of the paper's optimized fused kernels:
//!
//! * The iteration space is cut into **full-width row strips** (the
//!   "blocks" of Section II-C3). On a CPU a row is contiguous, so the
//!   widest block is the cheapest one: one instruction dispatch covers a
//!   whole row, and there is no left/right halo to recompute.
//! * Each inlined stage is materialized **once per strip** into a scratch
//!   plane — the analogue of staging a producer into shared memory. The
//!   plane is the strip's rows grown by the stage's cumulative vertical
//!   halo and **clipped to the image**, always image-wide, so every plane
//!   cell is one evaluation of the producer at an in-image coordinate.
//! * The strip height is derived per kernel from a cache budget
//!   ([`CompiledKernel::strip_rows`]): as many rows as keep the kernel's
//!   planes inside `STRIP_BYTES`. A kernel without planes runs its band as
//!   one strip.
//! * Halo accesses that leave the iteration space are resolved with the
//!   consumer's border mode against the iteration space — the paper's
//!   index exchange (Figures 4–5) — and then read from the plane at the
//!   exchanged position. The rare exchange that lands outside the plane
//!   (e.g. `Repeat` wrapping to the far side of the image) falls back to
//!   the reference evaluator for that single value.
//! * Strips are processed in parallel across **row bands** with
//!   `std::thread::scope`; each worker owns a reusable scratch-buffer pool,
//!   so steady-state execution does not allocate per strip.
//!
//! Every arithmetic operation is performed on the same values as in the
//! reference interpreter, so outputs are **bit-identical** — materializing
//! a pure computation once and reusing the result cannot change any bit.

use crate::exec::{resolve_kernel_inputs, Evaluator, ExecError};
use crate::hoist::stage_tap_subexpressions;
use crate::simd;
use crate::tape::{compile_stage, Instr, LoadTarget, Tape};
use kfuse_ir::border::Resolved;
use kfuse_ir::{Image, Kernel, Pipeline};
use kfuse_obs::Tracer;

/// Lane offset for the executor's logical row-band lanes in traces: band
/// `b` records on tid `BAND_TID_BASE + b`, keeping band spans separate
/// from the request threads' sequential tids.
pub const BAND_TID_BASE: u64 = 1000;

/// Plane bytes one strip of a kernel may occupy when the strip height is
/// derived (EXPERIMENTS.md "Strips, not tiles" has the sweep).
const STRIP_BYTES: usize = 512 << 10;

/// Tuning knobs for the strip executor.
///
/// `Eq`/`Hash` let the config participate in plan-cache keys: two requests
/// with different strip heights or thread counts compile to distinct plans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Rows per strip; `None` derives them per kernel from the planes'
    /// footprint ([`CompiledKernel::strip_rows`]).
    pub strip_rows: Option<usize>,
    /// Worker threads; `None` uses [`std::thread::available_parallelism`].
    pub threads: Option<usize>,
}

impl TileConfig {
    /// Resolved worker-thread count.
    pub fn resolved_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }
}

/// A kernel compiled for strip execution: one tape per stage plus the
/// cumulative halo each materialized stage must cover.
///
/// The tapes are those of the kernel with its per-tap transcendental
/// subexpressions staged ([`crate::hoist`]), so such a subexpression is
/// one more plane, evaluated once per pixel instead of once per tap.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// The rewritten kernel, or `None` where nothing was staged and the
    /// tapes are the caller's kernel's own.
    staged: Option<Kernel>,
    tapes: Vec<Tape>,
    /// Channels per stage.
    chans: Vec<usize>,
    /// Cumulative halo `(hx, hy)` per stage: how far beyond a pixel the
    /// stage is read by its transitive consumers. Mirrors the quadratic
    /// halo growth of paper Figure 4; only `hy` sizes planes, a strip
    /// being image-wide.
    halos: Vec<(i32, i32)>,
    /// Stages that must be materialized (reachable from the root),
    /// excluding the root itself, in dependence order.
    plane_order: Vec<usize>,
    root: usize,
    max_regs: usize,
}

impl CompiledKernel {
    /// Stages `k`'s per-tap transcendental subexpressions, compiles every
    /// stage and derives halo requirements.
    pub fn new(k: &Kernel) -> Self {
        let staged = stage_tap_subexpressions(k);
        let k = staged.as_ref().unwrap_or(k);
        let tapes: Vec<Tape> = k.stages.iter().map(compile_stage).collect();
        let n = k.stages.len();
        let mut needed = vec![false; n];
        needed[k.root] = true;
        let mut halos = vec![(0i32, 0i32); n];
        // Stage refs point backwards, so a descending scan sees every
        // consumer of stage j before j itself: halos accumulate top-down.
        for i in (0..n).rev() {
            if !needed[i] {
                continue;
            }
            for site in &tapes[i].loads {
                if let LoadTarget::Stage(j) = site.target {
                    needed[j] = true;
                    halos[j].0 = halos[j].0.max(halos[i].0 + site.dx.abs());
                    halos[j].1 = halos[j].1.max(halos[i].1 + site.dy.abs());
                }
            }
        }
        let plane_order: Vec<usize> = (0..n).filter(|&j| needed[j] && j != k.root).collect();
        let max_regs = tapes.iter().map(Tape::reg_count).max().unwrap_or(0);
        let (chans, root) = (
            k.stages.iter().map(kfuse_ir::Stage::channels).collect(),
            k.root,
        );
        Self {
            staged,
            tapes,
            chans,
            halos,
            plane_order,
            root,
            max_regs,
        }
    }

    /// The kernel the tapes were compiled from, given the one this was
    /// compiled for: `k` itself, or `k` with per-tap subexpressions staged.
    fn kernel<'k>(&'k self, k: &'k Kernel) -> &'k Kernel {
        self.staged.as_ref().unwrap_or(k)
    }

    /// Cumulative halo of stage `j` (testing/introspection).
    pub fn halo(&self, j: usize) -> (i32, i32) {
        self.halos[j]
    }

    /// Stages that get a scratch plane, in dependence order.
    pub fn plane_stages(&self) -> &[usize] {
        &self.plane_order
    }

    /// Rows per strip on an `iw × ih` image: `cfg.strip_rows` if set,
    /// otherwise the most rows whose planes together fit `STRIP_BYTES`, at
    /// least 8 — and the whole image for a kernel that materializes
    /// nothing.
    pub fn strip_rows(&self, iw: usize, ih: usize, cfg: &TileConfig) -> usize {
        let plane_chans: usize = self.plane_order.iter().map(|&j| self.chans[j]).sum();
        let derived = match plane_chans {
            0 => ih,
            c => (STRIP_BYTES / (iw * c * 4)).max(8),
        };
        cfg.strip_rows.unwrap_or(derived).clamp(1, ih)
    }
}

/// Modeled memory traffic of one kernel execution (f32 = 4 bytes per
/// element), derived statically from the instruction tapes' load sites and
/// the clipped strip/halo geometry — the CPU analogue of the global-vs-shared
/// traffic split the paper's benefit model prices (Eqs. 3–4).
///
/// "Global" is the backing image storage (kernel inputs and the output);
/// "plane" is the per-strip halo-extended scratch a materialized stage is
/// staged into — the shared-memory stand-in. Every plane read is a global
/// load avoided relative to an unfused schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelTraffic {
    /// Bytes read from input images (per tape load site per evaluation).
    pub global_load_bytes: u64,
    /// Bytes written to the output image.
    pub global_store_bytes: u64,
    /// Bytes written materializing stage planes (once per plane element).
    pub plane_write_bytes: u64,
    /// Bytes read back from stage planes by consuming tapes.
    pub plane_read_bytes: u64,
    /// Plane bytes attributable to halo overlap: the plane rows outside
    /// their strip, i.e. the redundant-computation footprint of the halo
    /// (paper Figure 4).
    pub halo_extra_bytes: u64,
}

impl KernelTraffic {
    /// Total modeled bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.global_load_bytes
            + self.global_store_bytes
            + self.plane_write_bytes
            + self.plane_read_bytes
    }
}

/// Row bands `[ys, ye)` of an `ih`-row image for `threads` workers: rows
/// split as evenly as they go, no band empty.
fn bands(ih: usize, threads: usize) -> impl Iterator<Item = (usize, usize)> {
    let n = threads.clamp(1, ih);
    (0..n).map(move |t| (t * ih / n, (t + 1) * ih / n))
}

/// Rows `[y0, y1)` of an `ih`-row image grown by `hy` and clipped to it.
fn grow(y0: usize, y1: usize, hy: i32, ih: usize) -> RowRange {
    let top = y0.saturating_sub(hy as usize);
    RowRange {
        y0: top,
        h: (y1 + hy as usize).min(ih) - top,
    }
}

/// Computes the modeled traffic of executing `ck` for kernel `k` of `p`
/// under `cfg`. Purely static: walks the bands and strips execution walks
/// and counts load-site × plane-cell products; no pixels are touched.
pub fn modeled_traffic(
    p: &Pipeline,
    k: &Kernel,
    ck: &CompiledKernel,
    cfg: &TileConfig,
) -> KernelTraffic {
    const BYTES: u64 = 4;
    let out_desc = p.image(k.output);
    let (iw, ih) = (out_desc.width, out_desc.height);
    let rows = ck.strip_rows(iw, ih, cfg);
    let mut t = KernelTraffic::default();

    let tape_loads = |j: usize, evals: u64, t: &mut KernelTraffic| {
        for site in &ck.tapes[j].loads {
            match site.target {
                LoadTarget::Input(_) => t.global_load_bytes += evals * BYTES,
                LoadTarget::Stage(_) => t.plane_read_bytes += evals * BYTES,
            }
        }
    };

    for (ys, ye) in bands(ih, cfg.resolved_threads()) {
        let mut y0 = ys;
        while y0 < ye {
            let y1 = (y0 + rows).min(ye);
            let strip_area = (iw * (y1 - y0)) as u64;
            for &j in &ck.plane_order {
                // Every cell of the clipped plane is one evaluation of the
                // stage's tape and one plane write.
                let area = (iw * grow(y0, y1, ck.halos[j].1, ih).h) as u64;
                let nc = ck.chans[j] as u64;
                t.plane_write_bytes += area * nc * BYTES;
                t.halo_extra_bytes += (area - strip_area) * nc * BYTES;
                tape_loads(j, area, &mut t);
            }
            tape_loads(ck.root, strip_area, &mut t);
            t.global_store_bytes += strip_area * ck.chans[ck.root] as u64 * BYTES;
            y0 = y1;
        }
    }
    t
}

/// Image rows `[y0, y0 + h)` a stage plane covers for the current strip;
/// a plane is always image-wide.
#[derive(Clone, Copy, Debug, Default)]
struct RowRange {
    y0: usize,
    h: usize,
}

impl RowRange {
    #[inline]
    fn contains(&self, ty: i64) -> bool {
        ty >= self.y0 as i64 && ty < (self.y0 + self.h) as i64
    }
}

/// Shared read-only evaluation context for one kernel execution.
struct Ctx<'a> {
    inputs: &'a [&'a Image],
    ranges: &'a [RowRange],
    chans: &'a [usize],
    iw: usize,
    ih: usize,
    fallback: &'a Evaluator<'a>,
}

impl Ctx<'_> {
    /// Whether `(tx, ty)` is a cell of stage `j`'s plane.
    #[inline]
    fn in_plane(&self, j: usize, tx: i64, ty: i64) -> bool {
        tx >= 0 && tx < self.iw as i64 && self.ranges[j].contains(ty)
    }

    /// Flat plane index of in-plane position `(tx, ty)`, channel `ch`, of
    /// stage `j`.
    #[inline]
    fn index(&self, j: usize, tx: i64, ty: i64, ch: usize) -> usize {
        ((ty as usize - self.ranges[j].y0) * self.iw + tx as usize) * self.chans[j] + ch
    }
}
/// Evaluates `tape` at `(x, y)` into `regs`.
///
/// With `SAFE = false` every load is statically known to be in bounds
/// (guaranteed by [`fast_span`]) and goes straight to the backing slice;
/// with `SAFE = true` loads resolve borders exactly like the interpreter.
#[inline(always)]
fn eval_pixel<const SAFE: bool>(
    tape: &Tape,
    regs: &mut [f32],
    planes: &[Vec<f32>],
    ctx: &Ctx<'_>,
    x: usize,
    y: usize,
) {
    for i in tape.const_len..tape.instrs.len() {
        let v = match tape.instrs[i] {
            Instr::Const(v) => v,
            Instr::LoadInput {
                input,
                dx,
                dy,
                ch,
                border,
            } => {
                let img = ctx.inputs[input as usize];
                let nc = img.channels();
                if !SAFE {
                    let rx = (x as i64 + i64::from(dx)) as usize;
                    let ry = (y as i64 + i64::from(dy)) as usize;
                    img.row(ry)[rx * nc + ch as usize]
                } else {
                    let tx = x as i64 + i64::from(dx);
                    let ty = y as i64 + i64::from(dy);
                    match border.resolve(tx, ty, img.width(), img.height()) {
                        Resolved::At(rx, ry) => img.row(ry)[rx * nc + ch as usize],
                        Resolved::Value(v) => v,
                    }
                }
            }
            Instr::LoadStage {
                stage,
                dx,
                dy,
                ch,
                border,
            } => {
                let (j, ch) = (stage as usize, ch as usize);
                let tx = x as i64 + i64::from(dx);
                let ty = y as i64 + i64::from(dy);
                if !SAFE || ctx.in_plane(j, tx, ty) {
                    planes[j][ctx.index(j, tx, ty, ch)]
                } else {
                    // Index exchange against the iteration space (paper
                    // Figure 5), then read the exchanged position from the
                    // plane — or recompute it if the exchange left the
                    // plane (e.g. Repeat wrapping across the image).
                    match border.resolve(tx, ty, ctx.iw, ctx.ih) {
                        Resolved::Value(v) => v,
                        Resolved::At(rx, ry) => {
                            if ctx.ranges[j].contains(ry as i64) {
                                planes[j][ctx.index(j, rx as i64, ry as i64, ch)]
                            } else {
                                ctx.fallback.eval(j, ch, rx, ry)
                            }
                        }
                    }
                }
            }
            Instr::Bin(op, a, b) => op.apply(regs[a as usize], regs[b as usize]),
            Instr::Un(op, a) => op.apply(regs[a as usize]),
            Instr::Select(c, t, f) => {
                if regs[c as usize] > 0.0 {
                    regs[t as usize]
                } else {
                    regs[f as usize]
                }
            }
            // Multiply and add each rounded separately — never an FMA —
            // matching the `Mul` + `Add` pair this instruction replaces.
            Instr::MulAdd(a, b, c) => regs[a as usize] + regs[b as usize] * regs[c as usize],
        };
        regs[i] = v;
    }
}

/// Row-major register matrix for instruction-at-a-time evaluation: one row
/// per physical *slot* (see [`Tape::slots`]) holding a register's value for
/// every pixel of the current row span. Dispatching once per instruction
/// (instead of once per pixel per instruction) turns the inner loops into
/// tight elementwise passes over contiguous `f32` slices — without
/// changing a single bit of the result, since each lane performs exactly
/// the scalar operation. Slot reuse keeps the matrix at the tape's live
/// width rather than its length, so even deeply fused tapes stay
/// L1-resident.
#[derive(Default)]
struct RowRegs {
    buf: Vec<f32>,
    cap: usize,
    srcs: Vec<Src>,
}

/// Where the row of an SSA register lives for the current span.
///
/// Single-channel loads dominate the tapes of the paper's pipelines (every
/// convolution tap is one), and their rows already sit contiguous in the
/// source image or stage plane — copying them into the register matrix was
/// the single largest cost of the fast path. A register holding such a
/// load is instead recorded as a *view* and consumers read the source in
/// place; only multi-channel (strided) loads and computed rows
/// materialize.
#[derive(Clone, Copy)]
enum Src {
    /// Materialized in the register matrix at this slot's row.
    Reg(u32),
    /// View into input image `input`, row `ty`, starting at flat `base`.
    Input {
        input: usize,
        ty: usize,
        base: usize,
    },
    /// View into the plane of stage `stage`, plane-relative row `row`,
    /// starting at in-row offset `base`.
    Stage {
        stage: usize,
        row: usize,
        base: usize,
    },
}

/// Resolves the row of a register for the current span: its slot row in
/// the register matrix (through `reg`, which knows how the caller holds
/// the matrix), or the zero-copy view recorded by the load that produced
/// it.
#[inline(always)]
fn src_row<'s>(
    src: Src,
    reg: impl FnOnce(u32) -> &'s [f32],
    len: usize,
    planes: &'s [Vec<f32>],
    ctx: &'s Ctx<'_>,
) -> &'s [f32] {
    match src {
        Src::Reg(slot) => reg(slot),
        Src::Input { input, ty, base } => &ctx.inputs[input].row(ty)[base..base + len],
        Src::Stage { stage, row, base } => {
            &planes[stage][row * ctx.iw * ctx.chans[stage] + base..][..len]
        }
    }
}

impl RowRegs {
    /// Sizes the matrix for `tape` over rows of up to `width` pixels and
    /// pre-fills the hoisted constant rows.
    fn prepare(&mut self, tape: &Tape, width: usize) {
        let regs = tape.reg_count();
        if self.cap < width || self.buf.len() < tape.n_slots * self.cap {
            self.cap = self.cap.max(width);
            self.buf.resize(tape.n_slots.max(1) * self.cap, 0.0);
        }
        if self.srcs.len() < regs {
            self.srcs.resize(regs, Src::Reg(0));
        }
        // Hoisted constants are pinned to slots `0..const_len` by the
        // allocator; every later register's source is (re)written by the
        // instruction loop before any consumer reads it, so only the
        // prefix needs resetting here.
        for (i, s) in self.srcs[..tape.const_len].iter_mut().enumerate() {
            *s = Src::Reg(i as u32);
        }
        for i in 0..tape.const_len {
            if let Instr::Const(v) = tape.instrs[i] {
                self.buf[i * self.cap..(i + 1) * self.cap].fill(v);
            }
        }
    }
}

/// Evaluates `tape` instruction-at-a-time for the statically-safe span
/// `[x0, x0 + len)` at row `y`, leaving each register's row in `rr`.
///
/// Every load in the span is in bounds (guaranteed by [`fast_span`]), so
/// input and plane reads are straight strided copies. Arithmetic rows run
/// through the elementwise passes of [`crate::simd`].
///
/// `direct` is only passed for tapes whose single root is the final
/// instruction and an operator (see [`eval_row`]): the last instruction
/// then writes its row there instead of into the matrix.
#[allow(clippy::too_many_arguments)]
#[allow(unsafe_code)]
fn eval_rows_vector(
    tape: &Tape,
    rr: &mut RowRegs,
    planes: &[Vec<f32>],
    ctx: &Ctx<'_>,
    y: usize,
    x0: usize,
    len: usize,
    mut direct: Option<&mut [f32]>,
) {
    let cap = rr.cap;
    // `prepare` sized the matrix for this tape and span; the row borrows
    // below rely on it.
    assert!(len <= cap && tape.n_slots * cap <= rr.buf.len());
    let srcs = &mut rr.srcs;
    let base = rr.buf.as_mut_ptr();
    let last = tape.instrs.len() - 1;
    for i in tape.const_len..tape.instrs.len() {
        let slot = tape.slots[i];
        // The output row and the operand rows are rows of the same matrix,
        // on either side of each other after slot reuse; they are borrowed
        // through the raw base pointer, without per-row bounds or overlap
        // checks (what those checks cost here is in DESIGN.md §3.7).
        //
        // SAFETY (for `from_raw_parts_mut` here and `from_raw_parts` in
        // `reg`): every slot the tape records is below `n_slots`, so by
        // the assertion above each `len`-element row lies inside `buf`,
        // which nothing else touches while `rr` is mutably borrowed. The
        // slot allocator (`assign_slots` in `crate::tape`) never assigns
        // an instruction's output slot to a register that is still live,
        // so the `&mut` output row is disjoint from every operand row;
        // view operands (input images, stage planes) are not part of the
        // matrix.
        let reg = |operand: u32| {
            debug_assert_ne!(operand, slot, "operand row aliases the output row");
            // SAFETY: see the comment above.
            unsafe { std::slice::from_raw_parts(base.add(operand as usize * cap), len) }
        };
        let out = match if i == last { direct.take() } else { None } {
            Some(o) => o,
            // SAFETY: see the comment above.
            None => unsafe { std::slice::from_raw_parts_mut(base.add(slot as usize * cap), len) },
        };
        srcs[i] = Src::Reg(slot);
        match tape.instrs[i] {
            Instr::Const(v) => out.fill(v),
            Instr::LoadInput {
                input, dx, dy, ch, ..
            } => {
                let img = ctx.inputs[input as usize];
                let nc = img.channels();
                let ty = (y as i64 + i64::from(dy)) as usize;
                let base = (x0 as i64 + i64::from(dx)) as usize * nc + ch as usize;
                if nc == 1 {
                    // Zero-copy: consumers read the image row in place.
                    srcs[i] = Src::Input {
                        input: input as usize,
                        ty,
                        base,
                    };
                } else {
                    let row = img.row(ty);
                    for (k, o) in out.iter_mut().enumerate() {
                        *o = row[base + k * nc];
                    }
                }
            }
            Instr::LoadStage {
                stage, dx, dy, ch, ..
            } => {
                let j = stage as usize;
                let nc = ctx.chans[j];
                // Plane-relative row: the fast span guarantees the whole
                // span is in-plane.
                let pr = (y as i64 + i64::from(dy)) as usize - ctx.ranges[j].y0;
                let base = (x0 as i64 + i64::from(dx)) as usize * nc + ch as usize;
                if nc == 1 {
                    // Zero-copy: consumers read the plane row in place.
                    srcs[i] = Src::Stage {
                        stage: j,
                        row: pr,
                        base,
                    };
                } else {
                    let row = &planes[j][pr * ctx.iw * nc..][..ctx.iw * nc];
                    for (k, o) in out.iter_mut().enumerate() {
                        *o = row[base + k * nc];
                    }
                }
            }
            Instr::Bin(op, a, b) => {
                let a = src_row(srcs[a as usize], reg, len, planes, ctx);
                let b = src_row(srcs[b as usize], reg, len, planes, ctx);
                simd::bin_rows_scalar(op, a, b, out);
            }
            Instr::Un(op, a) => {
                let a = src_row(srcs[a as usize], reg, len, planes, ctx);
                simd::un_rows_scalar(op, a, out);
            }
            Instr::Select(c, t, f) => {
                let c = src_row(srcs[c as usize], reg, len, planes, ctx);
                let t = src_row(srcs[t as usize], reg, len, planes, ctx);
                let f = src_row(srcs[f as usize], reg, len, planes, ctx);
                simd::select_rows_scalar(c, t, f, out);
            }
            Instr::MulAdd(a, b, c) => {
                let a = src_row(srcs[a as usize], reg, len, planes, ctx);
                let b = src_row(srcs[b as usize], reg, len, planes, ctx);
                let c = src_row(srcs[c as usize], reg, len, planes, ctx);
                simd::muladd_rows_scalar(a, b, c, out);
            }
        }
    }
}

/// The sub-range of row `y` where every load of `tape` is statically in
/// bounds, or `None` if the whole row needs the safe path (some `dy`
/// leaves the image or a plane's rows). Planes are image-wide, so the
/// x-range is the same on every row of a stage.
fn fast_span(tape: &Tape, ctx: &Ctx<'_>, y: usize) -> Option<(usize, usize)> {
    let (mut lo, mut hi) = (0, ctx.iw as i64);
    for site in &tape.loads {
        let ty = y as i64 + i64::from(site.dy);
        let in_rows = match site.target {
            // Pipeline validation guarantees input images share the
            // kernel's iteration-space dimensions.
            LoadTarget::Input(_) => ty >= 0 && ty < ctx.ih as i64,
            LoadTarget::Stage(j) => ctx.ranges[j].contains(ty),
        };
        if !in_rows {
            return None;
        }
        lo = lo.max(-i64::from(site.dx));
        hi = hi.min(ctx.iw as i64 - i64::from(site.dx));
    }
    (lo < hi).then_some((lo as usize, hi as usize))
}

/// Evaluates row `y` of `tape`, writing all channels into `out_row`.
///
/// Border pixels (loads that need index exchange) run through the scalar
/// safe path; the statically-safe interior runs instruction-at-a-time via
/// [`eval_rows_vector`].
#[allow(clippy::too_many_arguments)]
fn eval_row(
    tape: &Tape,
    regs: &mut [f32],
    rr: &mut RowRegs,
    planes: &[Vec<f32>],
    ctx: &Ctx<'_>,
    y: usize,
    out_row: &mut [f32],
    nc: usize,
) {
    let (flo, fhi) = fast_span(tape, ctx, y).unwrap_or((0, 0));
    let mut safe = |xs: std::ops::Range<usize>, out_row: &mut [f32]| {
        for x in xs {
            eval_pixel::<true>(tape, regs, planes, ctx, x, y);
            for (c, &r) in tape.roots.iter().enumerate() {
                out_row[x * nc + c] = regs[r as usize];
            }
        }
    };
    safe(0..flo, out_row);
    safe(fhi..ctx.iw, out_row);
    if flo < fhi {
        let len = fhi - flo;
        // Single-channel tapes rooted at their final operator write that
        // operator's result straight into the output row, skipping the
        // register-matrix round trip.
        let last = tape.instrs.len() - 1;
        let direct = nc == 1
            && tape.roots.len() == 1
            && tape.roots[0] as usize == last
            && matches!(
                tape.instrs[last],
                Instr::Bin(..) | Instr::Un(..) | Instr::Select(..) | Instr::MulAdd(..)
            );
        if direct {
            let dst = &mut out_row[flo..fhi];
            eval_rows_vector(tape, rr, planes, ctx, y, flo, len, Some(dst));
        } else {
            eval_rows_vector(tape, rr, planes, ctx, y, flo, len, None);
            for (c, &r) in tape.roots.iter().enumerate() {
                let reg = |slot: u32| &rr.buf[slot as usize * rr.cap..][..len];
                let src = src_row(rr.srcs[r as usize], reg, len, planes, ctx);
                if nc == 1 {
                    out_row[flo..fhi].copy_from_slice(src);
                } else {
                    for (k, &v) in src.iter().enumerate() {
                        out_row[(flo + k) * nc + c] = v;
                    }
                }
            }
        }
    }
}

/// Reusable scratch buffers for strip execution: stage planes, the
/// scalar register file, and the row-register matrix.
///
/// All buffers grow monotonically and are re-sized (never shrunk) per
/// kernel, so a long-lived worker thread that executes many kernels — the
/// `kfuse-runtime` serving workers — reaches a steady state with **zero
/// per-request allocation** in the executor. Stale contents are harmless:
/// planes and row ranges are (re)written for every strip before being
/// read, and the register file is SSA — every instruction writes its
/// register before any consumer reads it.
#[derive(Default)]
pub struct Scratch {
    planes: Vec<Vec<f32>>,
    ranges: Vec<RowRange>,
    regs: Vec<f32>,
    rr: RowRegs,
}

impl Scratch {
    /// Sizes the buffers for `ck`.
    fn ensure(&mut self, ck: &CompiledKernel) {
        if self.planes.len() < ck.tapes.len() {
            self.planes.resize_with(ck.tapes.len(), Vec::new);
        }
        if self.ranges.len() < ck.tapes.len() {
            self.ranges.resize(ck.tapes.len(), RowRange::default());
        }
        if self.regs.len() < ck.max_regs {
            self.regs.resize(ck.max_regs, 0.0);
        }
    }
}

/// Per-kernel execution state shared by all worker threads.
struct Run<'a> {
    ck: &'a CompiledKernel,
    name: &'a str,
    inputs: &'a [&'a Image],
    fallback: &'a Evaluator<'a>,
    tracer: &'a Tracer,
    iw: usize,
    ih: usize,
    out_nc: usize,
    strip_rows: usize,
}

impl Run<'_> {
    /// Executes the pixel rows `[y_start, y_end)` into `out_band` (the
    /// corresponding rows of the output image) strip by strip, using
    /// `scratch` as the per-worker buffer pool: one plane per stage plus
    /// one register file sized for the largest tape.
    fn run_rows(&self, scratch: &mut Scratch, y_start: usize, y_end: usize, out_band: &mut [f32]) {
        let ck = self.ck;
        let stride = self.iw * self.out_nc;
        scratch.ensure(ck);
        let Scratch {
            planes,
            ranges,
            regs,
            rr,
        } = scratch;
        let mut y0 = y_start;
        while y0 < y_end {
            let y1 = (y0 + self.strip_rows).min(y_end);
            for &j in &ck.plane_order {
                ranges[j] = grow(y0, y1, ck.halos[j].1, self.ih);
            }
            let ctx = Ctx {
                inputs: self.inputs,
                ranges,
                chans: &ck.chans,
                iw: self.iw,
                ih: self.ih,
                fallback: self.fallback,
            };
            // Materialize each inlined stage once, dependencies first.
            for &j in &ck.plane_order {
                let r = ranges[j];
                let nc = ck.chans[j];
                let row_len = self.iw * nc;
                let (done, rest) = planes.split_at_mut(j);
                let plane = &mut rest[0];
                if plane.len() < r.h * row_len {
                    plane.resize(r.h * row_len, 0.0);
                }
                let tape = &ck.tapes[j];
                tape.init_consts(regs);
                rr.prepare(tape, self.iw);
                for (py, row) in plane.chunks_exact_mut(row_len).take(r.h).enumerate() {
                    eval_row(tape, regs, rr, done, &ctx, r.y0 + py, row, nc);
                }
            }
            // Root stage writes straight into the output rows.
            let tape = &ck.tapes[ck.root];
            tape.init_consts(regs);
            rr.prepare(tape, self.iw);
            let out_rows = out_band[(y0 - y_start) * stride..].chunks_exact_mut(stride);
            for (y, row) in (y0..y1).zip(out_rows) {
                eval_row(tape, regs, rr, planes, &ctx, y, row, self.out_nc);
            }
            y0 = y1;
        }
    }

    /// [`Run::run_rows`] under a `band:<name>` span on band `b`'s lane.
    fn run_band(&self, b: usize, scratch: &mut Scratch, ys: usize, ye: usize, band: &mut [f32]) {
        let band_start = self.tracer.now_us();
        self.run_rows(scratch, ys, ye, band);
        self.tracer.complete_on(
            format!("band:{}", self.name),
            "exec",
            band_start,
            self.tracer.now_us(),
            BAND_TID_BASE + b as u64,
            vec![("rows", (ye - ys).into())],
        );
    }
}

/// Executes an already-compiled kernel against already-materialized
/// images with the strip engine, reusing the caller's scratch buffers —
/// bit-identical to [`crate::exec::execute_kernel`]. Tape lowering is done
/// once (in [`CompiledKernel::new`]) and steady-state calls borrow a
/// long-lived [`Scratch`] instead of allocating.
///
/// An enabled `tracer` records one `kernel:<name>` span carrying the
/// [`modeled_traffic`] byte counts, plus one `band:<name>` span per row
/// band on its own trace lane ([`BAND_TID_BASE`]` + band`). With
/// [`Tracer::disabled`] this is the same code path at zero cost — no
/// clock reads, no allocation.
pub fn execute_kernel_compiled(
    p: &Pipeline,
    k: &Kernel,
    ck: &CompiledKernel,
    images: &[Option<Image>],
    cfg: &TileConfig,
    scratch: &mut Scratch,
    tracer: &Tracer,
) -> Result<Image, ExecError> {
    let kernel_start = tracer.now_us();
    let out = execute_kernel_compiled_inner(p, k, ck, images, cfg, scratch, tracer)?;
    if tracer.is_enabled() {
        let traffic = modeled_traffic(p, k, ck, cfg);
        let desc = p.image(k.output);
        let pixels = (desc.width * desc.height) as u64;
        // The stages and operations that ran: those of the staged kernel.
        let ran = ck.kernel(k);
        let ops = ran.op_counts();
        tracer.complete(
            format!("kernel:{}", k.name),
            "exec",
            kernel_start,
            tracer.now_us(),
            vec![
                ("global_load_bytes", traffic.global_load_bytes.into()),
                ("global_store_bytes", traffic.global_store_bytes.into()),
                ("plane_write_bytes", traffic.plane_write_bytes.into()),
                ("plane_read_bytes", traffic.plane_read_bytes.into()),
                ("halo_extra_bytes", traffic.halo_extra_bytes.into()),
                ("stages", ran.stages.len().into()),
                // Modeled compute volume: per-pixel operation counts
                // scaled by the output plane.
                ("alu_ops", (ops.alu as u64 * pixels).into()),
                ("sfu_ops", (ops.sfu as u64 * pixels).into()),
                ("pixels", pixels.into()),
            ],
        );
    }
    Ok(out)
}

fn execute_kernel_compiled_inner(
    p: &Pipeline,
    k: &Kernel,
    ck: &CompiledKernel,
    images: &[Option<Image>],
    cfg: &TileConfig,
    scratch: &mut Scratch,
    tracer: &Tracer,
) -> Result<Image, ExecError> {
    let inputs = resolve_kernel_inputs(p, k, images)?;
    let out_desc = p.image(k.output).clone();
    let (iw, ih) = (out_desc.width, out_desc.height);
    // The fallback evaluates the tapes' stages, staged ones included.
    let fallback = Evaluator::new(ck.kernel(k), inputs.clone(), iw, ih);
    let mut out = Image::zeros(out_desc);
    let out_nc = out.channels();
    let run = Run {
        ck,
        name: &k.name,
        inputs: &inputs,
        fallback: &fallback,
        tracer,
        iw,
        ih,
        out_nc,
        strip_rows: ck.strip_rows(iw, ih, cfg),
    };

    let threads = cfg.resolved_threads().min(ih);
    if threads <= 1 {
        run.run_band(0, scratch, 0, ih, out.data_mut());
        return Ok(out);
    }
    // One contiguous row band per worker. Band workers are short-lived;
    // they bring their own scratch rather than contending for the
    // caller's, and record on a stable per-band lane instead of a fresh
    // thread tid.
    let mut rest = out.data_mut();
    std::thread::scope(|s| {
        for (b, (ys, ye)) in bands(ih, threads).enumerate() {
            let (band, tail) = std::mem::take(&mut rest).split_at_mut((ye - ys) * iw * out_nc);
            rest = tail;
            let run = &run;
            s.spawn(move || run.run_band(b, &mut Scratch::default(), ys, ye, band));
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_kernel, execute_reference, prepare_images, synthetic_image};
    use kfuse_ir::{BorderMode, Expr, ImageDesc, MemSpace, Stage, StageRef, UnOp};

    /// gauss3-over-square fused kernel: stage 0 squares the input, the
    /// root convolves stage 0 with a 3×3 window.
    fn fused_kernel(p: &mut Pipeline, mode: BorderMode, w: usize, h: usize) -> Kernel {
        let input = p.add_input(ImageDesc::new("in", w, h, 1));
        let out = p.add_image(ImageDesc::new("out", w, h, 1));
        let producer = Stage {
            name: "sq".into(),
            refs: vec![StageRef::Input(0)],
            borders: vec![mode],
            body: vec![Expr::load(0) * Expr::load(0)].into(),
            params: vec![],
            space: MemSpace::Shared,
        };
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        let root = Stage {
            name: "gauss".into(),
            refs: vec![StageRef::Stage(0)],
            borders: vec![mode],
            body: vec![Expr::convolve(0, 0, &mask)].into(),
            params: vec![],
            space: MemSpace::Global,
        };
        let k = Kernel {
            name: "sq_gauss".into(),
            inputs: vec![input],
            output: out,
            stages: vec![producer, root],
            root: 1,
            input_staging: true,
        };
        p.add_kernel(k.clone());
        p.mark_output(out);
        k
    }

    /// Compiles `k` and runs it once on fresh scratch, untraced.
    fn run_kernel(
        p: &Pipeline,
        k: &Kernel,
        images: &[Option<Image>],
        cfg: &TileConfig,
    ) -> Result<Image, ExecError> {
        let ck = CompiledKernel::new(k);
        let mut scratch = Scratch::default();
        execute_kernel_compiled(p, k, &ck, images, cfg, &mut scratch, &Tracer::disabled())
    }

    fn tiled_matches_reference(mode: BorderMode, w: usize, h: usize, cfg: &TileConfig) {
        let mut p = Pipeline::new("t");
        let k = fused_kernel(&mut p, mode, w, h);
        let input_id = p.inputs()[0];
        let img = synthetic_image(p.image(input_id).clone(), 7);
        let images = prepare_images(&p, &[(input_id, img)]).unwrap();
        let reference = execute_kernel(&p, &k, &images).unwrap();
        let tiled = run_kernel(&p, &k, &images, cfg).unwrap();
        assert!(
            tiled.bit_equal(&reference),
            "mode {mode:?} size {w}x{h} cfg {cfg:?}: max diff {}",
            tiled.max_abs_diff(&reference)
        );
    }

    #[test]
    fn all_border_modes_bit_identical() {
        for mode in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Repeat,
            BorderMode::Constant(4.25),
        ] {
            tiled_matches_reference(mode, 21, 13, &TileConfig::default());
        }
    }

    #[test]
    fn tiny_tiles_and_odd_sizes() {
        // Two-row strips: every size here but 1×1 and 17×1 has seams.
        let cfg = TileConfig {
            strip_rows: Some(2),
            threads: Some(1),
        };
        for (w, h) in [(1, 1), (2, 3), (7, 5), (16, 16), (17, 1)] {
            tiled_matches_reference(BorderMode::Clamp, w, h, &cfg);
            tiled_matches_reference(BorderMode::Repeat, w, h, &cfg);
        }
    }

    #[test]
    fn image_smaller_than_tile() {
        let cfg = TileConfig {
            strip_rows: Some(512),
            threads: Some(1),
        };
        for mode in [BorderMode::Mirror, BorderMode::Constant(-1.5)] {
            tiled_matches_reference(mode, 5, 3, &cfg);
        }
    }

    /// 29 rows over 4 workers: bands of 7, 7, 7 and 8 rows, none a
    /// multiple of the 4-row strip, so every band ends on a short strip.
    #[test]
    fn multi_threaded_bands_match() {
        let cfg = TileConfig {
            strip_rows: Some(4),
            threads: Some(4),
        };
        for mode in [BorderMode::Clamp, BorderMode::Repeat] {
            tiled_matches_reference(mode, 33, 29, &cfg);
        }
    }

    #[test]
    fn conflicting_borders_fall_back_to_exchange() {
        // Two load sites of the same stage with different border modes:
        // each off-image load is exchanged under its own site's mode, so
        // one plane serves both and the result stays bit-identical.
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 9, 7, 1));
        let out = p.add_image(ImageDesc::new("out", 9, 7, 1));
        let producer = Stage {
            name: "sq".into(),
            refs: vec![StageRef::Input(0)],
            borders: vec![BorderMode::Clamp],
            body: vec![Expr::load(0) * Expr::load(0)].into(),
            params: vec![],
            space: MemSpace::Shared,
        };
        let root = Stage {
            name: "mix".into(),
            refs: vec![StageRef::Stage(0), StageRef::Stage(0)],
            borders: vec![BorderMode::Mirror, BorderMode::Repeat],
            body: vec![Expr::load_at(0, -1, 0) + Expr::load_at(1, 1, 1)].into(),
            params: vec![],
            space: MemSpace::Global,
        };
        let k = Kernel {
            name: "mixed".into(),
            inputs: vec![input],
            output: out,
            stages: vec![producer, root],
            root: 1,
            input_staging: true,
        };
        p.add_kernel(k.clone());
        p.mark_output(out);
        let ck = CompiledKernel::new(&k);
        let input_id = p.inputs()[0];
        let img = synthetic_image(p.image(input_id).clone(), 3);
        let images = prepare_images(&p, &[(input_id, img)]).unwrap();
        let reference = execute_kernel(&p, &k, &images).unwrap();
        let cfg = TileConfig {
            strip_rows: Some(3),
            threads: Some(1),
        };
        let got = execute_kernel_compiled(
            &p,
            &k,
            &ck,
            &images,
            &cfg,
            &mut Scratch::default(),
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(got.bit_equal(&reference));
    }

    /// Like [`fused_kernel`] but with a square mask of the given radius,
    /// so the producer plane's halo can exceed the tile or the image.
    fn fused_kernel_r(p: &mut Pipeline, mode: BorderMode, w: usize, h: usize, r: usize) -> Kernel {
        let input = p.add_input(ImageDesc::new("in", w, h, 1));
        let out = p.add_image(ImageDesc::new("out", w, h, 1));
        let producer = Stage {
            name: "sq".into(),
            refs: vec![StageRef::Input(0)],
            borders: vec![mode],
            body: vec![Expr::load(0) * Expr::load(0) + Expr::Const(0.5)].into(),
            params: vec![],
            space: MemSpace::Shared,
        };
        let side = 2 * r + 1;
        let rows: Vec<Vec<f32>> = (0..side)
            .map(|j| {
                (0..side)
                    .map(|i| 0.25 * ((i + j * side) % 5) as f32 - 0.5)
                    .collect()
            })
            .collect();
        let mask: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let root = Stage {
            name: "conv".into(),
            refs: vec![StageRef::Stage(0)],
            borders: vec![mode],
            body: vec![Expr::convolve(0, 0, &mask)].into(),
            params: vec![],
            space: MemSpace::Global,
        };
        let k = Kernel {
            name: "sq_conv".into(),
            inputs: vec![input],
            output: out,
            stages: vec![producer, root],
            root: 1,
            input_staging: true,
        };
        p.add_kernel(k.clone());
        p.mark_output(out);
        k
    }

    fn degenerate_matches_reference(mode: BorderMode, w: usize, h: usize, r: usize) {
        let mut p = Pipeline::new("t");
        let k = fused_kernel_r(&mut p, mode, w, h, r);
        let input_id = p.inputs()[0];
        let img = synthetic_image(p.image(input_id).clone(), 19);
        let images = prepare_images(&p, &[(input_id, img)]).unwrap();
        let reference = execute_kernel(&p, &k, &images).unwrap();
        for cfg in [
            TileConfig {
                strip_rows: Some(1),
                threads: Some(1),
            },
            TileConfig {
                strip_rows: Some(2),
                threads: Some(2),
            },
            TileConfig::default(),
        ] {
            let tiled = run_kernel(&p, &k, &images, &cfg).unwrap();
            assert!(
                tiled.bit_equal(&reference),
                "mode {mode:?} size {w}x{h} radius {r} cfg {cfg:?}: max diff {}",
                tiled.max_abs_diff(&reference)
            );
        }
    }

    /// Mask radius ≥ image dimension: the halo-extended plane rectangle
    /// clips to the whole image (`saturating_sub` floors at 0, `min` caps
    /// at the extent) and every off-image tap index-exchanges — Repeat and
    /// Mirror wrap multiple periods on a 1-wide or 2-wide image.
    #[test]
    fn radius_exceeds_image_dimension() {
        for mode in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Repeat,
            BorderMode::Constant(-2.75),
        ] {
            for (w, h) in [(1, 1), (1, 4), (3, 2), (3, 3)] {
                for r in [w.max(h), w.max(h) + 2, 4] {
                    degenerate_matches_reference(mode, w, h, r);
                }
            }
        }
    }

    /// Mask radius ≥ strip rows but < image dimension: interior strips
    /// materialize planes several times their own height, and edge strips
    /// mix clipped planes with index exchange.
    #[test]
    fn radius_exceeds_tile_dimension() {
        for mode in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Repeat,
            BorderMode::Constant(3.25),
        ] {
            degenerate_matches_reference(mode, 9, 7, 3);
        }
    }

    /// The static traffic model must agree with execution geometry in the
    /// degenerate regime: with radius ≥ the image height every strip's
    /// plane clips to exactly the full image.
    #[test]
    fn traffic_model_degenerate_halo() {
        let mut p = Pipeline::new("t");
        let k = fused_kernel_r(&mut p, BorderMode::Repeat, 3, 2, 5);
        let ck = CompiledKernel::new(&k);
        let cfg = TileConfig {
            strip_rows: Some(1),
            threads: Some(1),
        };
        let t = modeled_traffic(&p, &k, &ck, &cfg);
        // 2 one-row strips of 3 pixels, each materializing the full 3×2
        // plane: 2 · 6 cells written, 2 · (6 − 3) of them outside the strip.
        assert_eq!(t.plane_write_bytes, 2 * 3 * 2 * 4);
        assert_eq!(t.halo_extra_bytes, 2 * (3 * 2 - 3) * 4);
        assert_eq!(t.global_store_bytes, 3 * 2 * 4);
        // The producer reads the input once per plane element; the root
        // reads the plane once per mask tap (zero taps are dropped at
        // expression build time) per output pixel.
        assert_eq!(t.global_load_bytes, 2 * 3 * 2 * 4);
        let taps = ck.tapes[ck.root].loads.len() as u64;
        assert!(taps > 11 * 11 / 2, "11x11 mask should keep most taps");
        assert_eq!(t.plane_read_bytes, 6 * taps * 4);
    }

    #[test]
    fn halo_accumulates_through_chain() {
        // square → gauss3 → gauss3: the innermost stage needs a 2-pixel
        // halo (1 per consuming convolution).
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 16, 16, 1));
        let out = p.add_image(ImageDesc::new("out", 16, 16, 1));
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        let sq = Stage {
            name: "sq".into(),
            refs: vec![StageRef::Input(0)],
            borders: vec![BorderMode::Clamp],
            body: vec![Expr::load(0) * Expr::load(0)].into(),
            params: vec![],
            space: MemSpace::Shared,
        };
        let g1 = Stage {
            name: "g1".into(),
            refs: vec![StageRef::Stage(0)],
            borders: vec![BorderMode::Clamp],
            body: vec![Expr::convolve(0, 0, &mask)].into(),
            params: vec![],
            space: MemSpace::Shared,
        };
        let g2 = Stage {
            name: "g2".into(),
            refs: vec![StageRef::Stage(1)],
            borders: vec![BorderMode::Clamp],
            body: vec![Expr::convolve(0, 0, &mask)].into(),
            params: vec![],
            space: MemSpace::Global,
        };
        let k = Kernel {
            name: "chain".into(),
            inputs: vec![input],
            output: out,
            stages: vec![sq, g1, g2],
            root: 2,
            input_staging: true,
        };
        p.add_kernel(k.clone());
        p.mark_output(out);
        let ck = CompiledKernel::new(&k);
        assert_eq!(ck.halo(2), (0, 0));
        assert_eq!(ck.halo(1), (1, 1));
        assert_eq!(ck.halo(0), (2, 2));
        assert_eq!(ck.plane_stages(), &[0, 1]);

        let input_id = p.inputs()[0];
        let img = synthetic_image(p.image(input_id).clone(), 3);
        let reference = execute_reference(&p, &[(input_id, img.clone())]).unwrap();
        let images = prepare_images(&p, &[(input_id, img)]).unwrap();
        let cfg = TileConfig {
            strip_rows: Some(5),
            threads: Some(2),
        };
        let tiled = run_kernel(&p, &k, &images, &cfg).unwrap();
        assert!(tiled.bit_equal(reference.expect_image(out)));
    }

    #[test]
    fn traffic_model_counts_bytes() {
        // Fused sq→gauss3 over a 16×16 single-channel image, one 16-row
        // strip with a 1-row halo.
        let mut p = Pipeline::new("t");
        let k = fused_kernel(&mut p, BorderMode::Clamp, 16, 16);
        let ck = CompiledKernel::new(&k);
        let cfg = TileConfig {
            strip_rows: Some(16),
            threads: Some(1),
        };
        let t = modeled_traffic(&p, &k, &ck, &cfg);
        // One plane: 16×16 clipped (halo clips at the image edge).
        assert_eq!(t.plane_write_bytes, 16 * 16 * 4);
        assert_eq!(t.halo_extra_bytes, 0);
        // sq reads the input once per plane element.
        assert_eq!(t.global_load_bytes, 16 * 16 * 4);
        // gauss reads the plane 9 times per output pixel.
        assert_eq!(t.plane_read_bytes, 9 * 16 * 16 * 4);
        assert_eq!(t.global_store_bytes, 16 * 16 * 4);
        assert_eq!(
            t.total_bytes(),
            t.global_load_bytes + t.global_store_bytes + t.plane_write_bytes + t.plane_read_bytes
        );

        // Four 4-row strips pay halo overhead: the planes cover rows
        // [0, 5), [3, 9), [7, 13) and [11, 16) — 5 + 6 + 6 + 5 = 22 rows
        // of 16 cells for 16 rows of output, so 6 rows are halo. Two
        // workers split the image at row 8, a strip seam, and change
        // nothing.
        for threads in [1, 2] {
            let small = TileConfig {
                strip_rows: Some(4),
                threads: Some(threads),
            };
            let ts = modeled_traffic(&p, &k, &ck, &small);
            assert_eq!(ts.plane_write_bytes, 22 * 16 * 4);
            assert_eq!(ts.halo_extra_bytes, 6 * 16 * 4);
            assert_eq!(ts.global_load_bytes, 22 * 16 * 4);
            // Output traffic and the root's plane reads are strip-shape
            // invariant.
            assert_eq!(ts.plane_read_bytes, t.plane_read_bytes);
            assert_eq!(ts.global_store_bytes, t.global_store_bytes);
        }
        // Three workers cut at rows 5 and 10, off the 4-row grid: bands
        // [0, 5), [5, 10), [10, 16) run strips of 4+1, 4+1 and 4+2 rows
        // whose planes cover 5+3, 6+3, 6+3 rows — 26 in all.
        let uneven = TileConfig {
            strip_rows: Some(4),
            threads: Some(3),
        };
        let tu = modeled_traffic(&p, &k, &ck, &uneven);
        assert_eq!(tu.plane_write_bytes, 26 * 16 * 4);
        assert_eq!(tu.halo_extra_bytes, 10 * 16 * 4);
    }

    #[test]
    fn traced_execution_is_bit_identical_and_records_spans() {
        let mut p = Pipeline::new("t");
        let k = fused_kernel(&mut p, BorderMode::Mirror, 33, 29);
        let input_id = p.inputs()[0];
        let img = synthetic_image(p.image(input_id).clone(), 11);
        let images = prepare_images(&p, &[(input_id, img)]).unwrap();
        let ck = CompiledKernel::new(&k);
        let cfg = TileConfig {
            strip_rows: Some(4),
            threads: Some(3),
        };
        let plain = execute_kernel_compiled(
            &p,
            &k,
            &ck,
            &images,
            &cfg,
            &mut Scratch::default(),
            &Tracer::disabled(),
        )
        .unwrap();

        let tracer = Tracer::enabled();
        let traced =
            execute_kernel_compiled(&p, &k, &ck, &images, &cfg, &mut Scratch::default(), &tracer)
                .unwrap();
        assert!(traced.bit_equal(&plain));

        let events = tracer.events();
        let kernel_spans: Vec<_> = events
            .iter()
            .filter(|e| e.name == "kernel:sq_gauss")
            .collect();
        assert_eq!(kernel_spans.len(), 1);
        assert!(kernel_spans[0]
            .args
            .iter()
            .any(|(k, _)| *k == "global_load_bytes"));
        let band_spans: Vec<_> = events
            .iter()
            .filter(|e| e.name == "band:sq_gauss")
            .collect();
        assert_eq!(band_spans.len(), 3, "one span per row band");
        let tids: std::collections::BTreeSet<u64> = band_spans.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "each band gets its own lane");
        assert!(tids.iter().all(|&t| t >= BAND_TID_BASE));
    }

    #[test]
    fn halo_wider_than_image() {
        // A 3×3 image under a fused 3×3∘3×3 chain: the halo (2) exceeds
        // what the image can provide; planes clip to the full image.
        let cfg = TileConfig {
            strip_rows: Some(64),
            threads: Some(1),
        };
        for mode in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Repeat,
            BorderMode::Constant(2.0),
        ] {
            tiled_matches_reference(mode, 3, 3, &cfg);
        }
    }

    /// Every seam the geometry has: strip seams inside a band (explicit
    /// 1-, 2- and 3-row strips and the derived height), band seams off the
    /// strip grid (1–3 workers), halos below, at and above the strip
    /// height and the image height, on sizes no strip height divides.
    #[test]
    fn strip_and_band_seams_bit_identical() {
        for mode in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Repeat,
            BorderMode::Constant(-0.75),
        ] {
            for (w, h) in [(1, 1), (17, 1), (7, 5), (33, 29)] {
                // A radius ≥ the image height only where the reference's
                // (2r+1)² taps per pixel stay cheap.
                let radii: &[usize] = if h <= 5 { &[1, 3, 5, 7] } else { &[1, 3] };
                for &r in radii {
                    let mut p = Pipeline::new("t");
                    let k = fused_kernel_r(&mut p, mode, w, h, r);
                    let input_id = p.inputs()[0];
                    let img = synthetic_image(p.image(input_id).clone(), 23);
                    let images = prepare_images(&p, &[(input_id, img)]).unwrap();
                    let reference = execute_kernel(&p, &k, &images).unwrap();
                    for strip_rows in [Some(1), Some(2), Some(3), None] {
                        for threads in 1..=3 {
                            let cfg = TileConfig {
                                strip_rows,
                                threads: Some(threads),
                            };
                            let got = run_kernel(&p, &k, &images, &cfg).unwrap();
                            assert!(
                                got.bit_equal(&reference),
                                "mode {mode:?} size {w}x{h} radius {r} cfg {cfg:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// sq → 3-tap horizontal → 7-tap vertical: the two fused stages need
    /// 3 halo rows and the producer one halo column. Planes are sized from
    /// the vertical halo alone, so an executor that read `hx` where it
    /// means `hy` materializes 4 + 0 and 4 + 2 rows instead of 4 + 6 —
    /// and still produces the right pixels, through the per-load fallback,
    /// which is why this checks the planes and not only the output.
    #[test]
    fn vertical_halo_sizes_the_planes() {
        let (w, h) = (11, 23);
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", w, h, 1));
        let out = p.add_image(ImageDesc::new("out", w, h, 1));
        let stage = |name: &str, on: StageRef, body: Expr, space| Stage {
            name: name.into(),
            refs: vec![on],
            borders: vec![BorderMode::Mirror],
            body: vec![body].into(),
            params: vec![],
            space,
        };
        let across: Vec<&[f32]> = vec![&[1.0, -2.0, 0.5]];
        let down: Vec<&[f32]> = vec![&[0.5], &[1.0], &[-1.5], &[2.0], &[0.25], &[-1.0], &[3.0]];
        let k = Kernel {
            name: "hv".into(),
            inputs: vec![input],
            output: out,
            stages: vec![
                stage(
                    "sq",
                    StageRef::Input(0),
                    Expr::load(0) * Expr::load(0),
                    MemSpace::Shared,
                ),
                stage(
                    "across",
                    StageRef::Stage(0),
                    Expr::convolve(0, 0, &across),
                    MemSpace::Shared,
                ),
                stage(
                    "down",
                    StageRef::Stage(1),
                    Expr::convolve(0, 0, &down),
                    MemSpace::Global,
                ),
            ],
            root: 2,
            input_staging: true,
        };
        p.add_kernel(k.clone());
        p.mark_output(out);
        let ck = CompiledKernel::new(&k);
        assert_eq!(ck.halo(1), (0, 3));
        assert_eq!(ck.halo(0), (1, 3));

        let img = synthetic_image(p.image(input).clone(), 5);
        let images = prepare_images(&p, &[(input, img)]).unwrap();
        let reference = execute_kernel(&p, &k, &images).unwrap();
        let cfg = TileConfig {
            strip_rows: Some(4),
            threads: Some(1),
        };
        let mut scratch = Scratch::default();
        let got = execute_kernel_compiled(
            &p,
            &k,
            &ck,
            &images,
            &cfg,
            &mut scratch,
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(got.bit_equal(&reference));
        // The tallest plane of either stage: an interior 4-row strip
        // grown by 3 rows above and below, image-wide.
        assert_eq!(scratch.planes[0].len(), (4 + 2 * 3) * w);
        assert_eq!(scratch.planes[1].len(), (4 + 2 * 3) * w);
        // The model walks the same planes: strips [0,4) … [20,23) cover
        // 7 + 10·4 + 6 = 53 rows per stage.
        let t = modeled_traffic(&p, &k, &ck, &cfg);
        assert_eq!(t.plane_write_bytes, 2 * 53 * w as u64 * 4);
    }

    /// The derived strip height: as many rows as keep the planes inside
    /// the 512 KiB budget, never under 8, the whole image when nothing is
    /// materialized or the image is shorter.
    #[test]
    fn strip_rows_follow_the_planes_footprint() {
        let derive = TileConfig::default();
        let mut p = Pipeline::new("t");
        let k = fused_kernel(&mut p, BorderMode::Clamp, 2048, 2048);
        let ck = CompiledKernel::new(&k);
        // One single-channel plane of 2048 · 4 B rows: 2^19 / 2^13.
        assert_eq!(ck.strip_rows(2048, 2048, &derive), 64);
        assert_eq!(ck.strip_rows(64, 64, &derive), 64);
        assert_eq!(ck.strip_rows(1 << 16, 1 << 16, &derive), 8);
        let pinned = TileConfig {
            strip_rows: Some(0),
            threads: None,
        };
        assert_eq!(ck.strip_rows(2048, 2048, &pinned), 1);

        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 2048, 2048, 1));
        let out = p.add_image(ImageDesc::new("out", 2048, 2048, 1));
        let point = Kernel::simple(
            "neg",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::Const(0.0) - Expr::load(0)],
            vec![],
        );
        p.add_kernel(point.clone());
        assert_eq!(
            CompiledKernel::new(&point).strip_rows(2048, 2048, &derive),
            2048
        );
    }

    /// Enhance's geometric mean over a `(2r+1)²` window:
    /// `exp(Σ ln(in + 1) / n) − 1`, one `ln` per tap.
    fn gmean_kernel(p: &mut Pipeline, mode: BorderMode, w: usize, h: usize, r: i32) -> Kernel {
        let input = p.add_input(ImageDesc::new("in", w, h, 1));
        let out = p.add_image(ImageDesc::new("out", w, h, 1));
        let ln1p = |dx, dy| {
            Expr::Un(
                UnOp::Log,
                Box::new(Expr::load_at(0, dx, dy) + Expr::Const(1.0)),
            )
        };
        let taps = (-r..=r).flat_map(|dy| (-r..=r).map(move |dx| (dx, dy)));
        let sum = taps
            .map(|(dx, dy)| ln1p(dx, dy))
            .reduce(|a, b| a + b)
            .unwrap();
        let n = ((2 * r + 1) * (2 * r + 1)) as f32;
        let body = Expr::Un(UnOp::Exp, Box::new(sum * Expr::Const(1.0 / n))) - Expr::Const(1.0);
        let k = Kernel::simple("gmean", vec![input], out, vec![mode], vec![body], vec![]);
        p.add_kernel(k.clone());
        p.mark_output(out);
        k
    }

    fn gmean_matches_reference(mode: BorderMode, w: usize, h: usize, r: i32, cfg: &TileConfig) {
        let mut p = Pipeline::new("t");
        let k = gmean_kernel(&mut p, mode, w, h, r);
        let ck = CompiledKernel::new(&k);
        assert_eq!(ck.plane_stages().len(), 1, "the ln is one plane");
        let input_id = p.inputs()[0];
        let img = synthetic_image(p.image(input_id).clone(), 29);
        let images = prepare_images(&p, &[(input_id, img)]).unwrap();
        let reference = execute_kernel(&p, &k, &images).unwrap();
        let got = execute_kernel_compiled(
            &p,
            &k,
            &ck,
            &images,
            cfg,
            &mut Scratch::default(),
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(
            got.bit_equal(&reference),
            "mode {mode:?} size {w}x{h} radius {r} cfg {cfg:?}: max diff {}",
            got.max_abs_diff(&reference)
        );
    }

    /// The staged `ln` under every border mode: `Constant(v)` taps read
    /// `ln(v + 1)`, the others exchange into the plane. Images shorter
    /// and narrower than the halo wrap `Repeat` and `Mirror` several
    /// times; one-row strips of a taller image make the top strip's
    /// `Repeat` taps land on the image's last row, outside the plane, so
    /// the fallback evaluator computes the staged stage there.
    #[test]
    fn staged_taps_bit_identical_in_every_border_mode() {
        let one_row = TileConfig {
            strip_rows: Some(1),
            threads: Some(1),
        };
        for mode in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Repeat,
            BorderMode::Constant(-0.75),
        ] {
            for (w, h) in [(1, 1), (2, 3), (3, 2)] {
                gmean_matches_reference(mode, w, h, 2, &TileConfig::default());
                gmean_matches_reference(mode, w, h, 2, &one_row);
            }
            gmean_matches_reference(mode, 9, 7, 1, &one_row);
        }
    }

    /// The staged plane at every strip and band seam.
    #[test]
    fn staged_taps_strip_and_band_seams() {
        for mode in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Repeat,
            BorderMode::Constant(2.5),
        ] {
            for (w, h) in [(1, 1), (7, 5), (33, 29)] {
                for strip_rows in [Some(1), Some(2), Some(3), None] {
                    for threads in [1, 2] {
                        let cfg = TileConfig {
                            strip_rows,
                            threads: Some(threads),
                        };
                        gmean_matches_reference(mode, w, h, 1, &cfg);
                    }
                }
            }
        }
    }

    /// What is not staged keeps the plane set it had: a bilateral tap
    /// whose `exp` reads the tap and the centre (Night's `atrous`), a
    /// transcendental read at one offset only, and `sqrt` per tap — one
    /// instruction, not worth a plane.
    #[test]
    fn unstaged_kernels_keep_their_planes() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 8, 8, 1));
        let out = p.add_image(ImageDesc::new("out", 8, 8, 1));
        let weight = |dx| {
            let d = Expr::load_at(0, dx, 0) - Expr::load(0);
            Expr::Un(UnOp::Exp, Box::new(-(d.clone() * d)))
        };
        let bilateral = (weight(-1) * Expr::load_at(0, -1, 0) + weight(1) * Expr::load_at(0, 1, 0))
            / (weight(-1) + weight(1));
        let point = Expr::Un(UnOp::Exp, Box::new(Expr::load(0))) + Expr::load_at(0, 1, 0);
        let sqrt = |dx| Expr::Un(UnOp::Sqrt, Box::new(Expr::load_at(0, dx, 0)));
        for body in [bilateral, point, sqrt(-1) + sqrt(1)] {
            let k = Kernel::simple(
                "k",
                vec![input],
                out,
                vec![BorderMode::Clamp],
                vec![body],
                vec![],
            );
            assert!(stage_tap_subexpressions(&k).is_none());
            assert!(CompiledKernel::new(&k).plane_stages().is_empty());
        }
        // A fused kernel keeps exactly its inlined stages as planes.
        let mut p = Pipeline::new("t");
        let k = fused_kernel(&mut p, BorderMode::Clamp, 8, 8);
        assert_eq!(CompiledKernel::new(&k).plane_stages(), &[0]);
    }
}
