//! Tile-by-tile execution of compiled kernels with halo-plane
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
//! * The iteration space is cut into tiles (the "blocks" of Section II-C3).
//! * Each inlined stage is materialized **once per tile** into a small
//!   halo-extended scratch plane — the analogue of staging a producer into
//!   shared memory. Interior pixels are computed exactly once; pixels in
//!   the halo re-run the producer at their own coordinates, reproducing
//!   the recompute-in-the-overlap scheme of warp-overlapped tiling.
//! * There is one plane geometry: the tile grown by the stage's cumulative
//!   halo and **clipped to the image**, so every plane cell is one
//!   evaluation of the producer at an in-image coordinate.
//! * Halo accesses that leave the iteration space are resolved with the
//!   consumer's border mode against the iteration space — the paper's
//!   index exchange (Figures 4–5) — and then read from the plane at the
//!   exchanged position. The rare exchange that lands outside the plane
//!   (e.g. `Repeat` wrapping to the far side of the image) falls back to
//!   the reference evaluator for that single value.
//! * Tiles are processed in parallel across **row bands** with
//!   `std::thread::scope`; each worker owns a reusable scratch-buffer pool,
//!   so steady-state execution does not allocate per tile.
//!
//! Every arithmetic operation is performed on the same values as in the
//! reference interpreter, so outputs are **bit-identical** — materializing
//! a pure computation once and reusing the result cannot change any bit.

use crate::exec::{resolve_kernel_inputs, Evaluator, ExecError};
use crate::simd;
use crate::tape::{compile_stage, Instr, LoadTarget, Tape};
use kfuse_ir::border::Resolved;
use kfuse_ir::{Image, Kernel, Pipeline};
use kfuse_obs::Tracer;

/// Lane offset for the executor's logical row-band lanes in traces: band
/// `b` records on tid `BAND_TID_BASE + b`, keeping band spans separate
/// from the request threads' sequential tids.
pub const BAND_TID_BASE: u64 = 1000;

/// Tuning knobs for the tiled executor.
///
/// `Eq`/`Hash` let the config participate in plan-cache keys: two requests
/// with different tile shapes or thread counts compile to distinct plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Tile width in pixels.
    pub tile_w: usize,
    /// Tile height in pixels (also the row-band granularity).
    pub tile_h: usize,
    /// Worker threads; `None` uses [`std::thread::available_parallelism`].
    pub threads: Option<usize>,
}

impl Default for TileConfig {
    fn default() -> Self {
        // 128×64 keeps a 5-stage gray-scale scratch set comfortably inside
        // L2 while amortizing the halo overhead (halo area grows linearly
        // with the perimeter, interior with the area).
        Self {
            tile_w: 128,
            tile_h: 64,
            threads: None,
        }
    }
}

impl TileConfig {
    /// Resolved worker-thread count.
    pub fn resolved_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }
}

/// A kernel compiled for tiled execution: one tape per stage plus the
/// cumulative halo each materialized stage must cover.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    tapes: Vec<Tape>,
    /// Cumulative halo `(hx, hy)` per stage: how far beyond the tile the
    /// stage must be materialized so that every transitive consumer window
    /// is served. Mirrors the quadratic halo growth of paper Figure 4.
    halos: Vec<(i32, i32)>,
    /// Stages that must be materialized (reachable from the root),
    /// excluding the root itself, in dependence order.
    plane_order: Vec<usize>,
    root: usize,
    max_regs: usize,
}

impl CompiledKernel {
    /// Compiles every stage of `k` and derives halo requirements.
    pub fn new(k: &Kernel) -> Self {
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
        Self {
            tapes,
            halos,
            plane_order,
            root: k.root,
            max_regs,
        }
    }

    /// Cumulative halo of stage `j` (testing/introspection).
    pub fn halo(&self, j: usize) -> (i32, i32) {
        self.halos[j]
    }

    /// Stages that get a scratch plane, in dependence order.
    pub fn plane_stages(&self) -> &[usize] {
        &self.plane_order
    }
}

/// Modeled memory traffic of one kernel execution (f32 = 4 bytes per
/// element), derived statically from the instruction tapes' load sites and
/// the clipped tile/halo geometry — the CPU analogue of the global-vs-shared
/// traffic split the paper's benefit model prices (Eqs. 3–4).
///
/// "Global" is the backing image storage (kernel inputs and the output);
/// "plane" is the per-tile halo-extended scratch a materialized stage is
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
    /// Plane bytes attributable to halo overlap: the part of the plane
    /// rectangles outside the tile interior, i.e. the redundant-computation
    /// footprint of the halo (paper Figure 4).
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

/// Computes the modeled traffic of executing `ck` for kernel `k` of `p`
/// under `cfg`. Purely static: walks the tile grid and counts load-site ×
/// clipped-rectangle products; no pixels are touched.
pub fn modeled_traffic(
    p: &Pipeline,
    k: &Kernel,
    ck: &CompiledKernel,
    cfg: &TileConfig,
) -> KernelTraffic {
    const BYTES: u64 = 4;
    let out_desc = p.image(k.output);
    let (iw, ih) = (out_desc.width, out_desc.height);
    let chans: Vec<usize> = k.stages.iter().map(kfuse_ir::Stage::channels).collect();
    let tile_w = cfg.tile_w.max(1);
    let tile_h = cfg.tile_h.max(1);
    let mut t = KernelTraffic::default();

    let tape_loads = |j: usize, evals: u64, t: &mut KernelTraffic| {
        for site in &ck.tapes[j].loads {
            match site.target {
                LoadTarget::Input(_) => t.global_load_bytes += evals * BYTES,
                LoadTarget::Stage(_) => t.plane_read_bytes += evals * BYTES,
            }
        }
    };

    let mut y0 = 0;
    while y0 < ih {
        let y1 = (y0 + tile_h).min(ih);
        let mut x0 = 0;
        while x0 < iw {
            let x1 = (x0 + tile_w).min(iw);
            let tile_area = ((x1 - x0) * (y1 - y0)) as u64;
            for &j in &ck.plane_order {
                let (hx, hy) = ck.halos[j];
                // The plane rect clipped to the image: every cell is one
                // evaluation of the stage's tape and one plane write.
                let rx0 = x0.saturating_sub(hx as usize);
                let ry0 = y0.saturating_sub(hy as usize);
                let rx1 = (x1 + hx as usize).min(iw);
                let ry1 = (y1 + hy as usize).min(ih);
                let area = ((rx1 - rx0) * (ry1 - ry0)) as u64;
                let nc = chans[j] as u64;
                t.plane_write_bytes += area * nc * BYTES;
                t.halo_extra_bytes += area.saturating_sub(tile_area) * nc * BYTES;
                tape_loads(j, area, &mut t);
            }
            tape_loads(ck.root, tile_area, &mut t);
            t.global_store_bytes += tile_area * chans[ck.root] as u64 * BYTES;
            x0 = x1;
        }
        y0 = y1;
    }
    t
}

/// Rectangle a stage plane covers for the current tile, clipped to the
/// image. The origin is never negative; it stays `i64` because the load
/// coordinates `x + dx` / `y + dy` that [`Rect::contains`] and
/// [`fast_span`] compare against it can be (a load left of or above the
/// image), and the compare must be signed.
#[derive(Clone, Copy, Debug, Default)]
struct Rect {
    x0: i64,
    y0: i64,
    w: usize,
    h: usize,
}

impl Rect {
    #[inline]
    fn contains(&self, tx: i64, ty: i64) -> bool {
        tx >= self.x0
            && tx < self.x0 + self.w as i64
            && ty >= self.y0
            && ty < self.y0 + self.h as i64
    }

    /// Flat index of in-rect position `(tx, ty)`, channel `ch`.
    #[inline]
    fn index(&self, tx: i64, ty: i64, channels: usize, ch: usize) -> usize {
        ((ty - self.y0) as usize * self.w + (tx - self.x0) as usize) * channels + ch
    }
}

/// Shared read-only evaluation context for one kernel execution.
struct Ctx<'a> {
    inputs: &'a [&'a Image],
    rects: &'a [Rect],
    chans: &'a [usize],
    iw: usize,
    ih: usize,
    fallback: &'a Evaluator<'a>,
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
                let j = stage as usize;
                let r = ctx.rects[j];
                let nc = ctx.chans[j];
                let tx = x as i64 + i64::from(dx);
                let ty = y as i64 + i64::from(dy);
                if !SAFE || r.contains(tx, ty) {
                    planes[j][r.index(tx, ty, nc, ch as usize)]
                } else {
                    // Index exchange against the iteration space (paper
                    // Figure 5), then read the exchanged position from the
                    // plane — or recompute it if the exchange left the
                    // plane (e.g. Repeat wrapping across the image).
                    match border.resolve(tx, ty, ctx.iw, ctx.ih) {
                        Resolved::Value(v) => v,
                        Resolved::At(rx, ry) => {
                            if r.contains(rx as i64, ry as i64) {
                                planes[j][r.index(rx as i64, ry as i64, nc, ch as usize)]
                            } else {
                                ctx.fallback.eval(j, ch as usize, rx, ry)
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
    /// View into the halo plane of stage `stage`, plane-relative row
    /// `row`, starting at in-row offset `base`.
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
            let rct = ctx.rects[stage];
            let nc = ctx.chans[stage];
            &planes[stage][row * rct.w * nc + base..][..len]
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
                let r = ctx.rects[j];
                let nc = ctx.chans[j];
                // Plane-relative coordinates: the fast span guarantees
                // the whole span is in-plane.
                let pr = ((y as i64 + i64::from(dy)) - r.y0) as usize;
                let base = ((x0 as i64 + i64::from(dx)) - r.x0) as usize * nc + ch as usize;
                if nc == 1 {
                    // Zero-copy: consumers read the plane row in place.
                    srcs[i] = Src::Stage {
                        stage: j,
                        row: pr,
                        base,
                    };
                } else {
                    let row = &planes[j][pr * r.w * nc..][..r.w * nc];
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

/// The sub-range of `[x_lo, x_hi)` at row `y` where every load of `tape`
/// is statically in bounds, or `None` if the whole row needs the safe
/// path (some `dy` leaves a backing rect for this row).
fn fast_span(
    tape: &Tape,
    rects: &[Rect],
    iw: usize,
    ih: usize,
    y: usize,
    x_lo: usize,
    x_hi: usize,
) -> Option<(usize, usize)> {
    let mut lo = x_lo as i64;
    let mut hi = x_hi as i64;
    let yi = y as i64;
    for site in &tape.loads {
        let (bx0, bx1, by0, by1) = match site.target {
            // Pipeline validation guarantees input images share the
            // kernel's iteration-space dimensions.
            LoadTarget::Input(_) => (0, iw as i64, 0, ih as i64),
            LoadTarget::Stage(j) => {
                let r = rects[j];
                (r.x0, r.x0 + r.w as i64, r.y0, r.y0 + r.h as i64)
            }
        };
        let ty = yi + i64::from(site.dy);
        if ty < by0 || ty >= by1 {
            return None;
        }
        lo = lo.max(bx0 - i64::from(site.dx));
        hi = hi.min(bx1 - i64::from(site.dx));
    }
    (lo < hi).then_some((lo as usize, hi as usize))
}

/// Evaluates one row segment `[x_lo, x_hi)` of `tape` at row `y`, writing
/// all channels into `out_row` (which starts at pixel `x_lo`).
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
    x_lo: usize,
    x_hi: usize,
    out_row: &mut [f32],
    nc: usize,
) {
    let (flo, fhi) =
        fast_span(tape, ctx.rects, ctx.iw, ctx.ih, y, x_lo, x_hi).unwrap_or((x_lo, x_lo));
    let store = |regs: &[f32], x: usize, out_row: &mut [f32]| {
        let base = (x - x_lo) * nc;
        for (c, &r) in tape.roots.iter().enumerate() {
            out_row[base + c] = regs[r as usize];
        }
    };
    for x in x_lo..flo {
        eval_pixel::<true>(tape, regs, planes, ctx, x, y);
        store(regs, x, out_row);
    }
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
            let dst = &mut out_row[flo - x_lo..fhi - x_lo];
            eval_rows_vector(tape, rr, planes, ctx, y, flo, len, Some(dst));
        } else {
            eval_rows_vector(tape, rr, planes, ctx, y, flo, len, None);
            for (c, &r) in tape.roots.iter().enumerate() {
                let reg = |slot: u32| &rr.buf[slot as usize * rr.cap..][..len];
                let src = src_row(rr.srcs[r as usize], reg, len, planes, ctx);
                if nc == 1 {
                    out_row[flo - x_lo..fhi - x_lo].copy_from_slice(src);
                } else {
                    for (k, &v) in src.iter().enumerate() {
                        out_row[(flo - x_lo + k) * nc + c] = v;
                    }
                }
            }
        }
    }
    for x in fhi..x_hi {
        eval_pixel::<true>(tape, regs, planes, ctx, x, y);
        store(regs, x, out_row);
    }
}

/// Reusable scratch buffers for tiled kernel execution: stage planes, the
/// scalar register file, and the row-register matrix.
///
/// All buffers grow monotonically and are re-sized (never shrunk) per
/// kernel, so a long-lived worker thread that executes many kernels — the
/// `kfuse-runtime` serving workers — reaches a steady state with **zero
/// per-request allocation** in the executor. Stale contents are harmless:
/// planes and rects are (re)written for every tile before being read, and
/// the register file is SSA — every instruction writes its register before
/// any consumer reads it.
#[derive(Default)]
pub struct Scratch {
    planes: Vec<Vec<f32>>,
    rects: Vec<Rect>,
    regs: Vec<f32>,
    rr: RowRegs,
}

impl Scratch {
    /// Sizes the buffers for `ck`.
    fn ensure(&mut self, ck: &CompiledKernel) {
        if self.planes.len() < ck.tapes.len() {
            self.planes.resize_with(ck.tapes.len(), Vec::new);
        }
        if self.rects.len() < ck.tapes.len() {
            self.rects.resize(ck.tapes.len(), Rect::default());
        }
        if self.regs.len() < ck.max_regs {
            self.regs.resize(ck.max_regs, 0.0);
        }
    }
}

/// Per-kernel execution state shared by all worker threads.
struct Run<'a> {
    ck: &'a CompiledKernel,
    inputs: &'a [&'a Image],
    chans: &'a [usize],
    fallback: &'a Evaluator<'a>,
    iw: usize,
    ih: usize,
    out_nc: usize,
    tile_w: usize,
    tile_h: usize,
}

impl Run<'_> {
    /// Executes the pixel rows `[y_start, y_end)` into `out_band` (the
    /// corresponding rows of the output image), using `scratch` as the
    /// per-worker buffer pool: one plane per stage plus one register file
    /// sized for the largest tape.
    fn run_rows(&self, scratch: &mut Scratch, y_start: usize, y_end: usize, out_band: &mut [f32]) {
        let ck = self.ck;
        let stride = self.iw * self.out_nc;
        scratch.ensure(ck);
        let Scratch {
            planes,
            rects,
            regs,
            rr,
        } = scratch;
        let mut y0 = y_start;
        while y0 < y_end {
            let y1 = (y0 + self.tile_h).min(y_end);
            let mut x0 = 0;
            while x0 < self.iw {
                let x1 = (x0 + self.tile_w).min(self.iw);
                // Halo-extended plane rectangles, clipped to the image.
                for &j in &ck.plane_order {
                    let (hx, hy) = ck.halos[j];
                    let rx0 = x0.saturating_sub(hx as usize);
                    let ry0 = y0.saturating_sub(hy as usize);
                    let rx1 = (x1 + hx as usize).min(self.iw);
                    let ry1 = (y1 + hy as usize).min(self.ih);
                    rects[j] = Rect {
                        x0: rx0 as i64,
                        y0: ry0 as i64,
                        w: rx1 - rx0,
                        h: ry1 - ry0,
                    };
                }
                // Materialize each inlined stage once, dependencies first.
                for &j in &ck.plane_order {
                    let r = rects[j];
                    let nc = self.chans[j];
                    let len = r.w * r.h * nc;
                    let (done, rest) = planes.split_at_mut(j);
                    let plane = &mut rest[0];
                    if plane.len() < len {
                        plane.resize(len, 0.0);
                    }
                    let tape = &ck.tapes[j];
                    tape.init_consts(regs);
                    rr.prepare(tape, r.w);
                    let ctx = Ctx {
                        inputs: self.inputs,
                        rects,
                        chans: self.chans,
                        iw: self.iw,
                        ih: self.ih,
                        fallback: self.fallback,
                    };
                    let (rx0, ry0) = (r.x0 as usize, r.y0 as usize);
                    for py in 0..r.h {
                        let row = &mut plane[py * r.w * nc..][..r.w * nc];
                        eval_row(
                            tape,
                            regs,
                            rr,
                            done,
                            &ctx,
                            ry0 + py,
                            rx0,
                            rx0 + r.w,
                            row,
                            nc,
                        );
                    }
                }
                // Root stage writes straight into the output rows.
                let tape = &ck.tapes[ck.root];
                tape.init_consts(regs);
                rr.prepare(tape, x1 - x0);
                let ctx = Ctx {
                    inputs: self.inputs,
                    rects,
                    chans: self.chans,
                    iw: self.iw,
                    ih: self.ih,
                    fallback: self.fallback,
                };
                for y in y0..y1 {
                    let row = &mut out_band[(y - y_start) * stride..][..stride];
                    let seg = &mut row[x0 * self.out_nc..x1 * self.out_nc];
                    eval_row(tape, regs, rr, planes, &ctx, y, x0, x1, seg, self.out_nc);
                }
                x0 = x1;
            }
            y0 = y1;
        }
    }
}

/// Executes one kernel against already-materialized images with the tiled
/// engine. Drop-in replacement for [`crate::exec::execute_kernel`] with
/// bit-identical output.
///
/// Compiles the kernel's tapes on every call; repeat executions should
/// compile a [`CompiledKernel`] once and use [`execute_kernel_compiled`].
pub fn execute_kernel_tiled(
    p: &Pipeline,
    k: &Kernel,
    images: &[Option<Image>],
    cfg: &TileConfig,
) -> Result<Image, ExecError> {
    let ck = CompiledKernel::new(k);
    execute_kernel_compiled(p, k, &ck, images, cfg, &mut Scratch::default())
}

/// Executes an already-compiled kernel, reusing the caller's scratch
/// buffers. This is the hot path of plan-reuse serving: tape lowering is
/// done once (in [`CompiledKernel::new`]) and steady-state requests borrow
/// the worker's [`Scratch`] instead of allocating.
pub fn execute_kernel_compiled(
    p: &Pipeline,
    k: &Kernel,
    ck: &CompiledKernel,
    images: &[Option<Image>],
    cfg: &TileConfig,
    scratch: &mut Scratch,
) -> Result<Image, ExecError> {
    execute_kernel_compiled_traced(p, k, ck, images, cfg, scratch, &Tracer::disabled())
}

/// [`execute_kernel_compiled`] with execution profiling: records one
/// `kernel:<name>` span carrying the [`modeled_traffic`] byte counts, plus
/// one `band:<name>` span per row band on its own trace lane
/// ([`BAND_TID_BASE`]` + band`). With a disabled tracer (the default entry
/// points) this is the exact same code path at zero cost — no clock reads,
/// no allocation.
pub fn execute_kernel_compiled_traced(
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
        let ops = k.op_counts();
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
                ("stages", k.stages.len().into()),
                // Modeled compute volume, for the kfuse-tune calibrator:
                // per-pixel operation counts scaled by the output plane.
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
    let chans: Vec<usize> = k.stages.iter().map(kfuse_ir::Stage::channels).collect();
    let fallback = Evaluator::new(k, inputs.clone(), iw, ih);
    let mut out = Image::zeros(out_desc);
    let out_nc = out.channels();
    let tile_w = cfg.tile_w.max(1);
    let tile_h = cfg.tile_h.max(1);
    let run = Run {
        ck,
        inputs: &inputs,
        chans: &chans,
        fallback: &fallback,
        iw,
        ih,
        out_nc,
        tile_w,
        tile_h,
    };

    let tile_rows = ih.div_ceil(tile_h);
    let threads = cfg.resolved_threads().min(tile_rows);
    if threads <= 1 {
        let band_start = tracer.now_us();
        run.run_rows(scratch, 0, ih, out.data_mut());
        tracer.complete_on(
            format!("band:{}", k.name),
            "exec",
            band_start,
            tracer.now_us(),
            BAND_TID_BASE,
            vec![("rows", ih.into())],
        );
        return Ok(out);
    }

    // Split the output into contiguous row bands, one per worker, aligned
    // to tile-row boundaries so workers never share a tile.
    let stride = iw * out_nc;
    let base = tile_rows / threads;
    let extra = tile_rows % threads;
    let mut bands: Vec<(usize, usize, &mut [f32])> = Vec::with_capacity(threads);
    let mut rest = out.data_mut();
    let mut ty = 0;
    for t in 0..threads {
        let rows = base + usize::from(t < extra);
        if rows == 0 {
            continue;
        }
        let ys = ty * tile_h;
        let ye = ((ty + rows) * tile_h).min(ih);
        let (mine, tail) = rest.split_at_mut((ye - ys) * stride);
        bands.push((ys, ye, mine));
        rest = tail;
        ty += rows;
    }
    let name = k.name.as_str();
    std::thread::scope(|s| {
        for (b, (ys, ye, band)) in bands.into_iter().enumerate() {
            let run = &run;
            // Band workers are short-lived; they bring their own scratch
            // rather than contending for the caller's, and record on a
            // stable per-band lane instead of a fresh thread tid.
            s.spawn(move || {
                let band_start = tracer.now_us();
                run.run_rows(&mut Scratch::default(), ys, ye, band);
                tracer.complete_on(
                    format!("band:{name}"),
                    "exec",
                    band_start,
                    tracer.now_us(),
                    BAND_TID_BASE + b as u64,
                    vec![("rows", (ye - ys).into())],
                );
            });
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_kernel, execute_reference, prepare_images, synthetic_image};
    use kfuse_ir::{BorderMode, Expr, ImageDesc, MemSpace, Stage, StageRef};

    /// gauss3-over-square fused kernel: stage 0 squares the input, the
    /// root convolves stage 0 with a 3×3 window.
    fn fused_kernel(p: &mut Pipeline, mode: BorderMode, w: usize, h: usize) -> Kernel {
        let input = p.add_input(ImageDesc::new("in", w, h, 1));
        let out = p.add_image(ImageDesc::new("out", w, h, 1));
        let producer = Stage {
            name: "sq".into(),
            refs: vec![StageRef::Input(0)],
            borders: vec![mode],
            body: vec![Expr::load(0) * Expr::load(0)],
            params: vec![],
            space: MemSpace::Shared,
        };
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        let root = Stage {
            name: "gauss".into(),
            refs: vec![StageRef::Stage(0)],
            borders: vec![mode],
            body: vec![Expr::convolve(0, 0, &mask)],
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

    fn tiled_matches_reference(mode: BorderMode, w: usize, h: usize, cfg: &TileConfig) {
        let mut p = Pipeline::new("t");
        let k = fused_kernel(&mut p, mode, w, h);
        let input_id = p.inputs()[0];
        let img = synthetic_image(p.image(input_id).clone(), 7);
        let images = prepare_images(&p, &[(input_id, img)]).unwrap();
        let reference = execute_kernel(&p, &k, &images).unwrap();
        let tiled = execute_kernel_tiled(&p, &k, &images, cfg).unwrap();
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
        let cfg = TileConfig {
            tile_w: 3,
            tile_h: 2,
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
            tile_w: 512,
            tile_h: 512,
            threads: Some(1),
        };
        for mode in [BorderMode::Mirror, BorderMode::Constant(-1.5)] {
            tiled_matches_reference(mode, 5, 3, &cfg);
        }
    }

    #[test]
    fn multi_threaded_bands_match() {
        let cfg = TileConfig {
            tile_w: 8,
            tile_h: 4,
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
            body: vec![Expr::load(0) * Expr::load(0)],
            params: vec![],
            space: MemSpace::Shared,
        };
        let root = Stage {
            name: "mix".into(),
            refs: vec![StageRef::Stage(0), StageRef::Stage(0)],
            borders: vec![BorderMode::Mirror, BorderMode::Repeat],
            body: vec![Expr::load_at(0, -1, 0) + Expr::load_at(1, 1, 1)],
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
            tile_w: 4,
            tile_h: 3,
            threads: Some(1),
        };
        let got =
            execute_kernel_compiled(&p, &k, &ck, &images, &cfg, &mut Scratch::default()).unwrap();
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
            body: vec![Expr::load(0) * Expr::load(0) + Expr::Const(0.5)],
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
            body: vec![Expr::convolve(0, 0, &mask)],
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
                tile_w: 1,
                tile_h: 1,
                threads: Some(1),
            },
            TileConfig {
                tile_w: 2,
                tile_h: 2,
                threads: Some(2),
            },
            TileConfig::default(),
        ] {
            let tiled = execute_kernel_tiled(&p, &k, &images, &cfg).unwrap();
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

    /// Mask radius ≥ tile dimension but < image dimension: interior tiles
    /// materialize planes wider than themselves, and edge tiles mix
    /// clipped planes with index exchange.
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
    /// degenerate regime: with radius ≥ both image dimensions every tile's
    /// plane rectangle clips to exactly the full image.
    #[test]
    fn traffic_model_degenerate_halo() {
        let mut p = Pipeline::new("t");
        let k = fused_kernel_r(&mut p, BorderMode::Repeat, 3, 2, 5);
        let ck = CompiledKernel::new(&k);
        let cfg = TileConfig {
            tile_w: 1,
            tile_h: 1,
            threads: Some(1),
        };
        let t = modeled_traffic(&p, &k, &ck, &cfg);
        // 6 one-pixel tiles, each materializing the full 3×2 plane.
        assert_eq!(t.plane_write_bytes, 6 * 3 * 2 * 4);
        assert_eq!(t.halo_extra_bytes, 6 * (3 * 2 - 1) * 4);
        assert_eq!(t.global_store_bytes, 3 * 2 * 4);
        // The producer reads the input once per plane element; the root
        // reads the plane once per mask tap (zero taps are dropped at
        // expression build time) per output pixel.
        assert_eq!(t.global_load_bytes, 6 * 3 * 2 * 4);
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
            body: vec![Expr::load(0) * Expr::load(0)],
            params: vec![],
            space: MemSpace::Shared,
        };
        let g1 = Stage {
            name: "g1".into(),
            refs: vec![StageRef::Stage(0)],
            borders: vec![BorderMode::Clamp],
            body: vec![Expr::convolve(0, 0, &mask)],
            params: vec![],
            space: MemSpace::Shared,
        };
        let g2 = Stage {
            name: "g2".into(),
            refs: vec![StageRef::Stage(1)],
            borders: vec![BorderMode::Clamp],
            body: vec![Expr::convolve(0, 0, &mask)],
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
            tile_w: 5,
            tile_h: 5,
            threads: Some(2),
        };
        let tiled = execute_kernel_tiled(&p, &k, &images, &cfg).unwrap();
        assert!(tiled.bit_equal(reference.expect_image(out)));
    }

    #[test]
    fn traffic_model_counts_bytes() {
        // Fused sq→gauss3 over a 16×16 single-channel image, one 16×16
        // tile with a 1-pixel halo.
        let mut p = Pipeline::new("t");
        let k = fused_kernel(&mut p, BorderMode::Clamp, 16, 16);
        let ck = CompiledKernel::new(&k);
        let cfg = TileConfig {
            tile_w: 16,
            tile_h: 16,
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

        // Smaller tiles pay halo overhead: interior tiles materialize an
        // 18-wide plane for a 16-wide image? No — 4×4 tiles on 16×16.
        let small = TileConfig {
            tile_w: 4,
            tile_h: 4,
            threads: Some(1),
        };
        let ts = modeled_traffic(&p, &k, &ck, &small);
        assert!(
            ts.halo_extra_bytes > 0,
            "small tiles must show halo overhead"
        );
        assert!(ts.plane_write_bytes > t.plane_write_bytes);
        // Output traffic is tile-shape invariant.
        assert_eq!(ts.global_store_bytes, t.global_store_bytes);
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
            tile_w: 8,
            tile_h: 4,
            threads: Some(3),
        };
        let plain =
            execute_kernel_compiled(&p, &k, &ck, &images, &cfg, &mut Scratch::default()).unwrap();

        let tracer = Tracer::enabled();
        let traced = execute_kernel_compiled_traced(
            &p,
            &k,
            &ck,
            &images,
            &cfg,
            &mut Scratch::default(),
            &tracer,
        )
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
            tile_w: 64,
            tile_h: 64,
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
}
