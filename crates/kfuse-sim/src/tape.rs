//! Lowering of kernel stages to flat instruction tapes.
//!
//! The reference interpreter in [`crate::exec`] walks `Expr` trees node by
//! node: every pixel pays recursive dispatch, `Box` pointer chasing, and —
//! for fused kernels — a full re-evaluation of inlined producer stages *per
//! load*. This module compiles each [`Stage`] once into a flat, post-order
//! **instruction tape** over SSA register slots:
//!
//! * one instruction per *unique* sub-expression — structural common
//!   sub-expression elimination (CSE) across all channel bodies of the
//!   stage, so e.g. the RGB bodies of a color kernel share their loads;
//! * `Param` leaves are resolved to their bound constants at compile time;
//! * constants are hoisted to a prefix of the tape ([`Tape::const_len`]),
//!   so per-pixel evaluation starts after them and never re-materializes a
//!   literal.
//!
//! Evaluation is a single linear scan (`regs[i] = op(regs[a], regs[b])`)
//! with no recursion and no per-node allocation. CSE only merges *bitwise
//! identical* pure computations, so tape evaluation produces exactly the
//! same `f32` results, bit for bit, as the tree-walking interpreter — the
//! property the differential tests in `tests/tests/fast_executor.rs`
//! enforce.
//!
//! The actual memory operands (input images, materialized stage planes) are
//! supplied by the tile executor in [`crate::tile`]; the tape only records
//! *what* to load ([`Instr::LoadInput`], [`Instr::LoadStage`]) plus the
//! distinct [`LoadSite`]s needed for its in-bounds analysis.

use kfuse_ir::{BinOp, BorderMode, Expr, Stage, StageRef, UnOp};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// One tape instruction. Instruction `i` writes register `i`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instr {
    /// A literal (or compile-time-resolved parameter) constant.
    Const(f32),
    /// Load from kernel input `input` at offset `(dx, dy)`, channel `ch`,
    /// with `border` applied against the *image* bounds.
    LoadInput {
        /// Kernel-level input index.
        input: u16,
        /// Horizontal offset in pixels.
        dx: i32,
        /// Vertical offset in pixels.
        dy: i32,
        /// Channel of the input image.
        ch: u16,
        /// Border mode of the originating load slot.
        border: BorderMode,
    },
    /// Load from inlined stage `stage` at offset `(dx, dy)`, channel `ch`,
    /// with `border` applied against the *iteration space* (the paper's
    /// index exchange, Figure 5).
    LoadStage {
        /// Stage index within the kernel.
        stage: u16,
        /// Horizontal offset in pixels.
        dx: i32,
        /// Vertical offset in pixels.
        dy: i32,
        /// Channel of the producer stage.
        ch: u16,
        /// Border mode of the originating load slot.
        border: BorderMode,
    },
    /// Binary operation over two registers.
    Bin(BinOp, u32, u32),
    /// Unary operation over a register.
    Un(UnOp, u32),
    /// `if regs[c] > 0 { regs[t] } else { regs[f] }`.
    Select(u32, u32, u32),
    /// `regs[a] + regs[b] * regs[c]`, with the multiply and the add each
    /// correctly rounded — **not** an FMA contraction, so the result is
    /// bit-identical to the `Mul` + `Bin(Add, ..)` pair it replaces. Fused
    /// by [`compile_stage`] for single-use products (the accumulate chains
    /// convolutions lower to), halving the row passes of the tile
    /// executor's interior.
    MulAdd(u32, u32, u32),
}

/// What a load reads from (border-independent view for bounds analysis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadTarget {
    /// Kernel input image with this index.
    Input(usize),
    /// Inlined stage with this index.
    Stage(usize),
}

/// A distinct `(target, dx, dy)` access of a tape, used by the tile
/// executor to compute per-row spans where every load is statically in
/// bounds (and can skip border resolution entirely).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadSite {
    /// What is read.
    pub target: LoadTarget,
    /// Horizontal offset in pixels.
    pub dx: i32,
    /// Vertical offset in pixels.
    pub dy: i32,
}

/// A compiled stage: flat SSA instruction tape plus per-channel roots.
#[derive(Clone, Debug)]
pub struct Tape {
    /// Instructions in evaluation order; instruction `i` writes register
    /// `i`. The first [`Tape::const_len`] instructions are constants.
    pub instrs: Vec<Instr>,
    /// Number of leading [`Instr::Const`] instructions. Per-pixel
    /// evaluation may pre-fill registers `0..const_len` once and start the
    /// scan at `const_len`.
    pub const_len: usize,
    /// Register holding the value of each output channel.
    pub roots: Vec<u32>,
    /// Distinct load sites (for in-bounds span analysis).
    pub loads: Vec<LoadSite>,
    /// Physical row-buffer slot assigned to each register by the liveness
    /// allocator ([`Tape::n_slots`] slots total). Scalar per-pixel
    /// evaluation ignores this and indexes registers directly; the vector
    /// interior in [`crate::tile`] stores one *row* per slot, so reusing
    /// dead registers' slots keeps the whole working set L1-resident even
    /// for deeply fused tapes.
    pub slots: Vec<u32>,
    /// Number of distinct row slots needed (`<= instrs.len()`).
    pub n_slots: usize,
}

impl Tape {
    /// Number of registers the tape needs.
    pub fn reg_count(&self) -> usize {
        self.instrs.len()
    }

    /// Fills the constant prefix of `regs`.
    #[inline]
    pub fn init_consts(&self, regs: &mut [f32]) {
        for (i, ins) in self.instrs[..self.const_len].iter().enumerate() {
            if let Instr::Const(v) = ins {
                regs[i] = *v;
            }
        }
    }
}

/// Hash-cons key: structural identity of a sub-expression. `f32` payloads
/// are keyed by their bit patterns so that CSE only ever merges *bitwise*
/// identical computations.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Key {
    Const(u32),
    LoadInput(u16, i32, i32, u16, BorderKey),
    LoadStage(u16, i32, i32, u16, BorderKey),
    Bin(BinOp, u32, u32),
    Un(UnOp, u32),
    Select(u32, u32, u32),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum BorderKey {
    Clamp,
    Mirror,
    Repeat,
    Constant(u32),
}

impl Key {
    /// The key's fields in one word: the variant in bits 0..3, then the
    /// operands. Injective except for a `Constant` border's value, whose
    /// top 8 bits are folded into its low 24, so at most 256 distinct keys
    /// share a word — a body cannot be built to make the CSE map
    /// quadratic.
    fn packed(self) -> u128 {
        let load = |tag: u128, at: u16, dx: i32, dy: i32, ch: u16, border: BorderKey| {
            let (mode, v) = match border {
                BorderKey::Clamp => (0, 0),
                BorderKey::Mirror => (1, 0),
                BorderKey::Repeat => (2, 0),
                BorderKey::Constant(v) => (3, (v ^ (v >> 24)) & 0xff_ffff),
            };
            tag | mode << 3
                | u128::from(at) << 8
                | u128::from(ch) << 24
                | u128::from(dx as u32) << 40
                | u128::from(dy as u32) << 72
                | u128::from(v) << 104
        };
        match self {
            Key::Const(bits) => u128::from(bits) << 8,
            Key::LoadInput(i, dx, dy, ch, b) => load(1, i, dx, dy, ch, b),
            Key::LoadStage(j, dx, dy, ch, b) => load(2, j, dx, dy, ch, b),
            Key::Bin(op, a, b) => 3 | (op as u128) << 8 | u128::from(a) << 32 | u128::from(b) << 64,
            Key::Un(op, a) => 4 | (op as u128) << 8 | u128::from(a) << 32,
            Key::Select(c, t, f) => {
                5 | u128::from(c) << 32 | u128::from(t) << 64 | u128::from(f) << 96
            }
        }
    }
}

impl Hash for Key {
    /// One `write_u128`: the keyed hasher takes the whole key in one
    /// write instead of one per field.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.packed());
    }
}

impl From<BorderMode> for BorderKey {
    fn from(b: BorderMode) -> Self {
        match b {
            BorderMode::Clamp => BorderKey::Clamp,
            BorderMode::Mirror => BorderKey::Mirror,
            BorderMode::Repeat => BorderKey::Repeat,
            BorderMode::Constant(v) => BorderKey::Constant(v.to_bits()),
        }
    }
}

struct TapeBuilder {
    instrs: Vec<Instr>,
    cse: HashMap<Key, u32>,
    loads: Vec<LoadSite>,
}

impl TapeBuilder {
    /// A builder for `stage`, with room for one instruction per body node
    /// (CSE only ever emits fewer), so neither the tape nor the CSE map
    /// regrows while lowering.
    fn for_stage(stage: &Stage) -> Self {
        let nodes = stage.body.iter().map(Expr::size).sum();
        TapeBuilder {
            instrs: Vec::with_capacity(nodes),
            cse: HashMap::with_capacity(nodes),
            loads: Vec::new(),
        }
    }

    fn intern(&mut self, key: Key, instr: Instr) -> u32 {
        if let Some(&r) = self.cse.get(&key) {
            return r;
        }
        let r = self.instrs.len() as u32;
        self.instrs.push(instr);
        self.cse.insert(key, r);
        r
    }

    fn record_load(&mut self, target: LoadTarget, dx: i32, dy: i32) {
        let site = LoadSite { target, dx, dy };
        if !self.loads.contains(&site) {
            self.loads.push(site);
        }
    }

    fn lower(&mut self, stage: &Stage, e: &Expr) -> u32 {
        match e {
            Expr::Const(v) => self.intern(Key::Const(v.to_bits()), Instr::Const(*v)),
            Expr::Param(i) => {
                let v = stage.params[*i];
                self.intern(Key::Const(v.to_bits()), Instr::Const(v))
            }
            Expr::Load { slot, dx, dy, ch } => {
                let border = stage.borders[*slot];
                let (dx, dy, ch) = (*dx, *dy, *ch as u16);
                match stage.refs[*slot] {
                    StageRef::Input(i) => {
                        self.record_load(LoadTarget::Input(i), dx, dy);
                        self.intern(
                            Key::LoadInput(i as u16, dx, dy, ch, border.into()),
                            Instr::LoadInput {
                                input: i as u16,
                                dx,
                                dy,
                                ch,
                                border,
                            },
                        )
                    }
                    StageRef::Stage(j) => {
                        self.record_load(LoadTarget::Stage(j), dx, dy);
                        self.intern(
                            Key::LoadStage(j as u16, dx, dy, ch, border.into()),
                            Instr::LoadStage {
                                stage: j as u16,
                                dx,
                                dy,
                                ch,
                                border,
                            },
                        )
                    }
                }
            }
            Expr::Bin(op, a, b) => {
                let ra = self.lower(stage, a);
                let rb = self.lower(stage, b);
                self.intern(Key::Bin(*op, ra, rb), Instr::Bin(*op, ra, rb))
            }
            Expr::Un(op, a) => {
                let ra = self.lower(stage, a);
                self.intern(Key::Un(*op, ra), Instr::Un(*op, ra))
            }
            Expr::Select(c, t, f) => {
                let rc = self.lower(stage, c);
                let rt = self.lower(stage, t);
                let rf = self.lower(stage, f);
                self.intern(Key::Select(rc, rt, rf), Instr::Select(rc, rt, rf))
            }
        }
    }
}

/// Remaps operand registers of `instr` through `map`.
fn remap(instr: Instr, map: &[u32]) -> Instr {
    match instr {
        Instr::Const(_) | Instr::LoadInput { .. } | Instr::LoadStage { .. } => instr,
        Instr::Bin(op, a, b) => Instr::Bin(op, map[a as usize], map[b as usize]),
        Instr::Un(op, a) => Instr::Un(op, map[a as usize]),
        Instr::Select(c, t, f) => Instr::Select(map[c as usize], map[t as usize], map[f as usize]),
        Instr::MulAdd(a, b, c) => Instr::MulAdd(map[a as usize], map[b as usize], map[c as usize]),
    }
}

/// Appends the operand registers of `instr` to `ops`.
fn operands(instr: Instr, ops: &mut Vec<u32>) {
    match instr {
        Instr::Const(_) | Instr::LoadInput { .. } | Instr::LoadStage { .. } => {}
        Instr::Bin(_, a, b) => ops.extend([a, b]),
        Instr::Un(_, a) => ops.push(a),
        Instr::Select(c, t, f) | Instr::MulAdd(c, t, f) => ops.extend([c, t, f]),
    }
}

/// Rewrites `Bin(Add, a, m)` where register `m` is a single-use
/// `Bin(Mul, b, c)` into one [`Instr::MulAdd`] — the shape `Expr::convolve`
/// accumulate chains lower to. Operand order is preserved (`a + b * c`,
/// multiply consumed as the *right* addend only), so results stay
/// bit-identical to the unfused pair; no floating-point contraction takes
/// place, the two roundings survive.
fn fuse_muladd(instrs: &mut Vec<Instr>, roots: &mut [u32]) {
    let n = instrs.len();
    let mut uses = vec![0u32; n];
    let mut ops = Vec::new();
    for ins in instrs.iter() {
        ops.clear();
        operands(*ins, &mut ops);
        for &o in &ops {
            uses[o as usize] += 1;
        }
    }
    for &r in roots.iter() {
        uses[r as usize] += 1;
    }

    let mut removed = vec![false; n];
    let mut fused: Vec<Option<(u32, u32, u32)>> = vec![None; n];
    for i in 0..n {
        if let Instr::Bin(BinOp::Add, a, m) = instrs[i] {
            if a == m {
                continue;
            }
            if let Instr::Bin(BinOp::Mul, b, c) = instrs[m as usize] {
                // `uses` counts root references too, so a single-use
                // multiply is guaranteed not to be an output channel.
                if uses[m as usize] == 1 {
                    removed[m as usize] = true;
                    fused[i] = Some((a, b, c));
                }
            }
        }
    }

    let mut map = vec![0u32; n];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if removed[i] {
            continue;
        }
        map[i] = out.len() as u32;
        let ins = match fused[i] {
            // `a`, `b`, `c` all precede the removed multiply (SSA order),
            // so their `map` entries are already final.
            Some((a, b, c)) => Instr::MulAdd(map[a as usize], map[b as usize], map[c as usize]),
            None => remap(instrs[i], &map),
        };
        out.push(ins);
    }
    for r in roots.iter_mut() {
        *r = map[*r as usize];
    }
    *instrs = out;
}

/// Assigns a physical row-buffer slot to every register via a last-use
/// liveness scan with a free list. Constants are pinned to slots
/// `0..const_len` (pre-filled once per strip) and roots stay live to the
/// end (read after the scan). An instruction's own slot is allocated
/// *before* its dead operands are released, so an output row never aliases
/// one of its operand rows — the disjointness the vector interior relies
/// on when it borrows the output row mutably next to its operand rows.
fn assign_slots(instrs: &[Instr], const_len: usize, roots: &[u32]) -> (Vec<u32>, usize) {
    let n = instrs.len();
    let mut last_use = vec![usize::MAX; n];
    let mut ops = Vec::new();
    for (i, ins) in instrs.iter().enumerate() {
        ops.clear();
        operands(*ins, &mut ops);
        for &o in &ops {
            last_use[o as usize] = i;
        }
    }
    // Pin roots (and the constant prefix) for the whole tape.
    let mut pinned = vec![false; n];
    for p in pinned.iter_mut().take(const_len) {
        *p = true;
    }
    for &r in roots {
        pinned[r as usize] = true;
    }

    let mut slots = vec![0u32; n];
    let mut free: Vec<u32> = Vec::new();
    let mut next = const_len as u32;
    for (i, s) in slots.iter_mut().enumerate().take(const_len) {
        *s = i as u32;
    }
    for i in const_len..n {
        slots[i] = free.pop().unwrap_or_else(|| {
            let s = next;
            next += 1;
            s
        });
        ops.clear();
        operands(instrs[i], &mut ops);
        ops.sort_unstable();
        ops.dedup();
        for &o in &ops {
            let o = o as usize;
            if last_use[o] == i && !pinned[o] && o >= const_len {
                free.push(slots[o]);
            }
        }
    }
    (slots, next as usize)
}

/// Compiles one stage into a [`Tape`], CSE'ing across all channel bodies
/// and hoisting constants to the tape prefix.
///
/// # Panics
///
/// Panics if the stage has more than `u16::MAX` inputs or stage refs (far
/// beyond anything fusion produces).
pub fn compile_stage(stage: &Stage) -> Tape {
    assert!(
        stage.refs.len() <= u16::MAX as usize,
        "stage reference table too large"
    );
    let mut b = TapeBuilder::for_stage(stage);
    let roots: Vec<u32> = stage.body.iter().map(|e| b.lower(stage, e)).collect();

    // Hoist constants to a prefix so per-pixel evaluation can skip them.
    let const_len = b
        .instrs
        .iter()
        .filter(|i| matches!(i, Instr::Const(_)))
        .count();
    let mut map = vec![0u32; b.instrs.len()];
    let mut out: Vec<Instr> = Vec::with_capacity(b.instrs.len());
    let mut next_const = 0usize;
    let mut next_rest = const_len;
    // First place constants, then the rest, preserving relative order; the
    // forward pass sees every operand before its user, so `map` is ready
    // when needed.
    for pass in 0..2 {
        for (i, ins) in b.instrs.iter().enumerate() {
            let is_const = matches!(ins, Instr::Const(_));
            if (pass == 0) != is_const {
                continue;
            }
            let slot = if is_const {
                &mut next_const
            } else {
                &mut next_rest
            };
            map[i] = *slot as u32;
            *slot += 1;
        }
    }
    out.resize(b.instrs.len(), Instr::Const(0.0));
    for (i, ins) in b.instrs.iter().enumerate() {
        out[map[i] as usize] = remap(*ins, &map);
    }
    let mut roots: Vec<u32> = roots.into_iter().map(|r| map[r as usize]).collect();
    fuse_muladd(&mut out, &mut roots);
    let (slots, n_slots) = assign_slots(&out, const_len, &roots);
    Tape {
        instrs: out,
        const_len,
        roots,
        loads: b.loads,
        slots,
        n_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{Expr, MemSpace};

    fn stage(body: Vec<Expr>, refs: Vec<StageRef>, borders: Vec<BorderMode>) -> Stage {
        Stage {
            name: "s".into(),
            refs,
            borders,
            body: body.into(),
            params: vec![2.5],
            space: MemSpace::Global,
        }
    }

    #[test]
    fn cse_merges_identical_loads() {
        // load(0) * load(0): one load instruction, one multiply.
        let s = stage(
            vec![Expr::load(0) * Expr::load(0)],
            vec![StageRef::Input(0)],
            vec![BorderMode::Clamp],
        );
        let t = compile_stage(&s);
        assert_eq!(t.instrs.len(), 2);
        assert_eq!(t.loads.len(), 1);
        match t.instrs[1] {
            Instr::Bin(BinOp::Mul, a, b) => assert_eq!(a, b),
            ref other => panic!("unexpected instr {other:?}"),
        }
    }

    #[test]
    fn cse_shares_across_channels() {
        // Two channels both reading load(0): the load is emitted once.
        let s = stage(
            vec![
                Expr::load(0) + Expr::Const(1.0),
                Expr::load(0) * Expr::Const(2.0),
            ],
            vec![StageRef::Input(0)],
            vec![BorderMode::Clamp],
        );
        let t = compile_stage(&s);
        let load_count = t
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::LoadInput { .. }))
            .count();
        assert_eq!(load_count, 1);
        assert_eq!(t.roots.len(), 2);
        assert_ne!(t.roots[0], t.roots[1]);
    }

    #[test]
    fn params_resolve_to_constants() {
        let s = stage(
            vec![Expr::load(0) * Expr::Param(0)],
            vec![StageRef::Input(0)],
            vec![BorderMode::Clamp],
        );
        let t = compile_stage(&s);
        assert!(t
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Const(v) if *v == 2.5)));
    }

    #[test]
    fn constants_are_hoisted_to_prefix() {
        let s = stage(
            vec![(Expr::load(0) + Expr::Const(3.0)) * Expr::Const(4.0)],
            vec![StageRef::Input(0)],
            vec![BorderMode::Clamp],
        );
        let t = compile_stage(&s);
        assert_eq!(t.const_len, 2);
        assert!(t.instrs[..2].iter().all(|i| matches!(i, Instr::Const(_))));
        assert!(t.instrs[2..].iter().all(|i| !matches!(i, Instr::Const(_))));
        // Roots and operand indices stay consistent after hoisting.
        let mut regs = vec![0.0f32; t.reg_count()];
        t.init_consts(&mut regs);
        for i in t.const_len..t.instrs.len() {
            regs[i] = match t.instrs[i] {
                Instr::LoadInput { .. } => 10.0, // pretend the pixel is 10
                Instr::Bin(op, a, b) => op.apply(regs[a as usize], regs[b as usize]),
                Instr::Un(op, a) => op.apply(regs[a as usize]),
                Instr::Select(c, a, b) => {
                    if regs[c as usize] > 0.0 {
                        regs[a as usize]
                    } else {
                        regs[b as usize]
                    }
                }
                Instr::MulAdd(a, b, c) => regs[a as usize] + regs[b as usize] * regs[c as usize],
                Instr::LoadStage { .. } | Instr::Const(_) => unreachable!(),
            };
        }
        assert_eq!(regs[t.roots[0] as usize], (10.0 + 3.0) * 4.0);
    }

    #[test]
    fn distinct_borders_do_not_merge() {
        // Same (slot, offset, channel) read under different border modes
        // must stay distinct instructions.
        let s = Stage {
            name: "s".into(),
            refs: vec![StageRef::Input(0), StageRef::Input(0)],
            borders: vec![BorderMode::Clamp, BorderMode::Constant(0.0)],
            body: vec![Expr::load_at(0, -1, 0) + Expr::load_at(1, -1, 0)].into(),
            params: vec![],
            space: MemSpace::Global,
        };
        let t = compile_stage(&s);
        let loads = t
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::LoadInput { .. }))
            .count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn muladd_fuses_convolution_accumulate_chains() {
        // l0*c + l1*c2: first product stays a Mul (left-most term), the
        // accumulate step becomes one MulAdd; the fused multiply is gone.
        let s = stage(
            vec![Expr::load(0) * Expr::Const(2.0) + Expr::load_at(0, 1, 0) * Expr::Const(3.0)],
            vec![StageRef::Input(0)],
            vec![BorderMode::Clamp],
        );
        let t = compile_stage(&s);
        let muladds = t
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::MulAdd(..)))
            .count();
        let adds = t
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Bin(BinOp::Add, ..)))
            .count();
        assert_eq!(muladds, 1);
        assert_eq!(adds, 0);
        // consts(2) + loads(2) + first Mul + MulAdd
        assert_eq!(t.instrs.len(), 6);
        assert!(matches!(t.instrs[t.roots[0] as usize], Instr::MulAdd(..)));
    }

    #[test]
    fn muladd_skips_shared_products() {
        // The product feeds two adds (CSE shares it): fusing would
        // duplicate work, so both adds must stay plain `Bin(Add, ..)`.
        let prod = Expr::load(0) * Expr::Const(2.0);
        let s = stage(
            vec![
                Expr::load_at(0, 1, 0) + prod.clone(),
                Expr::load_at(0, 2, 0) + prod,
            ],
            vec![StageRef::Input(0)],
            vec![BorderMode::Clamp],
        );
        let t = compile_stage(&s);
        assert!(!t.instrs.iter().any(|i| matches!(i, Instr::MulAdd(..))));
        assert!(t
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Bin(BinOp::Mul, ..))));
    }

    #[test]
    fn slot_allocation_reuses_dead_registers() {
        // A long accumulate chain has a narrow live range: slot count must
        // come out well below the register count, constants keep their
        // identity slots, and no two simultaneously-live registers may
        // share a slot.
        let mut e = Expr::load(0) * Expr::Const(0.5);
        for k in 1..9 {
            e = e + Expr::load_at(0, k, 0) * Expr::Const(k as f32 + 1.5);
        }
        let s = stage(vec![e], vec![StageRef::Input(0)], vec![BorderMode::Clamp]);
        let t = compile_stage(&s);
        assert_eq!(t.slots.len(), t.instrs.len());
        assert!(t.n_slots < t.instrs.len(), "no reuse: {} slots", t.n_slots);
        for i in 0..t.const_len {
            assert_eq!(t.slots[i] as usize, i);
        }
        // Liveness check: walking the tape, an instruction's output slot
        // must differ from the slot of every register still to be read.
        for i in t.const_len..t.instrs.len() {
            for j in i + 1..t.instrs.len() {
                let mut ops = Vec::new();
                super::operands(t.instrs[j], &mut ops);
                for &o in &ops {
                    if (o as usize) < i {
                        assert_ne!(
                            t.slots[i], t.slots[o as usize],
                            "instr {i} clobbers live reg {o} (read by {j})"
                        );
                    }
                }
            }
        }
        for &r in &t.roots {
            for i in (r as usize + 1)..t.instrs.len() {
                assert_ne!(t.slots[i], t.slots[r as usize], "root clobbered");
            }
        }
    }

    #[test]
    fn packed_keys_tell_every_field_apart() {
        let clamp = BorderKey::Clamp;
        let keys = [
            Key::Const(0),
            Key::Const(1),
            Key::LoadInput(0, 0, 0, 0, clamp),
            Key::LoadStage(0, 0, 0, 0, clamp),
            Key::LoadInput(1, 0, 0, 0, clamp),
            Key::LoadInput(0, 1, 0, 0, clamp),
            Key::LoadInput(0, -1, 0, 0, clamp),
            Key::LoadInput(0, 0, 1, 0, clamp),
            Key::LoadInput(0, 0, -1, 0, clamp),
            Key::LoadInput(0, 0, 0, 1, clamp),
            Key::LoadInput(0, 0, 0, 0, BorderKey::Mirror),
            Key::LoadInput(0, 0, 0, 0, BorderKey::Repeat),
            Key::LoadInput(0, 0, 0, 0, BorderKey::Constant(0)),
            Key::LoadInput(0, 0, 0, 0, BorderKey::Constant(1.0f32.to_bits())),
            Key::Bin(BinOp::Add, 0, 0),
            Key::Bin(BinOp::Sub, 0, 0),
            Key::Bin(BinOp::Add, 1, 0),
            Key::Bin(BinOp::Add, 0, 1),
            Key::Un(UnOp::Neg, 0),
            Key::Un(UnOp::Abs, 0),
            Key::Un(UnOp::Neg, 1),
            Key::Select(0, 0, 0),
            Key::Select(1, 0, 0),
            Key::Select(0, 1, 0),
            Key::Select(0, 0, 1),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a.packed(), b.packed(), "two keys share a word");
            }
        }
    }

    #[test]
    fn stage_loads_recorded_for_span_analysis() {
        let s = stage(
            vec![Expr::load_at(0, -2, 1) + Expr::load(0)],
            vec![StageRef::Stage(0)],
            vec![BorderMode::Mirror],
        );
        let t = compile_stage(&s);
        assert_eq!(
            t.loads,
            vec![
                LoadSite {
                    target: LoadTarget::Stage(0),
                    dx: -2,
                    dy: 1
                },
                LoadSite {
                    target: LoadTarget::Stage(0),
                    dx: 0,
                    dy: 0
                },
            ]
        );
    }
}
