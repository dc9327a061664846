//! Structural pipeline fingerprints for plan caching.
//!
//! A serving layer that wants to *plan once and execute many times* needs a
//! stable identity for "the same pipeline": two [`Pipeline`]s that perform
//! the same computation must map to the same cache key even when they were
//! built by different code paths, in a different order, or with different
//! display names. [`Pipeline::fingerprint`] provides that identity:
//!
//! * it hashes **semantics** — kernel expressions (including convolution
//!   mask coefficients, which are `Const` leaves of the unrolled expression
//!   trees), bound parameters, border modes, iteration-space shapes, stage
//!   memory spaces, and the producer/consumer wiring between kernels;
//! * it ignores **presentation** — kernel names, image names, and the
//!   insertion order of kernels and intermediate images.
//!
//! Order independence comes from canonical image labels: every image gets a
//! label derived from its shape and (transitively) the digest of its
//! producer kernel, computed in dependence order, so a kernel's digest
//! depends only on *what* it reads, never on *when* it was added. The
//! per-kernel digests are then combined with a commutative fold.
//!
//! The declared pipeline **interface** — the order of [`Pipeline::inputs`]
//! and [`Pipeline::outputs`] — is part of the fingerprint: it is how a
//! caller addresses the pipeline, not an artifact of construction.
//!
//! A fingerprint is a 64-bit hash, not a proof of equality. Consumers that
//! reuse compiled artifacts across pipeline *instances* (the `kfuse-runtime`
//! plan cache) additionally compare [`Pipeline::binding_fingerprint`], an
//! order-**sensitive** digest of the raw `ImageId`/`KernelId` wiring: two
//! pipelines agreeing on both hashes can safely exchange compiled plans and
//! caller-side `(ImageId, Image)` input bindings; a structural match with a
//! different id layout merely costs a recompile.

use crate::expr::{BinOp, Expr, UnOp};
use crate::kernel::{Kernel, MemSpace, StageRef};
use crate::pipeline::Pipeline;
use crate::BorderMode;

/// FNV-1a, 64 bit: tiny, dependency-free, and stable across platforms and
/// processes (unlike [`std::collections::hash_map::DefaultHasher`], whose
/// keys are randomized per process — useless for cross-run cache keys).
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    #[inline]
    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    #[inline]
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    #[inline]
    fn i32(&mut self, v: i32) {
        self.u32(v as u32);
    }

    /// `f32` payloads are keyed by bit pattern so that `-0.0` vs `0.0` and
    /// NaN payloads are distinguished exactly like the executors do.
    #[inline]
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn border_tag(h: &mut Fnv, b: BorderMode) {
    match b {
        BorderMode::Clamp => h.byte(0),
        BorderMode::Mirror => h.byte(1),
        BorderMode::Repeat => h.byte(2),
        BorderMode::Constant(v) => {
            h.byte(3);
            h.f32(v);
        }
    }
}

fn bin_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Min => 4,
        BinOp::Max => 5,
        BinOp::Pow => 6,
        BinOp::Lt => 7,
        BinOp::Gt => 8,
    }
}

fn un_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Abs => 1,
        UnOp::Sqrt => 2,
        UnOp::Exp => 3,
        UnOp::Log => 4,
        UnOp::Sin => 5,
        UnOp::Cos => 6,
        UnOp::Rsqrt => 7,
        UnOp::Floor => 8,
    }
}

fn expr_hash(h: &mut Fnv, e: &Expr) {
    match e {
        Expr::Const(v) => {
            h.byte(10);
            h.f32(*v);
        }
        Expr::Param(i) => {
            h.byte(11);
            h.usize(*i);
        }
        Expr::Load { slot, dx, dy, ch } => {
            h.byte(12);
            h.usize(*slot);
            h.i32(*dx);
            h.i32(*dy);
            h.usize(*ch);
        }
        Expr::Bin(op, a, b) => {
            h.byte(13);
            h.byte(bin_tag(*op));
            expr_hash(h, a);
            expr_hash(h, b);
        }
        Expr::Un(op, a) => {
            h.byte(14);
            h.byte(un_tag(*op));
            expr_hash(h, a);
        }
        Expr::Select(c, t, f) => {
            h.byte(15);
            expr_hash(h, c);
            expr_hash(h, t);
            expr_hash(h, f);
        }
    }
}

/// Hashes everything semantically relevant inside one kernel, *except* its
/// image bindings (supplied by the caller as canonical labels or raw ids).
fn kernel_body_hash(h: &mut Fnv, k: &Kernel) {
    h.usize(k.stages.len());
    h.usize(k.root);
    h.byte(u8::from(k.input_staging));
    for s in &k.stages {
        // Stage order is semantic: `StageRef::Stage(j)` indexes it.
        h.byte(20);
        h.usize(s.refs.len());
        for r in &s.refs {
            match r {
                StageRef::Input(i) => {
                    h.byte(0);
                    h.usize(*i);
                }
                StageRef::Stage(j) => {
                    h.byte(1);
                    h.usize(*j);
                }
            }
        }
        for b in &s.borders {
            border_tag(h, *b);
        }
        h.usize(s.params.len());
        for p in &s.params {
            h.f32(*p);
        }
        match s.space {
            MemSpace::Global => h.byte(0),
            MemSpace::Shared => h.byte(1),
            MemSpace::Register => h.byte(2),
        }
        h.usize(s.body.len());
        for e in s.body.iter() {
            expr_hash(h, e);
        }
    }
}

fn shape_hash(h: &mut Fnv, p: &Pipeline, img: crate::ImageId) {
    let d = p.image(img);
    h.usize(d.width);
    h.usize(d.height);
    h.usize(d.channels);
}

impl Pipeline {
    /// A stable, order-independent structural fingerprint of the pipeline.
    ///
    /// Two pipelines receive the same fingerprint iff (modulo 64-bit hash
    /// collisions) they perform the same computation: same kernel
    /// expressions, mask coefficients, parameters, border modes, memory
    /// spaces, iteration-space shapes, inter-kernel wiring, and declared
    /// input/output interface. Kernel and image **names** and the
    /// **insertion order** of kernels and intermediate images do not
    /// affect the result; see the module docs for the construction.
    pub fn fingerprint(&self) -> u64 {
        // Canonical image labels, in dependence order: an image's label is
        // its shape for pipeline sources, extended with its producer's
        // digest once that digest is known.
        let mut labels: Vec<u64> = (0..self.images().len())
            .map(|i| {
                let mut h = Fnv::new();
                h.byte(1);
                shape_hash(&mut h, self, crate::ImageId(i));
                h.finish()
            })
            .collect();

        // Kernel digests accumulate in topological order so every digest
        // sees final labels for all of its inputs. (A cyclic pipeline never
        // executes; fall back to insertion order rather than panic.)
        let order: Vec<usize> = self
            .kernel_dag()
            .topo_order()
            .map(|o| o.into_iter().map(|n| n.0).collect())
            .unwrap_or_else(|| (0..self.kernels().len()).collect());
        let mut combined: u64 = 0;
        for ki in order {
            let k = &self.kernels()[ki];
            let mut h = Fnv::new();
            h.byte(2);
            h.usize(k.inputs.len());
            for &img in &k.inputs {
                h.u64(*labels.get(img.0).unwrap_or(&0));
            }
            if k.output.0 < self.images().len() {
                shape_hash(&mut h, self, k.output);
            }
            kernel_body_hash(&mut h, k);
            let digest = h.finish();
            // Commutative fold over kernels: insertion order vanishes.
            combined = combined.wrapping_add(digest | 1);
            if let Some(label) = labels.get_mut(k.output.0) {
                let mut h = Fnv::new();
                h.byte(3);
                h.u64(digest);
                *label = h.finish();
            }
        }

        let mut h = Fnv::new();
        h.byte(4);
        h.usize(self.kernels().len());
        h.u64(combined);
        // The declared interface, in declaration order: how callers address
        // the pipeline is part of its identity.
        h.usize(self.inputs().len());
        for &i in self.inputs() {
            h.u64(labels[i.0]);
        }
        h.usize(self.outputs().len());
        for &o in self.outputs() {
            h.u64(labels[o.0]);
        }
        h.finish()
    }

    /// An order-**sensitive** digest of the pipeline's id-level layout:
    /// image shapes in [`crate::ImageId`] order, declared input/output id
    /// lists, and every kernel's raw image ids and body in insertion order.
    ///
    /// Names are still ignored, but unlike [`Pipeline::fingerprint`] this
    /// hash changes when ids are permuted. Plan caches use it as a guard:
    /// a compiled plan may be reused for a request only when both hashes
    /// match, which guarantees the caller's `(ImageId, Image)` bindings
    /// mean the same thing in the cached plan's pipeline.
    pub fn binding_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.byte(5);
        h.usize(self.images().len());
        for i in 0..self.images().len() {
            shape_hash(&mut h, self, crate::ImageId(i));
        }
        h.usize(self.inputs().len());
        for &i in self.inputs() {
            h.usize(i.0);
        }
        h.usize(self.outputs().len());
        for &o in self.outputs() {
            h.usize(o.0);
        }
        h.usize(self.kernels().len());
        for k in self.kernels() {
            h.usize(k.inputs.len());
            for &img in &k.inputs {
                h.usize(img.0);
            }
            h.usize(k.output.0);
            kernel_body_hash(&mut h, k);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{BorderMode, Expr, ImageDesc, Kernel, Pipeline};

    fn desc(name: &str) -> ImageDesc {
        ImageDesc::new(name, 16, 16, 1)
    }

    fn mask3(center: f32) -> Vec<Expr> {
        let mask: Vec<Vec<f32>> = vec![
            vec![1.0, 2.0, 1.0],
            vec![2.0, center, 2.0],
            vec![1.0, 2.0, 1.0],
        ];
        let rows: Vec<&[f32]> = mask.iter().map(Vec::as_slice).collect();
        vec![Expr::convolve(0, 0, &rows)]
    }

    /// blur → {sq, dbl}, built with configurable insertion order for both
    /// the intermediate images and the kernels.
    fn two_branch(swapped: bool, border: BorderMode, center: f32) -> Pipeline {
        let mut p = Pipeline::new(if swapped { "b" } else { "a" });
        let input = p.add_input(desc("in"));
        let (mid, o1, o2);
        if swapped {
            o2 = p.add_image(desc("o2'"));
            o1 = p.add_image(desc("o1'"));
            mid = p.add_image(desc("mid'"));
        } else {
            mid = p.add_image(desc("mid"));
            o1 = p.add_image(desc("o1"));
            o2 = p.add_image(desc("o2"));
        }
        let blur = Kernel::simple(
            "blur",
            vec![input],
            mid,
            vec![border],
            mask3(center),
            vec![],
        );
        let sq = Kernel::simple(
            "sq",
            vec![mid],
            o1,
            vec![border],
            vec![Expr::load(0) * Expr::load(0)],
            vec![],
        );
        let dbl = Kernel::simple(
            "dbl",
            vec![mid],
            o2,
            vec![border],
            vec![Expr::load(0) * Expr::Const(2.0)],
            vec![],
        );
        if swapped {
            p.add_kernel(dbl);
            p.add_kernel(blur);
            p.add_kernel(sq);
        } else {
            p.add_kernel(blur);
            p.add_kernel(sq);
            p.add_kernel(dbl);
        }
        p.mark_output(o1);
        p.mark_output(o2);
        p.validate().unwrap();
        p
    }

    #[test]
    fn insertion_order_and_names_do_not_matter() {
        let a = two_branch(false, BorderMode::Clamp, 4.0);
        let b = two_branch(true, BorderMode::Clamp, 4.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let a = two_branch(false, BorderMode::Mirror, 4.0);
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_eq!(
            a.fingerprint(),
            two_branch(false, BorderMode::Mirror, 4.0).fingerprint()
        );
    }

    #[test]
    fn mask_coefficient_changes_hash() {
        let a = two_branch(false, BorderMode::Clamp, 4.0);
        let b = two_branch(false, BorderMode::Clamp, 4.5);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn border_mode_changes_hash() {
        let a = two_branch(false, BorderMode::Clamp, 4.0);
        let b = two_branch(false, BorderMode::Mirror, 4.0);
        let c = two_branch(false, BorderMode::Constant(0.0), 4.0);
        let d = two_branch(false, BorderMode::Constant(1.0), 4.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(b.fingerprint(), c.fingerprint());
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn expression_changes_hash() {
        let mut a = two_branch(false, BorderMode::Clamp, 4.0);
        let b = a.clone();
        // Replace sq's body: load*load → load+load.
        let mut kernels = b.kernels().to_vec();
        kernels[1].stages[0].body = vec![Expr::load(0) + Expr::load(0)].into();
        a = a.with_kernels(kernels);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn shape_changes_hash() {
        let small = two_branch(false, BorderMode::Clamp, 4.0);
        let mut p = Pipeline::new("big");
        let input = p.add_input(ImageDesc::new("in", 32, 32, 1));
        let mid = p.add_image(ImageDesc::new("mid", 32, 32, 1));
        let o1 = p.add_image(ImageDesc::new("o1", 32, 32, 1));
        let o2 = p.add_image(ImageDesc::new("o2", 32, 32, 1));
        p.add_kernel(Kernel::simple(
            "blur",
            vec![input],
            mid,
            vec![BorderMode::Clamp],
            mask3(4.0),
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "sq",
            vec![mid],
            o1,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::load(0)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "dbl",
            vec![mid],
            o2,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::Const(2.0)],
            vec![],
        ));
        p.mark_output(o1);
        p.mark_output(o2);
        assert_ne!(small.fingerprint(), p.fingerprint());
    }

    #[test]
    fn output_marking_changes_hash() {
        let full = two_branch(false, BorderMode::Clamp, 4.0);
        let mut partial = two_branch(false, BorderMode::Clamp, 4.0);
        // Rebuild with only one declared output.
        let mut p = Pipeline::new("partial");
        let input = p.add_input(desc("in"));
        let mid = p.add_image(desc("mid"));
        let o1 = p.add_image(desc("o1"));
        let o2 = p.add_image(desc("o2"));
        for k in partial.kernels() {
            let mut k = k.clone();
            k.inputs = k.inputs.iter().map(|i| [input, mid, o1, o2][i.0]).collect();
            k.output = [input, mid, o1, o2][k.output.0];
            p.add_kernel(k);
        }
        p.mark_output(o1);
        partial = p;
        assert_ne!(full.fingerprint(), partial.fingerprint());
    }

    #[test]
    fn binding_fingerprint_is_order_sensitive() {
        let a = two_branch(false, BorderMode::Clamp, 4.0);
        let b = two_branch(true, BorderMode::Clamp, 4.0);
        // Structurally identical (same fingerprint) but the ImageId layout
        // differs, so plans must not be exchanged between them.
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.binding_fingerprint(), b.binding_fingerprint());
        // Same construction → same layout.
        assert_eq!(
            a.binding_fingerprint(),
            two_branch(false, BorderMode::Clamp, 4.0).binding_fingerprint()
        );
    }

    #[test]
    fn names_do_not_affect_binding_fingerprint() {
        let a = two_branch(false, BorderMode::Clamp, 4.0);
        let mut kernels = a.kernels().to_vec();
        for k in &mut kernels {
            k.name = format!("renamed-{}", k.name);
        }
        let renamed = a.with_kernels(kernels);
        assert_eq!(a.binding_fingerprint(), renamed.binding_fingerprint());
        assert_eq!(a.fingerprint(), renamed.fingerprint());
    }
}
