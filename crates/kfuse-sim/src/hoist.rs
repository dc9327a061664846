//! Staging per-tap transcendental subexpressions as stages of their own.
//!
//! A window operator written over a transformed input — Enhance's
//! geometric mean, `exp(Σ ln(in(x+dx, y+dy) + 1) / 9) − 1` — evaluates the
//! transform once per *tap*: nine `ln` per pixel, eight of which some
//! neighbour computes too. That is the redundant-computation cost `φ` of
//! the paper's Eqs. 7–8, inside one authored kernel. The strip engine
//! already evaluates a fused producer stage once per strip into a plane
//! (DESIGN.md §3.7); this rewrite turns the per-tap transform into such a
//! producer, so it runs once per pixel and the window reads the plane.
//!
//! [`stage_tap_subexpressions`] replaces every maximal subexpression
//! `f(load(slot, dx, dy, ch))` of a stage that
//!
//! * has that one load (possibly repeated) as its only leaf besides
//!   constants and parameters,
//! * contains a transcendental — `exp`, `ln`, `pow`, `sin` or `cos`;
//!   `sqrt` and `rsqrt` are single instructions, not worth a plane — and
//! * occurs at two or more offsets in the stage,
//!
//! with a load, at the same offset, of a new single-channel stage
//! `H = f(load(slot, 0, 0, ch))` placed just before the stage. The new
//! load slot keeps the old slot's border mode, except that `Constant(v)`
//! becomes `Constant(f(v))`, computed by the same `apply` calls the
//! interpreter makes. So an out-of-bounds tap still yields `f` of exactly
//! what the old load yielded: the old load resolved its position against
//! the image, the new one resolves it against the iteration space (the
//! index exchange of paper Figure 5), and a kernel's inputs share the
//! iteration space's shape. Every in-bounds value is the same `f` of the
//! same sample. Outputs stay bit-identical to the unrewritten kernel.
//!
//! One bottom-up scan records each node's leaves and a structural hash,
//! one top-down walk picks the occurrences, one more rebuilds the bodies;
//! each is linear in the size of the stage bodies. A kernel without a
//! transcendental costs one allocation-free scan.

use kfuse_ir::{BinOp, BorderMode, Expr, Kernel, MemSpace, Stage, StageRef, UnOp};
use std::collections::HashMap;

/// `k` with its per-tap transcendental subexpressions staged, or `None`
/// when no stage has one (or `k` fails [`Kernel::check`]): then the
/// kernel is best run as it is.
pub fn stage_tap_subexpressions(k: &Kernel) -> Option<Kernel> {
    // The allocation-free scan first: most kernels have no transcendental.
    let mut bodies = k.stages.iter().flat_map(|s| s.body.iter());
    if !bodies.any(contains_transcendental) || k.check().is_err() {
        return None;
    }
    let taps: Vec<Option<Taps>> = k.stages.iter().map(Taps::of).collect();
    if taps.iter().all(Option::is_none) {
        return None;
    }
    let mut stages = Vec::with_capacity(k.stages.len() + 1);
    // Old stage index → new.
    let mut index: Vec<usize> = Vec::with_capacity(k.stages.len());
    for (s, taps) in k.stages.iter().zip(&taps) {
        let mut refs: Vec<StageRef> = s
            .refs
            .iter()
            .map(|&r| match r {
                StageRef::Stage(j) => StageRef::Stage(index[j]),
                input => input,
            })
            .collect();
        let mut borders = s.borders.clone();
        let body = match taps {
            None => s.body.clone(),
            Some(t) => {
                for g in t.staged() {
                    let (shape, slot) = (t.groups[g].shape, t.groups[g].slot);
                    stages.push(Stage {
                        name: format!("{}.tap{}", s.name, refs.len() - s.refs.len()),
                        refs: vec![refs[slot]],
                        borders: vec![s.borders[slot]],
                        body: vec![shape.map_loads(&|_, _, _, ch| Expr::Load {
                            slot: 0,
                            dx: 0,
                            dy: 0,
                            ch,
                        })]
                        .into(),
                        params: s.params.clone(),
                        space: MemSpace::Shared,
                    });
                    refs.push(StageRef::Stage(stages.len() - 1));
                    borders.push(match s.borders[slot] {
                        BorderMode::Constant(v) => {
                            BorderMode::Constant(eval_at(shape, v, &s.params))
                        }
                        mode => mode,
                    });
                }
                let mut at = 0;
                s.body.iter().map(|e| t.rewrite(e, &mut at)).collect()
            }
        };
        index.push(stages.len());
        stages.push(Stage {
            name: s.name.clone(),
            refs,
            borders,
            body,
            params: s.params.clone(),
            space: s.space,
        });
    }
    Some(Kernel {
        name: k.name.clone(),
        inputs: k.inputs.clone(),
        output: k.output,
        stages,
        root: index[k.root],
        input_staging: k.input_staging,
    })
}

fn is_transcendental(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Bin(BinOp::Pow, ..) | Expr::Un(UnOp::Exp | UnOp::Log | UnOp::Sin | UnOp::Cos, _)
    )
}

fn contains_transcendental(e: &Expr) -> bool {
    is_transcendental(e)
        || match e {
            Expr::Const(_) | Expr::Param(_) | Expr::Load { .. } => false,
            Expr::Bin(_, a, b) => contains_transcendental(a) || contains_transcendental(b),
            Expr::Un(_, a) => contains_transcendental(a),
            Expr::Select(c, t, f) => [c, t, f].into_iter().any(|e| contains_transcendental(e)),
        }
}

/// `e` with every load yielding `v`, evaluated as the interpreter does.
fn eval_at(e: &Expr, v: f32, params: &[f32]) -> f32 {
    match e {
        Expr::Const(c) => *c,
        Expr::Param(i) => params[*i],
        Expr::Load { .. } => v,
        Expr::Bin(op, a, b) => op.apply(eval_at(a, v, params), eval_at(b, v, params)),
        Expr::Un(op, a) => op.apply(eval_at(a, v, params)),
        Expr::Select(c, t, f) => {
            if eval_at(c, v, params) > 0.0 {
                eval_at(t, v, params)
            } else {
                eval_at(f, v, params)
            }
        }
    }
}

/// The loads under a subtree, constants and parameters aside.
#[derive(Clone, Copy, PartialEq)]
enum Leaves {
    None,
    One {
        slot: usize,
        dx: i32,
        dy: i32,
        ch: usize,
    },
    Many,
}

impl Leaves {
    fn join(self, other: Leaves) -> Leaves {
        match (self, other) {
            (Leaves::None, l) | (l, Leaves::None) => l,
            (a, b) if a == b => a,
            _ => Leaves::Many,
        }
    }
}

/// One node of a stage's bodies, in pre-order.
struct Node {
    /// Nodes in the subtree rooted here, itself included.
    size: usize,
    /// The group of `f(load)` shapes this node is an occurrence of.
    group: Option<usize>,
    /// The offset of the one load under an occurrence.
    at: (i32, i32),
    /// Whether this occurrence is the one its subtree stages.
    chosen: bool,
}

/// The occurrences of one shape `f(load(slot, ·, ·, ch))`.
struct Group<'a> {
    /// The first occurrence; its load's offset is irrelevant.
    shape: &'a Expr,
    slot: usize,
    /// Distinct offsets of all occurrences.
    offsets: Vec<(i32, i32)>,
}

/// The staging decision for one stage.
struct Taps<'a> {
    nodes: Vec<Node>,
    groups: Vec<Group<'a>>,
    /// Shape hash, slot and channel in one word → groups with that key.
    by_hash: HashMap<u128, Vec<usize>>,
    /// New load slot per group, for the groups that get a stage.
    slot_of: Vec<Option<usize>>,
}

impl<'a> Taps<'a> {
    /// Scans `s`; `None` if none of its subexpressions is worth a stage.
    fn of(s: &'a Stage) -> Option<Taps<'a>> {
        let mut t = Taps {
            nodes: Vec::new(),
            groups: Vec::new(),
            by_hash: HashMap::new(),
            slot_of: Vec::new(),
        };
        for e in s.body.iter() {
            t.scan(e);
        }
        // Offsets each node's shape recurs at, and the most any shape
        // strictly inside its subtree does (a node's children follow it
        // in pre-order, each subtree contiguous).
        let reach: Vec<usize> = (t.nodes.iter())
            .map(|n| n.group.map_or(0, |g| t.groups[g].offsets.len()))
            .collect();
        let mut inner = vec![0; t.nodes.len()];
        for i in (0..t.nodes.len()).rev() {
            let mut c = i + 1;
            while c < i + t.nodes[i].size {
                inner[i] = inner[i].max(reach[c]).max(inner[c]);
                c += t.nodes[c].size;
            }
        }
        // Top-down, the outermost occurrence of a shape seen at two or
        // more offsets, unless a shape inside it recurs at more: `c · f`
        // at two offsets gives way to `f` at all of them. A group left
        // with one offset by its neighbours' choices is not staged.
        let mut claimed: Vec<Vec<(i32, i32)>> = vec![Vec::new(); t.groups.len()];
        let mut i = 0;
        while i < t.nodes.len() {
            let n = &mut t.nodes[i];
            match n.group {
                Some(g) if reach[i] >= 2 && reach[i] >= inner[i] => {
                    n.chosen = true;
                    if !claimed[g].contains(&n.at) {
                        claimed[g].push(n.at);
                    }
                    i += n.size;
                }
                _ => i += 1,
            }
        }
        let mut next = s.refs.len();
        t.slot_of = claimed
            .iter()
            .map(|offsets| {
                (offsets.len() >= 2).then(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect();
        (next > s.refs.len()).then_some(t)
    }

    /// Groups that get a stage, in new-slot order.
    fn staged(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.groups.len()).filter(|&g| self.slot_of[g].is_some())
    }

    /// Records `e`'s subtree; returns its leaves, whether it contains a
    /// transcendental, and a hash of its shape (load offsets left out).
    fn scan(&mut self, e: &'a Expr) -> (Leaves, bool, u64) {
        let node = self.nodes.len();
        self.nodes.push(Node {
            size: 0,
            group: None,
            at: (0, 0),
            chosen: false,
        });
        let (leaves, tr, hash) = match e {
            Expr::Const(c) => (Leaves::None, false, mix(1, u64::from(c.to_bits()))),
            Expr::Param(i) => (Leaves::None, false, mix(2, *i as u64)),
            &Expr::Load { slot, dx, dy, ch } => (
                Leaves::One { slot, dx, dy, ch },
                false,
                mix(mix(3, slot as u64), ch as u64),
            ),
            Expr::Bin(op, a, b) => {
                let (la, ta, ha) = self.scan(a);
                let (lb, tb, hb) = self.scan(b);
                (la.join(lb), ta || tb, mix(mix(mix(4, *op as u64), ha), hb))
            }
            Expr::Un(op, a) => {
                let (l, t, h) = self.scan(a);
                (l, t, mix(mix(5, *op as u64), h))
            }
            Expr::Select(c, t, f) => {
                let (lc, tc, hc) = self.scan(c);
                let (lt, tt, ht) = self.scan(t);
                let (lf, tf, hf) = self.scan(f);
                (
                    lc.join(lt).join(lf),
                    tc || tt || tf,
                    mix(mix(mix(6, hc), ht), hf),
                )
            }
        };
        let tr = tr || is_transcendental(e);
        self.nodes[node].size = self.nodes.len() - node;
        if let (Leaves::One { slot, dx, dy, ch }, true) = (leaves, tr) {
            let g = self.group(e, hash, slot, ch);
            if !self.groups[g].offsets.contains(&(dx, dy)) {
                self.groups[g].offsets.push((dx, dy));
            }
            self.nodes[node].group = Some(g);
            self.nodes[node].at = (dx, dy);
        }
        (leaves, tr, hash)
    }

    /// The group of shape `e`, created on first sight.
    fn group(&mut self, e: &'a Expr, hash: u64, slot: usize, ch: usize) -> usize {
        // One word, so the keyed hasher takes one write. `same_shape`
        // compares slot and channel, so the key need not tell every pair
        // of them apart.
        let key = u128::from(hash) << 64 | (slot as u128) << 32 | ch as u128;
        let bucket = self.by_hash.entry(key).or_default();
        if let Some(&g) = bucket
            .iter()
            .find(|&&g| same_shape(self.groups[g].shape, e))
        {
            return g;
        }
        bucket.push(self.groups.len());
        self.groups.push(Group {
            shape: e,
            slot,
            offsets: Vec::new(),
        });
        self.groups.len() - 1
    }

    /// `e` — the subtree at pre-order position `*at` — with every staged
    /// occurrence replaced by a load of its stage.
    fn rewrite(&self, e: &Expr, at: &mut usize) -> Expr {
        let n = &self.nodes[*at];
        if let Some(slot) = n.group.filter(|_| n.chosen).and_then(|g| self.slot_of[g]) {
            *at += n.size;
            let (dx, dy) = n.at;
            return Expr::Load {
                slot,
                dx,
                dy,
                ch: 0,
            };
        }
        *at += 1;
        match e {
            Expr::Const(_) | Expr::Param(_) | Expr::Load { .. } => e.clone(),
            Expr::Bin(op, a, b) => {
                let a = self.rewrite(a, at);
                Expr::Bin(*op, Box::new(a), Box::new(self.rewrite(b, at)))
            }
            Expr::Un(op, a) => Expr::Un(*op, Box::new(self.rewrite(a, at))),
            Expr::Select(c, t, f) => {
                let c = self.rewrite(c, at);
                let t = self.rewrite(t, at);
                Expr::Select(Box::new(c), Box::new(t), Box::new(self.rewrite(f, at)))
            }
        }
    }
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
}

/// Structural equality with load offsets ignored: within a single-load
/// subtree every load shares one offset, so this is "the same `f`".
fn same_shape(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Const(x), Expr::Const(y)) => x.to_bits() == y.to_bits(),
        (Expr::Param(i), Expr::Param(j)) => i == j,
        (Expr::Load { slot, ch, .. }, Expr::Load { slot: s, ch: c, .. }) => slot == s && ch == c,
        (Expr::Bin(o, a1, a2), Expr::Bin(p, b1, b2)) => {
            o == p && same_shape(a1, b1) && same_shape(a2, b2)
        }
        (Expr::Un(o, a1), Expr::Un(p, b1)) => o == p && same_shape(a1, b1),
        (Expr::Select(a1, a2, a3), Expr::Select(b1, b2, b3)) => {
            same_shape(a1, b1) && same_shape(a2, b2) && same_shape(a3, b3)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::ImageId;

    fn ln1p(dx: i32, dy: i32) -> Expr {
        Expr::Un(
            UnOp::Log,
            Box::new(Expr::load_at(0, dx, dy) + Expr::Const(1.0)),
        )
    }

    fn one_stage(body: Expr, border: BorderMode) -> Kernel {
        Kernel::simple(
            "k",
            vec![ImageId(0)],
            ImageId(1),
            vec![border],
            vec![body],
            vec![],
        )
    }

    #[test]
    fn per_tap_log_becomes_one_stage() {
        let k = one_stage(ln1p(-1, 0) + ln1p(0, 0) + ln1p(1, 0), BorderMode::Mirror);
        let s = stage_tap_subexpressions(&k).expect("three taps of one f");
        assert!(s.check().is_ok());
        assert_eq!(s.stages.len(), 2);
        assert_eq!(s.root, 1);
        assert_eq!(*s.stages[0].body, [ln1p(0, 0)]);
        assert_eq!(s.stages[0].refs, vec![StageRef::Input(0)]);
        let root = &s.stages[1];
        assert_eq!(root.refs, vec![StageRef::Input(0), StageRef::Stage(0)]);
        assert_eq!(root.borders, vec![BorderMode::Mirror; 2]);
        assert_eq!(
            *root.body,
            [Expr::load_at(1, -1, 0) + Expr::load_at(1, 0, 0) + Expr::load_at(1, 1, 0)]
        );
    }

    #[test]
    fn constant_border_maps_through_f() {
        let k = one_stage(ln1p(0, -1) + ln1p(0, 1), BorderMode::Constant(-0.5));
        let s = stage_tap_subexpressions(&k).unwrap();
        let want = kfuse_ir::math::ln(-0.5 + 1.0);
        assert_eq!(s.stages[1].borders[1], BorderMode::Constant(want));
    }

    /// `2 · f` recurs at two offsets and `f` at three: one stage of `f`,
    /// the coefficients stay in the consumer.
    #[test]
    fn coefficients_stay_in_the_consumer() {
        let two = |dx| Expr::Const(2.0) * ln1p(dx, 0);
        let k = one_stage(
            two(-1) + two(1) + Expr::Const(3.0) * ln1p(0, 0),
            BorderMode::Clamp,
        );
        let s = stage_tap_subexpressions(&k).unwrap();
        assert_eq!(s.stages.len(), 2);
        assert_eq!(*s.stages[0].body, [ln1p(0, 0)]);
        assert_eq!(s.stages[1].body[0].op_counts().sfu, 0);
        // With one coefficient everywhere the product itself is staged.
        let k = one_stage(two(-1) + two(1), BorderMode::Clamp);
        let s = stage_tap_subexpressions(&k).unwrap();
        assert_eq!(*s.stages[0].body, [two(0)]);
    }
}
