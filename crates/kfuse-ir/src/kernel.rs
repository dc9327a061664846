//! Kernels as DAGs of stages.
//!
//! An **unfused** kernel has exactly one [`Stage`] whose loads all refer to
//! input images. **Fusion** inlines producer kernels as additional stages:
//! a stage's loads may then refer to other stages of the same kernel
//! ([`StageRef::Stage`]), meaning "evaluate that stage's body at the loaded
//! offset" — with the paper's index-exchange applied at the iteration-space
//! boundary (Section IV-B). Each non-root stage carries the memory space its
//! value notionally occupies in generated GPU code: registers for
//! point-consumed producers, shared memory for window-consumed producers
//! (paper Section II-C3).
//!
//! This uniform representation lets a single executor (in `kfuse-sim`) and a
//! single cost analyzer (in `kfuse-model`) handle baseline and fused kernels
//! alike.

use crate::expr::{Expr, OpCounts};
use crate::image::ImageId;
use crate::BorderMode;
use std::fmt;
use std::sync::Arc;

/// Identifier of a kernel within a [`crate::Pipeline`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub usize);

impl fmt::Debug for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// What a stage-local load slot refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageRef {
    /// The kernel-level input image with this index.
    Input(usize),
    /// Another stage of the same kernel (must have a smaller stage index).
    Stage(usize),
}

/// GPU memory space where a stage's result lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemSpace {
    /// Off-chip global memory — only the root stage writes here.
    Global,
    /// On-chip shared memory (window-consumed inlined producers).
    Shared,
    /// Per-thread registers (point-consumed inlined producers).
    Register,
}

/// One stage of a kernel: a complete operator body plus its reference table.
///
/// The body is immutable and shared: cloning a stage (or the kernel or
/// pipeline holding it) bumps a reference count instead of copying the
/// expression trees, so a rewrite builds a new body rather than editing
/// one in place.
#[derive(Clone, Debug, PartialEq)]
pub struct Stage {
    /// Name of the original kernel this stage came from.
    pub name: String,
    /// Reference table: what each load slot resolves to.
    pub refs: Vec<StageRef>,
    /// Border mode per load slot, applied on out-of-bounds window accesses.
    pub borders: Vec<BorderMode>,
    /// Body expressions, one per output channel, shared by every clone.
    pub body: Arc<[Expr]>,
    /// Bound scalar parameters referenced by `Expr::Param`.
    pub params: Vec<f32>,
    /// Where this stage's result lives. `Global` for root stages.
    pub space: MemSpace,
}

impl Stage {
    /// Number of output channels this stage produces.
    pub fn channels(&self) -> usize {
        self.body.len()
    }

    /// Maximum `(rx, ry)` load extent of `slot` over all channel bodies,
    /// or `None` if the slot is never loaded.
    pub fn extent_of_slot(&self, slot: usize) -> Option<(i32, i32)> {
        let mut extent: Option<(i32, i32)> = None;
        for b in self.body.iter() {
            if let Some((rx, ry)) = b.extent_of_slot(slot) {
                let e = extent.get_or_insert((0, 0));
                e.0 = e.0.max(rx);
                e.1 = e.1.max(ry);
            }
        }
        extent
    }

    /// Maximum load extent over *all* slots (the stage's stencil radius).
    pub fn max_extent(&self) -> (i32, i32) {
        let mut e = (0, 0);
        for slot in 0..self.refs.len() {
            if let Some((rx, ry)) = self.extent_of_slot(slot) {
                e.0 = e.0.max(rx);
                e.1 = e.1.max(ry);
            }
        }
        e
    }

    /// Convolution window size `sz` of the stage: `(2·rx+1)·(2·ry+1)` over
    /// the maximum extent (paper Section II-C3; 1 for point stages).
    pub fn window_size(&self) -> usize {
        let (rx, ry) = self.max_extent();
        (2 * rx as usize + 1) * (2 * ry as usize + 1)
    }

    /// Whether every load is at offset `(0, 0)` — a point operator.
    pub fn is_point(&self) -> bool {
        self.max_extent() == (0, 0)
    }

    /// Total ALU/SFU/load counts over all channel bodies.
    pub fn op_counts(&self) -> OpCounts {
        self.body
            .iter()
            .map(Expr::op_counts)
            .fold(OpCounts::default(), OpCounts::merge)
    }

    /// Distinct offsets at which `slot` is loaded, over all channel bodies.
    pub fn offsets_of_slot(&self, slot: usize) -> Vec<(i32, i32)> {
        let mut offs: Vec<(i32, i32)> = Vec::new();
        for b in self.body.iter() {
            for o in b.offsets_of_slot(slot) {
                if !offs.contains(&o) {
                    offs.push(o);
                }
            }
        }
        offs.sort_unstable();
        offs
    }
}

/// Compute pattern of a kernel (paper Section II-C1).
///
/// Point operators map one input pixel to one output pixel; local operators
/// read a window. (Global/reduction operators are out of the fusion scope,
/// exactly as in the paper.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComputePattern {
    /// Element-wise operator — every load at offset `(0, 0)`.
    Point,
    /// Stencil operator — at least one load with a non-zero offset.
    Local,
}

/// A kernel: one iteration space, a stage DAG, and image bindings.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    /// Kernel name (fused kernels concatenate their member names).
    pub name: String,
    /// External input images, indexed by [`StageRef::Input`].
    pub inputs: Vec<ImageId>,
    /// Output image written by the root stage.
    pub output: ImageId,
    /// Stages in dependence order: a stage only references smaller indices.
    pub stages: Vec<Stage>,
    /// Index of the root (destination) stage whose result goes to `output`.
    pub root: usize,
    /// Code-generation attribute: whether external inputs accessed with a
    /// window are staged into a shared-memory tile (Hipacc's standard local
    /// codegen, and the optimized fusion of this paper). The basic fusion of
    /// previous work \[12\] re-reads producer inputs from global memory
    /// instead; its synthesized kernels set this to `false`.
    pub input_staging: bool,
}

impl Kernel {
    /// Creates an unfused, single-stage kernel.
    ///
    /// `borders` gives one border mode per input; `body` one expression per
    /// output channel.
    ///
    /// # Panics
    ///
    /// Panics if `borders` and `inputs` disagree in length or `body` is
    /// empty.
    pub fn simple(
        name: impl Into<String>,
        inputs: Vec<ImageId>,
        output: ImageId,
        borders: Vec<BorderMode>,
        body: Vec<Expr>,
        params: Vec<f32>,
    ) -> Self {
        assert_eq!(inputs.len(), borders.len(), "one border mode per input");
        assert!(!body.is_empty(), "kernel must produce at least one channel");
        let name = name.into();
        let refs = (0..inputs.len()).map(StageRef::Input).collect();
        let stage = Stage {
            name: name.clone(),
            refs,
            borders,
            body: body.into(),
            params,
            space: MemSpace::Global,
        };
        Self {
            name,
            inputs,
            output,
            stages: vec![stage],
            root: 0,
            input_staging: true,
        }
    }

    /// The root (destination) stage.
    pub fn root_stage(&self) -> &Stage {
        &self.stages[self.root]
    }

    /// Whether this kernel is unfused (exactly one stage).
    pub fn is_simple(&self) -> bool {
        self.stages.len() == 1
    }

    /// Compute pattern, derived from the root stage of an unfused kernel.
    ///
    /// For fused kernels the pattern of the original destination kernel is
    /// preserved by construction, so this still answers "how does this
    /// kernel consume its inputs".
    pub fn pattern(&self) -> ComputePattern {
        if self.stages.iter().all(|s| s.is_point()) {
            ComputePattern::Point
        } else {
            ComputePattern::Local
        }
    }

    /// Convolution window size `sz(k)` of an unfused kernel
    /// (paper Section II-C3): the root stage's window.
    pub fn window_size(&self) -> usize {
        self.root_stage().window_size()
    }

    /// Total operation counts across all stages (each counted once).
    pub fn op_counts(&self) -> OpCounts {
        self.stages
            .iter()
            .map(Stage::op_counts)
            .fold(OpCounts::default(), OpCounts::merge)
    }

    /// Stage indices that read from stage `i`, with the distinct offsets
    /// used, in stage order.
    pub fn consumers_of_stage(&self, i: usize) -> Vec<(usize, Vec<(i32, i32)>)> {
        let mut out = Vec::new();
        for (j, stage) in self.stages.iter().enumerate() {
            let mut offs: Vec<(i32, i32)> = Vec::new();
            for (slot, r) in stage.refs.iter().enumerate() {
                if *r == StageRef::Stage(i) {
                    for o in stage.offsets_of_slot(slot) {
                        if !offs.contains(&o) {
                            offs.push(o);
                        }
                    }
                }
            }
            if !offs.is_empty() {
                offs.sort_unstable();
                out.push((j, offs));
            }
        }
        out
    }

    /// Checks internal consistency: stage references point backwards, the
    /// root exists and writes `Global`, non-root stages do not.
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        if self.root >= self.stages.len() {
            return Err(format!(
                "kernel {}: root stage {} out of range",
                self.name, self.root
            ));
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.refs.len() != s.borders.len() {
                return Err(format!(
                    "kernel {} stage {}: {} refs vs {} borders",
                    self.name,
                    s.name,
                    s.refs.len(),
                    s.borders.len()
                ));
            }
            if s.body.is_empty() {
                return Err(format!("kernel {} stage {}: empty body", self.name, s.name));
            }
            for r in &s.refs {
                match *r {
                    StageRef::Input(k) if k >= self.inputs.len() => {
                        return Err(format!(
                            "kernel {} stage {}: input ref {} out of range",
                            self.name, s.name, k
                        ));
                    }
                    StageRef::Stage(j) if j >= i => {
                        return Err(format!(
                            "kernel {} stage {}: forward stage ref {} (stage {})",
                            self.name, s.name, j, i
                        ));
                    }
                    _ => {}
                }
            }
            for b in s.body.iter() {
                let slots = b.loaded_slots();
                if let Some(&bad) = slots.iter().find(|&&sl| sl >= s.refs.len()) {
                    return Err(format!(
                        "kernel {} stage {}: load slot {} has no reference",
                        self.name, s.name, bad
                    ));
                }
            }
            let is_root = i == self.root;
            if is_root && s.space != MemSpace::Global {
                return Err(format!("kernel {}: root stage must be Global", self.name));
            }
            if !is_root && s.space == MemSpace::Global {
                return Err(format!(
                    "kernel {} stage {}: non-root stage must not be Global",
                    self.name, s.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_kernel() -> Kernel {
        Kernel::simple(
            "sq",
            vec![ImageId(0)],
            ImageId(1),
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::load(0)],
            vec![],
        )
    }

    fn local_kernel() -> Kernel {
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        Kernel::simple(
            "gauss",
            vec![ImageId(0)],
            ImageId(1),
            vec![BorderMode::Clamp],
            vec![Expr::convolve(0, 0, &mask)],
            vec![],
        )
    }

    #[test]
    fn simple_kernel_shape() {
        let k = point_kernel();
        assert!(k.is_simple());
        assert_eq!(k.pattern(), ComputePattern::Point);
        assert_eq!(k.window_size(), 1);
        assert!(k.check().is_ok());
    }

    #[test]
    fn local_kernel_window() {
        let k = local_kernel();
        assert_eq!(k.pattern(), ComputePattern::Local);
        assert_eq!(k.window_size(), 9);
        assert_eq!(k.root_stage().extent_of_slot(0), Some((1, 1)));
    }

    #[test]
    fn op_counts_aggregate() {
        let k = local_kernel();
        let c = k.op_counts();
        assert_eq!(c.loads, 9);
        // 8 adds + 5 muls (the four unit coefficients skip their multiply).
        assert_eq!(c.alu, 13);
    }

    #[test]
    fn forward_stage_ref_rejected() {
        let mut k = point_kernel();
        k.stages[0].refs.push(StageRef::Stage(0));
        k.stages[0].borders.push(BorderMode::Clamp);
        assert!(k.check().unwrap_err().contains("forward stage ref"));
    }

    #[test]
    fn slot_without_reference_rejected() {
        let mut k = point_kernel();
        k.stages[0].body = vec![Expr::load(5)].into();
        assert!(k.check().unwrap_err().contains("no reference"));
    }

    #[test]
    fn root_space_must_be_global() {
        let mut k = point_kernel();
        k.stages[0].space = MemSpace::Register;
        assert!(k.check().unwrap_err().contains("must be Global"));
    }

    #[test]
    fn consumers_of_stage_tracks_offsets() {
        // Two-stage kernel: stage 1 (root) reads stage 0 at 3 offsets.
        let mut k = point_kernel();
        let producer = Stage {
            name: "p".into(),
            refs: vec![StageRef::Input(0)],
            borders: vec![BorderMode::Clamp],
            body: vec![Expr::load(0) + Expr::Const(1.0)].into(),
            params: vec![],
            space: MemSpace::Shared,
        };
        let root = Stage {
            name: "c".into(),
            refs: vec![StageRef::Stage(0)],
            borders: vec![BorderMode::Clamp],
            body: vec![Expr::load_at(0, -1, 0) + Expr::load(0) + Expr::load_at(0, 1, 0)].into(),
            params: vec![],
            space: MemSpace::Global,
        };
        k.stages = vec![producer, root];
        k.root = 1;
        assert!(k.check().is_ok());
        let consumers = k.consumers_of_stage(0);
        assert_eq!(consumers.len(), 1);
        assert_eq!(consumers[0].0, 1);
        assert_eq!(consumers[0].1, vec![(-1, 0), (0, 0), (1, 0)]);
        assert_eq!(k.pattern(), ComputePattern::Local);
    }
}
