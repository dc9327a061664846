//! Pipelines: validated DAGs of kernels over images.
//!
//! A pipeline owns the image descriptors and the kernels; every image has at
//! most one producer kernel, and the kernel graph must be acyclic. The
//! dependence DAG `G = (V, E)` of the paper (Section II) is derived by
//! [`Pipeline::kernel_dag`]: vertices are kernels, and there is one edge per
//! (producer, consumer-input) pair, labelled with the communicated image.

use crate::image::{ImageDesc, ImageId};
use crate::kernel::{Kernel, KernelId};
use kfuse_graph::{DiGraph, NodeId};
use std::fmt;

/// Validation errors for [`Pipeline::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// Two kernels write the same image.
    MultipleProducers {
        /// The doubly-produced image.
        image: String,
        /// The two producing kernels.
        kernels: (String, String),
    },
    /// A kernel reads or writes an image id outside the pipeline.
    UnknownImage {
        /// The offending kernel.
        kernel: String,
    },
    /// The kernel graph contains a cycle.
    Cyclic,
    /// A kernel failed its internal consistency check.
    MalformedKernel {
        /// Description from [`Kernel::check`].
        reason: String,
    },
    /// A declared pipeline input is produced by a kernel.
    ProducedInput {
        /// The input image's name.
        image: String,
    },
    /// A kernel loads a channel the referenced image does not have.
    BadChannel {
        /// The offending kernel.
        kernel: String,
        /// The referenced image.
        image: String,
    },
    /// Kernels disagree on the iteration-space size (header compatibility
    /// is a *fusion* constraint, but mismatched output dims within one
    /// pipeline are modelled only when sizes are declared consistently).
    BadDimensions {
        /// The offending kernel.
        kernel: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::MultipleProducers { image, kernels } => write!(
                f,
                "image {image} produced by both {} and {}",
                kernels.0, kernels.1
            ),
            PipelineError::UnknownImage { kernel } => {
                write!(f, "kernel {kernel} references an unknown image")
            }
            PipelineError::Cyclic => write!(f, "kernel graph is cyclic"),
            PipelineError::MalformedKernel { reason } => write!(f, "malformed kernel: {reason}"),
            PipelineError::ProducedInput { image } => {
                write!(f, "pipeline input {image} is produced by a kernel")
            }
            PipelineError::BadChannel { kernel, image } => {
                write!(f, "kernel {kernel} loads a missing channel of {image}")
            }
            PipelineError::BadDimensions { kernel } => {
                write!(f, "kernel {kernel} has inconsistent image dimensions")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// A validated image-processing pipeline.
#[derive(Clone, Debug)]
pub struct Pipeline {
    /// Pipeline name (used in reports).
    pub name: String,
    images: Vec<ImageDesc>,
    kernels: Vec<Kernel>,
    inputs: Vec<ImageId>,
    outputs: Vec<ImageId>,
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            images: Vec::new(),
            kernels: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Registers an image and returns its id.
    pub fn add_image(&mut self, desc: ImageDesc) -> ImageId {
        self.images.push(desc);
        ImageId(self.images.len() - 1)
    }

    /// Registers an image and marks it as a pipeline input.
    pub fn add_input(&mut self, desc: ImageDesc) -> ImageId {
        let id = self.add_image(desc);
        self.inputs.push(id);
        id
    }

    /// Marks an existing image as a pipeline input.
    ///
    /// [`Pipeline::add_input`] covers construction; this exists for
    /// deserializers that first materialize every image (preserving
    /// [`ImageId`] assignment) and then restore the declared input list in
    /// its original order — the order is part of the pipeline's call
    /// interface and of [`Pipeline::fingerprint`].
    pub fn mark_input(&mut self, id: ImageId) {
        if !self.inputs.contains(&id) {
            self.inputs.push(id);
        }
    }

    /// Marks an existing image as a pipeline output.
    pub fn mark_output(&mut self, id: ImageId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Adds a kernel and returns its id.
    pub fn add_kernel(&mut self, kernel: Kernel) -> KernelId {
        self.kernels.push(kernel);
        KernelId(self.kernels.len() - 1)
    }

    /// Descriptor of `id`.
    pub fn image(&self, id: ImageId) -> &ImageDesc {
        &self.images[id.0]
    }

    /// All image descriptors, indexed by [`ImageId`].
    pub fn images(&self) -> &[ImageDesc] {
        &self.images
    }

    /// The kernel with id `id`.
    pub fn kernel(&self, id: KernelId) -> &Kernel {
        &self.kernels[id.0]
    }

    /// All kernels, indexed by [`KernelId`].
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Kernel ids in insertion order.
    pub fn kernel_ids(&self) -> impl Iterator<Item = KernelId> + '_ {
        (0..self.kernels.len()).map(KernelId)
    }

    /// Declared pipeline inputs.
    pub fn inputs(&self) -> &[ImageId] {
        &self.inputs
    }

    /// Declared pipeline outputs.
    pub fn outputs(&self) -> &[ImageId] {
        &self.outputs
    }

    /// The kernel producing `img`, if any.
    pub fn producer_of(&self, img: ImageId) -> Option<KernelId> {
        self.kernel_ids().find(|&k| self.kernels[k.0].output == img)
    }

    /// Kernels that read `img`, in kernel order (duplicates removed even if
    /// a kernel reads the image through several input slots).
    pub fn consumers_of(&self, img: ImageId) -> Vec<KernelId> {
        self.kernel_ids()
            .filter(|&k| self.kernels[k.0].inputs.contains(&img))
            .collect()
    }

    /// Whether `img` is consumed outside the pipeline (declared output).
    pub fn is_pipeline_output(&self, img: ImageId) -> bool {
        self.outputs.contains(&img)
    }

    /// Builds the dependence DAG: one vertex per kernel, one edge per
    /// (producer, consumer-input-slot) pair labelled with the image.
    ///
    /// Kernel `k` maps to `NodeId(k.0)`.
    pub fn kernel_dag(&self) -> DiGraph<KernelId, ImageId> {
        let mut g: DiGraph<KernelId, ImageId> = DiGraph::new();
        for k in self.kernel_ids() {
            g.add_node(k);
        }
        for (ci, consumer) in self.kernels.iter().enumerate() {
            // One edge per input slot, preserving multiplicity.
            for &img in &consumer.inputs {
                if let Some(p) = self.producer_of(img) {
                    g.add_edge(NodeId(p.0), NodeId(ci), img);
                }
            }
        }
        g
    }

    /// Validates structural invariants; see [`PipelineError`].
    pub fn validate(&self) -> Result<(), PipelineError> {
        // Images referenced by kernels must exist and channels must match.
        for k in &self.kernels {
            if k.output.0 >= self.images.len() || k.inputs.iter().any(|i| i.0 >= self.images.len())
            {
                return Err(PipelineError::UnknownImage {
                    kernel: k.name.clone(),
                });
            }
            k.check()
                .map_err(|reason| PipelineError::MalformedKernel { reason })?;
            // Channel checks: loads of Input(slot) must stay within the
            // image's channel count; the root body length must match the
            // output image's channels.
            let out_desc = self.image(k.output);
            if k.root_stage().channels() != out_desc.channels {
                return Err(PipelineError::BadChannel {
                    kernel: k.name.clone(),
                    image: out_desc.name.clone(),
                });
            }
            for s in &k.stages {
                for b in s.body.iter() {
                    let mut bad = None;
                    b.visit_loads(&mut |slot, _, _, ch| {
                        if bad.is_some() {
                            return;
                        }
                        match s.refs.get(slot) {
                            Some(crate::StageRef::Input(i)) => {
                                let img = k.inputs[*i];
                                if ch >= self.image(img).channels {
                                    bad = Some(self.image(img).name.clone());
                                }
                            }
                            Some(crate::StageRef::Stage(j)) => {
                                if ch >= k.stages[*j].channels() {
                                    bad = Some(k.stages[*j].name.clone());
                                }
                            }
                            None => bad = Some("<missing ref>".into()),
                        }
                    });
                    if let Some(image) = bad {
                        return Err(PipelineError::BadChannel {
                            kernel: k.name.clone(),
                            image,
                        });
                    }
                }
            }
            // All images touched by one kernel share the iteration space
            // (constant-size pipelines; paper Section II-B2).
            let (w, h) = (out_desc.width, out_desc.height);
            if k.inputs
                .iter()
                .any(|&i| self.image(i).width != w || self.image(i).height != h)
            {
                return Err(PipelineError::BadDimensions {
                    kernel: k.name.clone(),
                });
            }
        }
        // Unique producer per image.
        for img in 0..self.images.len() {
            let producers: Vec<&Kernel> = self
                .kernels
                .iter()
                .filter(|k| k.output == ImageId(img))
                .collect();
            if producers.len() > 1 {
                return Err(PipelineError::MultipleProducers {
                    image: self.images[img].name.clone(),
                    kernels: (producers[0].name.clone(), producers[1].name.clone()),
                });
            }
            if !producers.is_empty() && self.inputs.contains(&ImageId(img)) {
                return Err(PipelineError::ProducedInput {
                    image: self.images[img].name.clone(),
                });
            }
        }
        // Acyclicity.
        if !self.kernel_dag().is_dag() {
            return Err(PipelineError::Cyclic);
        }
        Ok(())
    }

    /// Replaces the kernel set (used by fusion passes that rebuild the
    /// pipeline with fused kernels).
    pub fn with_kernels(&self, kernels: Vec<Kernel>) -> Pipeline {
        Pipeline {
            name: self.name.clone(),
            images: self.images.clone(),
            kernels,
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BorderMode, Expr, Kernel};

    fn desc(name: &str) -> ImageDesc {
        ImageDesc::new(name, 8, 8, 1)
    }

    /// in → a → b (chain of two point kernels).
    fn chain() -> Pipeline {
        let mut p = Pipeline::new("chain");
        let input = p.add_input(desc("in"));
        let mid = p.add_image(desc("mid"));
        let out = p.add_image(desc("out"));
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
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::Const(2.0)],
            vec![],
        ));
        p.mark_output(out);
        p
    }

    #[test]
    fn mark_input_restores_declared_order() {
        // Rebuild `chain()`'s interface the way a deserializer does:
        // images first (ids fixed by insertion), then input marks.
        let reference = chain();
        let mut p = Pipeline::new("chain");
        for desc in reference.images() {
            p.add_image(desc.clone());
        }
        for &input in reference.inputs() {
            p.mark_input(input);
        }
        for &output in reference.outputs() {
            p.mark_output(output);
        }
        for k in reference.kernels() {
            p.add_kernel(k.clone());
        }
        assert_eq!(p.inputs(), reference.inputs());
        assert_eq!(p.outputs(), reference.outputs());
        assert!(p.validate().is_ok());
        // Marking twice is idempotent.
        p.mark_input(ImageId(0));
        assert_eq!(p.inputs(), reference.inputs());
    }

    #[test]
    fn chain_is_valid() {
        let p = chain();
        assert!(p.validate().is_ok());
        assert_eq!(p.producer_of(ImageId(1)), Some(KernelId(0)));
        assert_eq!(p.consumers_of(ImageId(1)), vec![KernelId(1)]);
        assert!(p.is_pipeline_output(ImageId(2)));
        assert!(!p.is_pipeline_output(ImageId(1)));
    }

    #[test]
    fn dag_structure() {
        let p = chain();
        let g = p.kernel_dag();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(kfuse_graph::EdgeId(0)).src, NodeId(0));
        assert_eq!(*g.topo_order().unwrap().first().unwrap(), NodeId(0));
    }

    #[test]
    fn duplicate_producer_rejected() {
        let mut p = chain();
        let input = ImageId(0);
        let mid = ImageId(1);
        p.add_kernel(Kernel::simple(
            "dup",
            vec![input],
            mid,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        ));
        assert!(matches!(
            p.validate(),
            Err(PipelineError::MultipleProducers { .. })
        ));
    }

    #[test]
    fn produced_input_rejected() {
        let mut p = Pipeline::new("bad");
        let a = p.add_input(desc("a"));
        let b = p.add_input(desc("b"));
        p.add_kernel(Kernel::simple(
            "k",
            vec![a],
            b,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        ));
        assert!(matches!(
            p.validate(),
            Err(PipelineError::ProducedInput { .. })
        ));
    }

    #[test]
    fn bad_channel_rejected() {
        let mut p = Pipeline::new("bad");
        let a = p.add_input(desc("a")); // 1 channel
        let b = p.add_image(desc("b"));
        p.add_kernel(Kernel::simple(
            "k",
            vec![a],
            b,
            vec![BorderMode::Clamp],
            vec![Expr::Load {
                slot: 0,
                dx: 0,
                dy: 0,
                ch: 2,
            }],
            vec![],
        ));
        assert!(matches!(
            p.validate(),
            Err(PipelineError::BadChannel { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut p = Pipeline::new("bad");
        let a = p.add_input(ImageDesc::new("a", 8, 8, 1));
        let b = p.add_image(ImageDesc::new("b", 4, 4, 1));
        p.add_kernel(Kernel::simple(
            "k",
            vec![a],
            b,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        ));
        assert!(matches!(
            p.validate(),
            Err(PipelineError::BadDimensions { .. })
        ));
    }

    #[test]
    fn shared_input_counts_both_consumers() {
        // in read by two kernels: consumers_of must report both.
        let mut p = Pipeline::new("shared");
        let input = p.add_input(desc("in"));
        let o1 = p.add_image(desc("o1"));
        let o2 = p.add_image(desc("o2"));
        for (name, out) in [("k1", o1), ("k2", o2)] {
            p.add_kernel(Kernel::simple(
                name,
                vec![input],
                out,
                vec![BorderMode::Clamp],
                vec![Expr::load(0)],
                vec![],
            ));
        }
        assert_eq!(p.consumers_of(input).len(), 2);
        assert!(p.producer_of(input).is_none());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let err = PipelineError::MultipleProducers {
            image: "mid".into(),
            kernels: ("a".into(), "b".into()),
        };
        assert!(err.to_string().contains("mid"));
        assert!(err.to_string().contains("a"));
    }
}
