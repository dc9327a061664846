//! Functional execution of pipelines (reference semantics).
//!
//! The executor evaluates kernels in topological order, pixel by pixel.
//! It is the oracle for fusion correctness: a fused pipeline must produce
//! **bit-identical** outputs to the unfused one, because fusion performs the
//! same arithmetic in the same order — including in the halo region, where
//! the index-exchange method of paper Section IV-B governs out-of-bounds
//! accesses to eliminated intermediate images.
//!
//! Loads resolve as follows (evaluation position `(x, y)` is always in
//! bounds):
//!
//! * `Load` of an **input image** at `(x+dx, y+dy)` applies the slot's
//!   border mode against the image bounds — ordinary border handling.
//! * `Load` of an **inlined stage** applies the slot's border mode against
//!   the iteration space and then evaluates the producer stage's body at the
//!   exchanged position — exactly the paper's index exchange (Figure 5):
//!   out-of-border pixels of the intermediate are recomputed at their
//!   exchanged coordinates rather than read from a padded buffer.

use kfuse_ir::border::Resolved;
use kfuse_ir::{Expr, Image, ImageId, Kernel, Pipeline, StageRef};

/// Errors from [`execute`].
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// A pipeline input was not provided.
    MissingInput {
        /// Name of the missing image.
        image: String,
    },
    /// A provided input does not match its descriptor.
    ShapeMismatch {
        /// Name of the offending image.
        image: String,
    },
    /// The pipeline failed validation.
    Invalid(String),
    /// A kernel references an [`ImageId`] outside the pipeline's image
    /// table.
    UnknownImage {
        /// Name of the offending kernel.
        kernel: String,
    },
    /// A kernel input image was not materialized before the kernel ran
    /// (out-of-order execution, or a stale image table).
    UnmaterializedInput {
        /// Name of the offending kernel.
        kernel: String,
        /// Name of the missing image.
        image: String,
    },
    /// A kernel loads a channel the referenced image does not have, or its
    /// root stage produces a different channel count than its output image.
    ChannelMismatch {
        /// Name of the offending kernel.
        kernel: String,
        /// Name of the mismatched image (or inlined stage).
        image: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingInput { image } => write!(f, "missing input image {image}"),
            ExecError::ShapeMismatch { image } => write!(f, "shape mismatch for image {image}"),
            ExecError::Invalid(e) => write!(f, "invalid pipeline: {e}"),
            ExecError::UnknownImage { kernel } => {
                write!(f, "kernel {kernel} references an unknown image")
            }
            ExecError::UnmaterializedInput { kernel, image } => {
                write!(
                    f,
                    "kernel {kernel}: input image {image} is not materialized"
                )
            }
            ExecError::ChannelMismatch { kernel, image } => {
                write!(f, "kernel {kernel}: channel mismatch against {image}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// All images materialized by a pipeline run, indexed by [`ImageId`].
///
/// Images eliminated by fusion are simply never produced (`None`).
#[derive(Clone, Debug)]
pub struct Execution {
    images: Vec<Option<Image>>,
}

impl Execution {
    /// Wraps an already-materialized image table (used by the compiled-plan
    /// executor in [`crate::plan`]).
    pub(crate) fn from_images(images: Vec<Option<Image>>) -> Self {
        Self { images }
    }

    /// The image with id `id`, if it was provided or produced.
    pub fn image(&self, id: ImageId) -> Option<&Image> {
        self.images.get(id.0).and_then(Option::as_ref)
    }

    /// The image with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if the image was never materialized.
    pub fn expect_image(&self, id: ImageId) -> &Image {
        self.image(id).expect("image was not materialized")
    }

    /// Moves the image with id `id` out of the execution, if it was
    /// materialized. Streaming sessions use this to recycle an output as
    /// the next frame's state plane without copying.
    pub fn take_image(&mut self, id: ImageId) -> Option<Image> {
        self.images.get_mut(id.0).and_then(Option::take)
    }
}

/// Tree-walking stage evaluator — the reference semantics.
///
/// Also used by the tiled executor ([`crate::tile`]) as the fallback for
/// the rare halo accesses whose exchanged index lands outside the
/// materialized scratch plane (e.g. [`kfuse_ir::BorderMode::Repeat`]
/// wrapping to the far side of the image).
pub(crate) struct Evaluator<'a> {
    kernel: &'a Kernel,
    inputs: Vec<&'a Image>,
    /// Iteration-space bounds (output image width/height).
    iw: usize,
    ih: usize,
}

impl<'a> Evaluator<'a> {
    pub(crate) fn new(kernel: &'a Kernel, inputs: Vec<&'a Image>, iw: usize, ih: usize) -> Self {
        Self {
            kernel,
            inputs,
            iw,
            ih,
        }
    }

    pub(crate) fn eval(&self, stage: usize, ch: usize, x: usize, y: usize) -> f32 {
        let s = &self.kernel.stages[stage];
        self.eval_expr(stage, &s.body[ch], x, y)
    }

    fn eval_expr(&self, stage: usize, e: &Expr, x: usize, y: usize) -> f32 {
        let s = &self.kernel.stages[stage];
        match e {
            Expr::Const(v) => *v,
            Expr::Param(i) => s.params[*i],
            Expr::Load { slot, dx, dy, ch } => {
                let tx = x as i64 + i64::from(*dx);
                let ty = y as i64 + i64::from(*dy);
                match s.refs[*slot] {
                    StageRef::Input(i) => {
                        let img = self.inputs[i];
                        match s.borders[*slot].resolve(tx, ty, img.width(), img.height()) {
                            Resolved::At(rx, ry) => img.get(rx, ry, *ch),
                            Resolved::Value(v) => v,
                        }
                    }
                    StageRef::Stage(j) => {
                        // Index exchange against the iteration space, then
                        // recompute the producer at the exchanged position.
                        match s.borders[*slot].resolve(tx, ty, self.iw, self.ih) {
                            Resolved::At(rx, ry) => self.eval(j, *ch, rx, ry),
                            Resolved::Value(v) => v,
                        }
                    }
                }
            }
            Expr::Bin(op, a, b) => op.apply(
                self.eval_expr(stage, a, x, y),
                self.eval_expr(stage, b, x, y),
            ),
            Expr::Un(op, a) => op.apply(self.eval_expr(stage, a, x, y)),
            Expr::Select(c, t, f) => {
                if self.eval_expr(stage, c, x, y) > 0.0 {
                    self.eval_expr(stage, t, x, y)
                } else {
                    self.eval_expr(stage, f, x, y)
                }
            }
        }
    }
}

/// Validates a kernel's image references against the pipeline and the
/// materialized image table, returning the resolved input images.
///
/// This is the defensive boundary of both executors: out-of-range image
/// ids, missing (not yet materialized) inputs, shape mismatches, and
/// channel mismatches all become [`ExecError`]s here instead of panics
/// inside the evaluation loops — a malformed kernel submitted to a serving
/// runtime must fail the request, not poison a worker thread.
pub(crate) fn resolve_kernel_inputs<'a>(
    p: &Pipeline,
    k: &Kernel,
    images: &'a [Option<Image>],
) -> Result<Vec<&'a Image>, ExecError> {
    if k.output.0 >= p.images().len() || k.inputs.iter().any(|i| i.0 >= p.images().len()) {
        return Err(ExecError::UnknownImage {
            kernel: k.name.clone(),
        });
    }
    k.check().map_err(ExecError::Invalid)?;
    let out_desc = p.image(k.output);
    if k.root_stage().channels() != out_desc.channels {
        return Err(ExecError::ChannelMismatch {
            kernel: k.name.clone(),
            image: out_desc.name.clone(),
        });
    }
    let mut inputs: Vec<&Image> = Vec::with_capacity(k.inputs.len());
    for &i in &k.inputs {
        let img = images.get(i.0).and_then(Option::as_ref).ok_or_else(|| {
            ExecError::UnmaterializedInput {
                kernel: k.name.clone(),
                image: p.image(i).name.clone(),
            }
        })?;
        if img.width() != out_desc.width || img.height() != out_desc.height {
            return Err(ExecError::ShapeMismatch {
                image: img.desc().name.clone(),
            });
        }
        inputs.push(img);
    }
    // Every load must stay within the channels of what it reads — checked
    // against the *materialized* images, not just the descriptors.
    for s in &k.stages {
        for b in s.body.iter() {
            let mut bad: Option<String> = None;
            b.visit_loads(&mut |slot, _, _, ch| {
                if bad.is_some() {
                    return;
                }
                match s.refs.get(slot) {
                    Some(kfuse_ir::StageRef::Input(i)) => {
                        if ch >= inputs[*i].channels() {
                            bad = Some(inputs[*i].desc().name.clone());
                        }
                    }
                    Some(kfuse_ir::StageRef::Stage(j)) => {
                        if ch >= k.stages[*j].channels() {
                            bad = Some(k.stages[*j].name.clone());
                        }
                    }
                    None => bad = Some("<missing ref>".into()),
                }
            });
            if let Some(image) = bad {
                return Err(ExecError::ChannelMismatch {
                    kernel: k.name.clone(),
                    image,
                });
            }
        }
    }
    Ok(inputs)
}

/// Executes one kernel against already-materialized images.
///
/// Malformed kernels (out-of-range image ids, unmaterialized inputs,
/// channel mismatches) are reported as [`ExecError`]s.
pub fn execute_kernel(
    p: &Pipeline,
    k: &Kernel,
    images: &[Option<Image>],
) -> Result<Image, ExecError> {
    let inputs = resolve_kernel_inputs(p, k, images)?;
    let out_desc = p.image(k.output).clone();
    let ev = Evaluator::new(k, inputs, out_desc.width, out_desc.height);
    let mut out = Image::zeros(out_desc);
    let (w, h, c) = (out.width(), out.height(), out.channels());
    for y in 0..h {
        let row = out.row_mut(y);
        for x in 0..w {
            for ch in 0..c {
                row[x * c + ch] = ev.eval(k.root, ch, x, y);
            }
        }
    }
    Ok(out)
}

/// Validates the pipeline and seeds the image table with the inputs.
pub(crate) fn prepare_images(
    p: &Pipeline,
    inputs: &[(ImageId, Image)],
) -> Result<Vec<Option<Image>>, ExecError> {
    p.validate()
        .map_err(|e| ExecError::Invalid(e.to_string()))?;
    bind_inputs(p, inputs.to_vec())
}

/// Seeds the image table with the inputs, checking shapes and presence but
/// *not* re-validating the pipeline (the compiled-plan path validates once
/// at compile time). Each image is moved into the table, so a plane the
/// caller handed over stays uniquely owned and a later write to it does
/// not copy; borrowed callers pass `to_vec()`, which bumps reference
/// counts and copies no pixels.
pub(crate) fn bind_inputs(
    p: &Pipeline,
    inputs: Vec<(ImageId, Image)>,
) -> Result<Vec<Option<Image>>, ExecError> {
    let mut images: Vec<Option<Image>> = vec![None; p.images().len()];
    for (id, img) in inputs {
        if id.0 >= images.len() {
            return Err(ExecError::Invalid(format!(
                "input image id {} out of range",
                id.0
            )));
        }
        let desc = p.image(id);
        if img.width() != desc.width
            || img.height() != desc.height
            || img.channels() != desc.channels
        {
            return Err(ExecError::ShapeMismatch {
                image: desc.name.clone(),
            });
        }
        images[id.0] = Some(img);
    }
    for &id in p.inputs() {
        if images[id.0].is_none() {
            return Err(ExecError::MissingInput {
                image: p.image(id).name.clone(),
            });
        }
    }
    Ok(images)
}

/// Runs every kernel in topological order through `run_kernel`.
pub(crate) fn execute_with(
    p: &Pipeline,
    inputs: &[(ImageId, Image)],
    run_kernel: impl Fn(&Pipeline, &Kernel, &[Option<Image>]) -> Result<Image, ExecError>,
) -> Result<Execution, ExecError> {
    let mut images = prepare_images(p, inputs)?;
    let dag = p.kernel_dag();
    for n in dag.topo_order().expect("validated pipelines are acyclic") {
        let k = p.kernel(kfuse_ir::KernelId(n.0));
        let out = run_kernel(p, k, &images)?;
        images[k.output.0] = Some(out);
    }
    Ok(Execution { images })
}

/// Executes a pipeline with the given inputs.
///
/// Returns every materialized image; fused pipelines materialize fewer
/// intermediates. Inputs may be given in any order.
///
/// Since the compiled tiled engine landed, this routes through the **fast
/// executor** ([`crate::fast::execute_fast`]): instruction tapes, per-strip
/// halo-plane materialization, and multi-threaded row bands. Its output is
/// bit-identical to the reference interpreter, which remains available as
/// [`execute_reference`] — the oracle the differential tests compare
/// against.
pub fn execute(p: &Pipeline, inputs: &[(ImageId, Image)]) -> Result<Execution, ExecError> {
    crate::fast::execute_fast(p, inputs)
}

/// Executes a pipeline with the reference tree-walking interpreter.
///
/// Slow (it re-evaluates inlined producer stages per load) but maximally
/// simple — the correctness oracle for the fast executor.
pub fn execute_reference(
    p: &Pipeline,
    inputs: &[(ImageId, Image)],
) -> Result<Execution, ExecError> {
    execute_with(p, inputs, execute_kernel)
}

/// Fills an image with a deterministic pseudo-random pattern in `[0, 255]`.
///
/// Useful for correctness tests and the artifact-style "random image"
/// workloads of the paper's evaluation.
pub fn synthetic_image(desc: kfuse_ir::ImageDesc, seed: u64) -> Image {
    let mut img = Image::zeros(desc);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for v in img.data_mut() {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        *v = (z % 256) as f32;
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel};

    fn desc(name: &str, w: usize, h: usize) -> ImageDesc {
        ImageDesc::new(name, w, h, 1)
    }

    #[test]
    fn point_kernel_executes() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in", 3, 2));
        let out = p.add_image(desc("out", 3, 2));
        p.add_kernel(Kernel::simple(
            "dbl",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::Const(2.0)],
            vec![],
        ));
        p.mark_output(out);
        let src = Image::from_rows("in", &[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let exec = execute(&p, &[(input, src)]).unwrap();
        let got = exec.expect_image(out);
        assert_eq!(got.get(2, 1, 0), 12.0);
        assert_eq!(got.get(0, 0, 0), 2.0);
    }

    #[test]
    fn local_kernel_clamps_border() {
        // 3×1 horizontal sum with clamp on a 3-wide image.
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in", 3, 1));
        let out = p.add_image(desc("out", 3, 1));
        let body = Expr::load_at(0, -1, 0) + Expr::load(0) + Expr::load_at(0, 1, 0);
        p.add_kernel(Kernel::simple(
            "sum3",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![body],
            vec![],
        ));
        p.mark_output(out);
        let src = Image::from_rows("in", &[&[1.0, 2.0, 3.0]]);
        let exec = execute(&p, &[(input, src)]).unwrap();
        let got = exec.expect_image(out);
        assert_eq!(got.get(0, 0, 0), 1.0 + 1.0 + 2.0); // left clamps to 1
        assert_eq!(got.get(1, 0, 0), 6.0);
        assert_eq!(got.get(2, 0, 0), 2.0 + 3.0 + 3.0); // right clamps to 3
    }

    #[test]
    fn constant_border_returns_value() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in", 2, 1));
        let out = p.add_image(desc("out", 2, 1));
        let body = Expr::load_at(0, -1, 0) + Expr::load_at(0, 1, 0);
        p.add_kernel(Kernel::simple(
            "s",
            vec![input],
            out,
            vec![BorderMode::Constant(100.0)],
            vec![body],
            vec![],
        ));
        p.mark_output(out);
        let src = Image::from_rows("in", &[&[1.0, 2.0]]);
        let exec = execute(&p, &[(input, src)]).unwrap();
        let got = exec.expect_image(out);
        assert_eq!(got.get(0, 0, 0), 100.0 + 2.0);
        assert_eq!(got.get(1, 0, 0), 1.0 + 100.0);
    }

    #[test]
    fn missing_input_detected() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in", 2, 2));
        let out = p.add_image(desc("out", 2, 2));
        p.add_kernel(Kernel::simple(
            "id",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        ));
        p.mark_output(out);
        assert!(matches!(
            execute(&p, &[]),
            Err(ExecError::MissingInput { .. })
        ));
    }

    #[test]
    fn shape_mismatch_detected() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in", 2, 2));
        let out = p.add_image(desc("out", 2, 2));
        p.add_kernel(Kernel::simple(
            "id",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        ));
        p.mark_output(out);
        let wrong = Image::from_rows("in", &[&[1.0, 2.0, 3.0]]);
        assert!(matches!(
            execute(&p, &[(input, wrong)]),
            Err(ExecError::ShapeMismatch { .. })
        ));
    }

    /// A kernel whose ids point outside the image table must error, not
    /// index out of bounds. (`execute_kernel` is callable with a kernel
    /// that was never added to the pipeline, so this is reachable even
    /// though `Pipeline::validate` would also catch it.)
    #[test]
    fn out_of_range_image_id_detected() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in", 2, 2));
        let out = p.add_image(desc("out", 2, 2));
        let mut k = Kernel::simple(
            "id",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        );
        k.output = ImageId(99);
        let images = vec![Some(synthetic_image(p.image(input).clone(), 1)), None];
        assert!(matches!(
            execute_kernel(&p, &k, &images),
            Err(ExecError::UnknownImage { .. })
        ));
        k.output = out;
        k.inputs = vec![ImageId(99)];
        assert!(matches!(
            execute_kernel(&p, &k, &images),
            Err(ExecError::UnknownImage { .. })
        ));
    }

    /// Running a kernel before its producer has materialized its input is
    /// an error, not a panic.
    #[test]
    fn unmaterialized_input_detected() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in", 2, 2));
        let mid = p.add_image(desc("mid", 2, 2));
        let out = p.add_image(desc("out", 2, 2));
        p.add_kernel(Kernel::simple(
            "a",
            vec![input],
            mid,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        ));
        let consumer = Kernel::simple(
            "b",
            vec![mid],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        );
        p.add_kernel(consumer.clone());
        p.mark_output(out);
        // `mid` was never produced.
        let images = vec![Some(synthetic_image(p.image(input).clone(), 1)), None, None];
        assert!(matches!(
            execute_kernel(&p, &consumer, &images),
            Err(ExecError::UnmaterializedInput { .. })
        ));
    }

    /// A load of a channel the materialized image does not carry is an
    /// error, not a silent out-of-bounds read.
    #[test]
    fn channel_mismatch_detected() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(desc("in", 2, 2));
        let out = p.add_image(desc("out", 2, 2));
        let k = Kernel::simple(
            "ch",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::Load {
                slot: 0,
                dx: 0,
                dy: 0,
                ch: 1, // input only has channel 0
            }],
            vec![],
        );
        let images = vec![Some(synthetic_image(p.image(input).clone(), 1)), None];
        assert!(matches!(
            execute_kernel(&p, &k, &images),
            Err(ExecError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn rgb_channels_evaluate_independently() {
        let mut p = Pipeline::new("t");
        let input = p.add_input(ImageDesc::new("in", 1, 1, 3));
        let out = p.add_image(ImageDesc::new("out", 1, 1, 3));
        // Swap channels: out.r = in.b, out.g = in.g, out.b = in.r.
        let body = vec![
            Expr::Load {
                slot: 0,
                dx: 0,
                dy: 0,
                ch: 2,
            },
            Expr::Load {
                slot: 0,
                dx: 0,
                dy: 0,
                ch: 1,
            },
            Expr::Load {
                slot: 0,
                dx: 0,
                dy: 0,
                ch: 0,
            },
        ];
        p.add_kernel(Kernel::simple(
            "swap",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            body,
            vec![],
        ));
        p.mark_output(out);
        let mut src = Image::zeros(ImageDesc::new("in", 1, 1, 3));
        src.set(0, 0, 0, 1.0);
        src.set(0, 0, 1, 2.0);
        src.set(0, 0, 2, 3.0);
        let exec = execute(&p, &[(input, src)]).unwrap();
        let got = exec.expect_image(out);
        assert_eq!(
            [got.get(0, 0, 0), got.get(0, 0, 1), got.get(0, 0, 2)],
            [3.0, 2.0, 1.0]
        );
    }

    #[test]
    fn synthetic_image_is_deterministic() {
        let a = synthetic_image(desc("a", 8, 8), 42);
        let b = synthetic_image(desc("b", 8, 8), 42);
        let c = synthetic_image(desc("c", 8, 8), 43);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
        assert!(a.data().iter().all(|&v| (0.0..256.0).contains(&v)));
    }
}
