//! Reusable compiled execution plans: validate, order, and lower a
//! pipeline **once**, execute it many times.
//!
//! `execute_fast` pays the full compilation pipeline on every call —
//! pipeline validation, topological ordering, and lowering every stage to
//! instruction tapes. For a pipeline executed once that cost is noise; for
//! a serving workload that executes the same pipeline thousands of times it
//! is pure waste, the same observation that drives runtime-fusion systems
//! like Bohrium to cache fused kernels by program signature.
//!
//! [`CompiledPlan`] is the cacheable artifact: the validated pipeline, its
//! kernel execution order, and one [`CompiledKernel`] (tapes + halo
//! metadata) per kernel. [`CompiledPlan::run`] then only binds inputs —
//! moved in, so no pixel is copied — and runs the tapes on the caller's
//! scratch buffers under the caller's tracer; a long-lived worker reuses
//! one [`Scratch`] for every request, making the steady-state allocation
//! cost per request zero on the executor side. [`CompiledPlan::execute`]
//! is the one-shot form: borrowed inputs, fresh scratch, no tracing.
//! Outputs are bit-identical to [`crate::exec::execute_reference`] — the
//! plan runs the same strip engine as `execute_fast`, merely skipping the
//! recompilation.

use crate::exec::{bind_inputs, ExecError, Execution};
use crate::tile::{execute_kernel_compiled, CompiledKernel, Scratch, TileConfig};
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_obs::Tracer;

/// A pipeline compiled for repeated execution: validated, topologically
/// ordered, and lowered to instruction tapes.
///
/// The plan owns a clone of the pipeline, so it stays valid independently
/// of the caller's copy — a plan cache can hold it across requests.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    pipeline: Pipeline,
    kernels: Vec<CompiledKernel>,
    /// Kernel indices in execution (topological) order.
    order: Vec<usize>,
}

impl CompiledPlan {
    /// Validates `p` and lowers every kernel. All structural errors a
    /// pipeline can carry surface here, so [`CompiledPlan::execute`] on a
    /// cached plan can only fail on bad *inputs*, never on a bad pipeline.
    pub fn compile(p: &Pipeline) -> Result<Self, ExecError> {
        p.validate()
            .map_err(|e| ExecError::Invalid(e.to_string()))?;
        let order: Vec<usize> = p
            .kernel_dag()
            .topo_order()
            .expect("validated pipelines are acyclic")
            .into_iter()
            .map(|n| n.0)
            .collect();
        let kernels = p.kernels().iter().map(CompiledKernel::new).collect();
        Ok(Self {
            pipeline: p.clone(),
            kernels,
            order,
        })
    }

    /// The pipeline this plan was compiled from.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Executes the plan once, on fresh scratch buffers and untraced.
    /// Inputs are bound by reference count — an [`Image`] clone copies no
    /// pixels.
    pub fn execute(
        &self,
        inputs: &[(ImageId, Image)],
        cfg: &TileConfig,
    ) -> Result<Execution, ExecError> {
        self.run(
            inputs.to_vec(),
            cfg,
            &mut Scratch::default(),
            &Tracer::disabled(),
        )
    }

    /// Executes the plan, the one call every repeated execution goes
    /// through. `inputs` are *moved* into the execution, so a plane the
    /// caller hands over stays uniquely owned and a later write to it does
    /// not copy — a streaming session feeds frame N−1's planes back in as
    /// frame N's state inputs without copying a pixel. `scratch` is the
    /// caller's long-lived buffer pool (a serving worker keeps one for its
    /// lifetime, so the steady state allocates nothing in the executor).
    /// An enabled `tracer` records a `kernel:<name>` span per kernel with
    /// its modeled byte traffic and per-band timing lanes (see
    /// [`crate::tile::execute_kernel_compiled`]); [`Tracer::disabled`]
    /// runs the same code path at zero cost.
    pub fn run(
        &self,
        inputs: Vec<(ImageId, Image)>,
        cfg: &TileConfig,
        scratch: &mut Scratch,
        tracer: &Tracer,
    ) -> Result<Execution, ExecError> {
        let p = &self.pipeline;
        let mut images = bind_inputs(p, inputs)?;
        for &ki in &self.order {
            let k = &p.kernels()[ki];
            let out =
                execute_kernel_compiled(p, k, &self.kernels[ki], &images, cfg, scratch, tracer)?;
            images[k.output.0] = Some(out);
        }
        Ok(Execution::from_images(images))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_reference, synthetic_image};
    use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel};

    fn blur_chain(w: usize, h: usize) -> (Pipeline, ImageId, ImageId) {
        let mut p = Pipeline::new("chain");
        let input = p.add_input(ImageDesc::new("in", w, h, 1));
        let mid = p.add_image(ImageDesc::new("mid", w, h, 1));
        let out = p.add_image(ImageDesc::new("out", w, h, 1));
        let mask: Vec<&[f32]> = vec![&[1.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 1.0]];
        p.add_kernel(Kernel::simple(
            "blur",
            vec![input],
            mid,
            vec![BorderMode::Mirror],
            vec![Expr::convolve(0, 0, &mask)],
            vec![],
        ));
        p.add_kernel(Kernel::simple(
            "sq",
            vec![mid],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::load(0)],
            vec![],
        ));
        p.mark_output(out);
        (p, input, out)
    }

    #[test]
    fn compile_once_execute_many_bit_identical() {
        let (p, input, out) = blur_chain(23, 17);
        let plan = CompiledPlan::compile(&p).unwrap();
        let cfg = TileConfig::default();
        let mut scratch = Scratch::default();
        for seed in [1, 5, 9] {
            let img = synthetic_image(p.image(input).clone(), seed);
            let reference = execute_reference(&p, &[(input, img.clone())]).unwrap();
            let got = plan
                .run(vec![(input, img)], &cfg, &mut scratch, &Tracer::disabled())
                .unwrap();
            assert!(got.expect_image(out).bit_equal(reference.expect_image(out)));
        }
    }

    #[test]
    fn execute_binds_inputs_without_copying_or_touching_them() {
        let (p, input, out) = blur_chain(23, 17);
        let plan = CompiledPlan::compile(&p).unwrap();
        let img = synthetic_image(p.image(input).clone(), 3);
        let before = Image::from_data(img.desc().clone(), img.data().to_vec());
        let inputs = [(input, img)];
        let mut got = plan.execute(&inputs, &TileConfig::default()).unwrap();
        // The execution reports the caller's plane itself, not a copy …
        let bound = got.expect_image(input).data().as_ptr();
        assert!(std::ptr::eq(bound, inputs[0].1.data().as_ptr()));
        // … and owns it all the same: writing through the execution's
        // handle leaves the caller's image as it was.
        let mut taken = got.take_image(input).unwrap();
        taken.data_mut().fill(-1.0);
        assert!(inputs[0].1.bit_equal(&before));
        assert!(got.image(out).is_some());
    }

    #[test]
    fn compile_rejects_invalid_pipeline() {
        let mut p = Pipeline::new("bad");
        let input = p.add_input(ImageDesc::new("in", 4, 4, 1));
        // Two-channel output, but the kernel body produces one channel.
        let out = p.add_image(ImageDesc::new("out", 4, 4, 2));
        p.add_kernel(Kernel::simple(
            "k",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        ));
        p.mark_output(out);
        assert!(matches!(
            CompiledPlan::compile(&p),
            Err(ExecError::Invalid(_))
        ));
    }

    #[test]
    fn execute_reports_missing_input() {
        let (p, _, _) = blur_chain(8, 8);
        let plan = CompiledPlan::compile(&p).unwrap();
        assert!(matches!(
            plan.execute(&[], &TileConfig::default()),
            Err(ExecError::MissingInput { .. })
        ));
    }
}
