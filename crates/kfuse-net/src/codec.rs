//! Binary serialization of kfuse-ir pipelines and images.
//!
//! The encoding mirrors the IR's own structure (images → input/output
//! marks → kernels → stages → expression trees) so a decoded pipeline is
//! rebuilt through the same constructor API (`add_image`, `mark_input`,
//! `mark_output`, `add_kernel`) a local client would use — [`ImageId`]s
//! are assigned by insertion order and therefore survive the trip, which
//! is what keeps [`Pipeline::fingerprint`] stable across the wire.
//!
//! Decoding never trusts an index before bounding it: kernel inputs and
//! outputs are checked against the image table, stage references against
//! the stage prefix (a stage may only reference earlier stages), loads
//! against the reference table, and parameters against the parameter
//! table. Expression trees carry both a depth limit and a shared
//! node-count budget per stage so a tiny payload cannot request an
//! enormous tree. Whatever structural invariants remain are enforced by
//! re-running [`Kernel::check`] and [`Pipeline::validate`] on the decoded
//! result — the server executes nothing that its own validator rejects.
//!
//! Image samples travel as raw IEEE-754 bit patterns, making the codec
//! bit-exact for every value including NaNs and `-0.0`.

use kfuse_ir::{
    BinOp, BorderMode, Expr, Image, ImageDesc, ImageId, Kernel, MemSpace, Pipeline, Stage,
    StageRef, UnOp,
};
use kfuse_stream::{StateBinding, StateSource, StreamPipeline};

use crate::wire::{
    put_f32, put_i32, put_str, put_u32, put_u8, put_usize, ByteReader, Limits, WireError,
};

// ---------------------------------------------------------------------------
// Pipelines.
// ---------------------------------------------------------------------------

/// Appends the full structural encoding of `p` to `out`.
pub(crate) fn encode_pipeline(out: &mut Vec<u8>, p: &Pipeline) {
    put_usize(out, p.images().len());
    for desc in p.images() {
        put_str(out, &desc.name);
        put_u32(out, desc.width as u32);
        put_u32(out, desc.height as u32);
        put_u32(out, desc.channels as u32);
    }
    put_usize(out, p.inputs().len());
    for id in p.inputs() {
        put_u32(out, id.0 as u32);
    }
    put_usize(out, p.outputs().len());
    for id in p.outputs() {
        put_u32(out, id.0 as u32);
    }
    put_usize(out, p.kernels().len());
    for k in p.kernels() {
        encode_kernel(out, k);
    }
}

/// Decodes a pipeline and re-validates it with the IR's own checker.
pub(crate) fn decode_pipeline(
    r: &mut ByteReader<'_>,
    limits: &Limits,
) -> Result<Pipeline, WireError> {
    let n_images = r.count(limits.max_count, "image")?;
    let mut p = Pipeline::new("remote");
    for _ in 0..n_images {
        p.add_image(decode_desc(r, limits)?);
    }
    let n_inputs = r.count(limits.max_count, "input")?;
    for _ in 0..n_inputs {
        p.mark_input(image_id(r, n_images, "input")?);
    }
    let n_outputs = r.count(limits.max_count, "output")?;
    for _ in 0..n_outputs {
        p.mark_output(image_id(r, n_images, "output")?);
    }
    let n_kernels = r.count(limits.max_count, "kernel")?;
    for _ in 0..n_kernels {
        p.add_kernel(decode_kernel(r, limits, n_images)?);
    }
    p.validate()
        .map_err(|e| WireError::Malformed(format!("invalid pipeline: {e}")))?;
    Ok(p)
}

fn image_id(r: &mut ByteReader<'_>, n_images: usize, what: &str) -> Result<ImageId, WireError> {
    let id = r.u32()? as usize;
    if id >= n_images {
        return Err(WireError::Malformed(format!(
            "{what} image id {id} out of range ({n_images} images)"
        )));
    }
    Ok(ImageId(id))
}

fn decode_desc(r: &mut ByteReader<'_>, limits: &Limits) -> Result<ImageDesc, WireError> {
    let name = r.string(limits, "image name")?;
    let width = bounded_dim(r, limits.max_dim, "width")?;
    let height = bounded_dim(r, limits.max_dim, "height")?;
    let channels = bounded_dim(r, limits.max_channels, "channels")?;
    Ok(ImageDesc::new(name, width, height, channels))
}

fn bounded_dim(r: &mut ByteReader<'_>, max: usize, what: &str) -> Result<usize, WireError> {
    let v = r.u32()? as usize;
    if v == 0 || v > max {
        return Err(WireError::Malformed(format!(
            "image {what} {v} outside 1..={max}"
        )));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Kernels and stages.
// ---------------------------------------------------------------------------

fn encode_kernel(out: &mut Vec<u8>, k: &Kernel) {
    put_str(out, &k.name);
    put_usize(out, k.inputs.len());
    for id in &k.inputs {
        put_u32(out, id.0 as u32);
    }
    put_u32(out, k.output.0 as u32);
    put_u32(out, k.root as u32);
    put_u8(out, u8::from(k.input_staging));
    put_usize(out, k.stages.len());
    for s in &k.stages {
        encode_stage(out, s);
    }
}

fn decode_kernel(
    r: &mut ByteReader<'_>,
    limits: &Limits,
    n_images: usize,
) -> Result<Kernel, WireError> {
    let name = r.string(limits, "kernel name")?;
    let n_inputs = r.count(limits.max_count, "kernel input")?;
    let mut inputs = Vec::with_capacity(n_inputs);
    for _ in 0..n_inputs {
        inputs.push(image_id(r, n_images, "kernel input")?);
    }
    let output = image_id(r, n_images, "kernel output")?;
    let root = r.u32()? as usize;
    let input_staging = match r.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(WireError::Malformed(format!(
                "input_staging byte {other} is not 0/1"
            )))
        }
    };
    let n_stages = r.count(limits.max_count, "stage")?;
    let mut stages = Vec::with_capacity(n_stages);
    for i in 0..n_stages {
        stages.push(decode_stage(r, limits, n_inputs, i)?);
    }
    if root >= stages.len() {
        return Err(WireError::Malformed(format!(
            "root stage {root} out of range ({} stages)",
            stages.len()
        )));
    }
    let kernel = Kernel {
        name,
        inputs,
        output,
        stages,
        root,
        input_staging,
    };
    kernel
        .check()
        .map_err(|e| WireError::Malformed(format!("invalid kernel: {e}")))?;
    Ok(kernel)
}

fn encode_stage(out: &mut Vec<u8>, s: &Stage) {
    put_str(out, &s.name);
    put_usize(out, s.refs.len());
    for r in &s.refs {
        match r {
            StageRef::Input(i) => {
                put_u8(out, 0);
                put_u32(out, *i as u32);
            }
            StageRef::Stage(i) => {
                put_u8(out, 1);
                put_u32(out, *i as u32);
            }
        }
    }
    put_usize(out, s.borders.len());
    for b in &s.borders {
        match b {
            BorderMode::Clamp => put_u8(out, 0),
            BorderMode::Mirror => put_u8(out, 1),
            BorderMode::Repeat => put_u8(out, 2),
            BorderMode::Constant(v) => {
                put_u8(out, 3);
                put_f32(out, *v);
            }
        }
    }
    put_usize(out, s.params.len());
    for p in &s.params {
        put_f32(out, *p);
    }
    put_u8(
        out,
        match s.space {
            MemSpace::Global => 0,
            MemSpace::Shared => 1,
            MemSpace::Register => 2,
        },
    );
    put_usize(out, s.body.len());
    for e in s.body.iter() {
        encode_expr(out, e);
    }
}

fn decode_stage(
    r: &mut ByteReader<'_>,
    limits: &Limits,
    n_kernel_inputs: usize,
    stage_index: usize,
) -> Result<Stage, WireError> {
    let name = r.string(limits, "stage name")?;
    let n_refs = r.count(limits.max_count, "stage ref")?;
    let mut refs = Vec::with_capacity(n_refs);
    for _ in 0..n_refs {
        let tag = r.u8()?;
        let idx = r.u32()? as usize;
        refs.push(match tag {
            0 => {
                if idx >= n_kernel_inputs {
                    return Err(WireError::Malformed(format!(
                        "stage ref Input({idx}) out of range ({n_kernel_inputs} kernel inputs)"
                    )));
                }
                StageRef::Input(idx)
            }
            1 => {
                if idx >= stage_index {
                    return Err(WireError::Malformed(format!(
                        "stage ref Stage({idx}) must reference an earlier stage (index {stage_index})"
                    )));
                }
                StageRef::Stage(idx)
            }
            other => {
                return Err(WireError::Malformed(format!(
                    "unknown stage-ref tag {other}"
                )))
            }
        });
    }
    let n_borders = r.count(limits.max_count, "border")?;
    let mut borders = Vec::with_capacity(n_borders);
    for _ in 0..n_borders {
        borders.push(match r.u8()? {
            0 => BorderMode::Clamp,
            1 => BorderMode::Mirror,
            2 => BorderMode::Repeat,
            3 => BorderMode::Constant(r.f32()?),
            other => {
                return Err(WireError::Malformed(format!(
                    "unknown border-mode tag {other}"
                )))
            }
        });
    }
    let n_params = r.count(limits.max_count, "parameter")?;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        params.push(r.f32()?);
    }
    let space = match r.u8()? {
        0 => MemSpace::Global,
        1 => MemSpace::Shared,
        2 => MemSpace::Register,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown memory-space tag {other}"
            )))
        }
    };
    let n_body = r.count(limits.max_count, "body expression")?;
    let mut body = Vec::with_capacity(n_body);
    // One node budget for the whole stage body: many small trees or one
    // large tree, but never more than `max_count` nodes total.
    let mut budget = limits.max_count;
    for _ in 0..n_body {
        body.push(decode_expr(r, limits, 0, &mut budget, n_refs, n_params)?);
    }
    Ok(Stage {
        name,
        refs,
        borders,
        body: body.into(),
        params,
        space,
    })
}

// ---------------------------------------------------------------------------
// Expressions.
// ---------------------------------------------------------------------------

fn bin_op_byte(op: BinOp) -> u8 {
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

fn bin_op_from(b: u8) -> Result<BinOp, WireError> {
    Ok(match b {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Min,
        5 => BinOp::Max,
        6 => BinOp::Pow,
        7 => BinOp::Lt,
        8 => BinOp::Gt,
        other => return Err(WireError::Malformed(format!("unknown binary op {other}"))),
    })
}

fn un_op_byte(op: UnOp) -> u8 {
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

fn un_op_from(b: u8) -> Result<UnOp, WireError> {
    Ok(match b {
        0 => UnOp::Neg,
        1 => UnOp::Abs,
        2 => UnOp::Sqrt,
        3 => UnOp::Exp,
        4 => UnOp::Log,
        5 => UnOp::Sin,
        6 => UnOp::Cos,
        7 => UnOp::Rsqrt,
        8 => UnOp::Floor,
        other => return Err(WireError::Malformed(format!("unknown unary op {other}"))),
    })
}

fn encode_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Const(v) => {
            put_u8(out, 0);
            put_f32(out, *v);
        }
        Expr::Param(i) => {
            put_u8(out, 1);
            put_u32(out, *i as u32);
        }
        Expr::Load { slot, dx, dy, ch } => {
            put_u8(out, 2);
            put_u32(out, *slot as u32);
            put_i32(out, *dx);
            put_i32(out, *dy);
            put_u32(out, *ch as u32);
        }
        Expr::Bin(op, a, b) => {
            put_u8(out, 3);
            put_u8(out, bin_op_byte(*op));
            encode_expr(out, a);
            encode_expr(out, b);
        }
        Expr::Un(op, a) => {
            put_u8(out, 4);
            put_u8(out, un_op_byte(*op));
            encode_expr(out, a);
        }
        Expr::Select(c, t, f) => {
            put_u8(out, 5);
            encode_expr(out, c);
            encode_expr(out, t);
            encode_expr(out, f);
        }
    }
}

fn decode_expr(
    r: &mut ByteReader<'_>,
    limits: &Limits,
    depth: usize,
    budget: &mut usize,
    n_refs: usize,
    n_params: usize,
) -> Result<Expr, WireError> {
    if depth > limits.max_expr_depth {
        return Err(WireError::Malformed(format!(
            "expression deeper than {}",
            limits.max_expr_depth
        )));
    }
    *budget = budget
        .checked_sub(1)
        .ok_or_else(|| WireError::Malformed("stage body exceeds node budget".into()))?;
    Ok(match r.u8()? {
        0 => Expr::Const(r.f32()?),
        1 => {
            let i = r.u32()? as usize;
            if i >= n_params {
                return Err(WireError::Malformed(format!(
                    "Param({i}) out of range ({n_params} parameters)"
                )));
            }
            Expr::Param(i)
        }
        2 => {
            let slot = r.u32()? as usize;
            if slot >= n_refs {
                return Err(WireError::Malformed(format!(
                    "Load slot {slot} out of range ({n_refs} refs)"
                )));
            }
            let dx = r.i32()?;
            let dy = r.i32()?;
            let max = limits.max_dim as i32;
            if dx.unsigned_abs() as usize > limits.max_dim
                || dy.unsigned_abs() as usize > limits.max_dim
            {
                return Err(WireError::Malformed(format!(
                    "load offset ({dx},{dy}) outside ±{max}"
                )));
            }
            let ch = r.u32()? as usize;
            if ch >= limits.max_channels {
                return Err(WireError::Malformed(format!(
                    "load channel {ch} exceeds limit {}",
                    limits.max_channels
                )));
            }
            Expr::Load { slot, dx, dy, ch }
        }
        3 => {
            let op = bin_op_from(r.u8()?)?;
            let a = decode_expr(r, limits, depth + 1, budget, n_refs, n_params)?;
            let b = decode_expr(r, limits, depth + 1, budget, n_refs, n_params)?;
            Expr::Bin(op, Box::new(a), Box::new(b))
        }
        4 => {
            let op = un_op_from(r.u8()?)?;
            let a = decode_expr(r, limits, depth + 1, budget, n_refs, n_params)?;
            Expr::Un(op, Box::new(a))
        }
        5 => {
            let c = decode_expr(r, limits, depth + 1, budget, n_refs, n_params)?;
            let t = decode_expr(r, limits, depth + 1, budget, n_refs, n_params)?;
            let f = decode_expr(r, limits, depth + 1, budget, n_refs, n_params)?;
            Expr::Select(Box::new(c), Box::new(t), Box::new(f))
        }
        other => return Err(WireError::Malformed(format!("unknown expr tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Images.
// ---------------------------------------------------------------------------

/// Encodes a `(ImageId, Image)` binding list (submit inputs / result
/// outputs).
pub(crate) fn encode_bound_images(out: &mut Vec<u8>, list: &[(ImageId, Image)]) {
    put_usize(out, list.len());
    for (id, img) in list {
        put_u32(out, id.0 as u32);
        encode_image(out, img);
    }
}

/// Decodes a binding list. Ids are bounded but **not** resolved here —
/// the server checks them against the target pipeline's declared inputs
/// before indexing anything.
pub(crate) fn decode_bound_images(
    r: &mut ByteReader<'_>,
    limits: &Limits,
) -> Result<Vec<(ImageId, Image)>, WireError> {
    let n = r.count(limits.max_count, "bound image")?;
    let mut list = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32()? as usize;
        if id > limits.max_count {
            return Err(WireError::Malformed(format!(
                "bound image id {id} exceeds limit {}",
                limits.max_count
            )));
        }
        list.push((ImageId(id), decode_image(r, limits)?));
    }
    Ok(list)
}

fn encode_image(out: &mut Vec<u8>, img: &Image) {
    let desc = img.desc();
    put_str(out, &desc.name);
    put_u32(out, desc.width as u32);
    put_u32(out, desc.height as u32);
    put_u32(out, desc.channels as u32);
    // Size once, then fill in bulk: a block copy on little-endian hosts.
    let start = out.len();
    out.resize(start + img.data().len() * 4, 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(img.data()) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn decode_image(r: &mut ByteReader<'_>, limits: &Limits) -> Result<Image, WireError> {
    let desc = decode_desc(r, limits)?;
    let samples = desc
        .width
        .checked_mul(desc.height)
        .and_then(|v| v.checked_mul(desc.channels))
        .ok_or_else(|| WireError::Malformed("image sample count overflows".into()))?;
    let byte_len = samples
        .checked_mul(4)
        .ok_or_else(|| WireError::Malformed("image byte size overflows".into()))?;
    // `take` bounds the announced size by the bytes actually present
    // before anything is allocated; the exact-size iterator then fills a
    // pre-sized vector in bulk.
    let data = r
        .take(byte_len)?
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
        .collect();
    Ok(Image::from_data(desc, data))
}

// ---------------------------------------------------------------------------
// Stream pipelines (the `OpenSession` payload).
// ---------------------------------------------------------------------------

/// Appends a [`StreamPipeline`]: the per-frame pipeline followed by its
/// state bindings (`tap`, source kind + id, depth).
pub(crate) fn encode_stream_pipeline(out: &mut Vec<u8>, s: &StreamPipeline) {
    encode_pipeline(out, s.frame());
    put_usize(out, s.states().len());
    for b in s.states() {
        put_u32(out, b.tap.0 as u32);
        let (kind, id) = match b.source {
            StateSource::Output(id) => (1u8, id),
            StateSource::Input(id) => (2u8, id),
        };
        put_u8(out, kind);
        put_u32(out, id.0 as u32);
        put_u8(
            out,
            u8::try_from(b.depth).expect("depth bounded by MAX_PREV_DEPTH"),
        );
    }
}

/// Decodes a stream pipeline. The raw parts are handed to
/// [`StreamPipeline::new`], which re-runs the full temporal validation
/// (taps are inputs, sources exist, depths bounded), so the server never
/// opens a session its own checker would reject.
pub(crate) fn decode_stream_pipeline(
    r: &mut ByteReader<'_>,
    limits: &Limits,
) -> Result<StreamPipeline, WireError> {
    let frame = decode_pipeline(r, limits)?;
    let n_images = frame.images().len();
    let n_states = r.count(limits.max_count, "state binding")?;
    let mut states = Vec::with_capacity(n_states);
    for _ in 0..n_states {
        let tap = image_id(r, n_images, "state tap")?;
        let kind = r.u8()?;
        let id = image_id(r, n_images, "state source")?;
        let source = match kind {
            1 => StateSource::Output(id),
            2 => StateSource::Input(id),
            other => {
                return Err(WireError::Malformed(format!(
                    "unknown state source kind {other}"
                )))
            }
        };
        let depth = r.u8()? as usize;
        states.push(StateBinding { tap, source, depth });
    }
    StreamPipeline::new(frame, states)
        .map_err(|e| WireError::Malformed(format!("invalid stream pipeline: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame, Frame};
    use kfuse_sim::synthetic_image;

    fn limits() -> Limits {
        Limits::default()
    }

    /// Every paper app's pipeline survives the wire with its fingerprint
    /// (and therefore its plan-cache identity) intact.
    #[test]
    fn paper_app_pipelines_round_trip_with_fingerprints() {
        for app in kfuse_apps::paper_apps() {
            let p = (app.build_paper)();
            let frame = Frame::RegisterPipeline {
                name: app.name.to_string(),
                fingerprint: p.fingerprint(),
                pipeline: p.clone(),
            };
            let bytes = encode_frame(&frame);
            let decoded = decode_frame(&bytes, &limits()).expect("decodes");
            // Re-encode bit-identity.
            assert_eq!(encode_frame(&decoded), bytes, "{}", app.name);
            match decoded {
                Frame::RegisterPipeline {
                    fingerprint,
                    pipeline,
                    ..
                } => {
                    assert_eq!(pipeline.fingerprint(), p.fingerprint(), "{}", app.name);
                    assert_eq!(fingerprint, p.fingerprint(), "{}", app.name);
                    assert_eq!(
                        pipeline.binding_fingerprint(),
                        p.binding_fingerprint(),
                        "{}",
                        app.name
                    );
                    assert!(pipeline.validate().is_ok());
                }
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn image_payloads_are_bit_exact() {
        for app in kfuse_apps::paper_apps() {
            let p = (app.build_sized)(33, 17);
            let inputs: Vec<_> = p
                .inputs()
                .iter()
                .map(|&id| (id, synthetic_image(p.image(id).clone(), 7)))
                .collect();
            let mut buf = Vec::new();
            encode_bound_images(&mut buf, &inputs);
            let mut r = ByteReader::new(&buf);
            let decoded = decode_bound_images(&mut r, &limits()).expect("decodes");
            assert_eq!(r.remaining(), 0);
            assert_eq!(decoded.len(), inputs.len());
            for ((id_a, img_a), (id_b, img_b)) in inputs.iter().zip(&decoded) {
                assert_eq!(id_a, id_b);
                assert!(img_a.bit_equal(img_b), "{}", app.name);
            }
        }
    }

    /// Bit patterns a block copy must not touch: signed zeros,
    /// infinities, quiet and signalling NaNs with payloads, subnormals.
    const SPECIALS: [u32; 12] = [
        0x0000_0000,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0xffc0_1234,
        0x7f80_1234,
        0xff80_0001,
        0x0000_0001,
        0x8000_0001,
        0x007f_ffff,
        0x3f80_0000,
    ];

    /// A `ResultOk` payload (request id + one bound image + no trace),
    /// by hand.
    fn result_payload(desc: &ImageDesc, sample_bytes: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        crate::wire::put_u64(&mut payload, 1);
        put_u32(&mut payload, 1); // one bound image
        put_u32(&mut payload, 0); // id
        put_str(&mut payload, &desc.name);
        put_u32(&mut payload, desc.width as u32);
        put_u32(&mut payload, desc.height as u32);
        put_u32(&mut payload, desc.channels as u32);
        payload.extend_from_slice(sample_bytes);
        put_u8(&mut payload, 0); // trace presence
        payload
    }

    #[test]
    fn odd_shapes_of_special_values_cross_bit_identically() {
        for (w, h, c) in [(1, 1, 1), (1, 7, 3), (5, 3, 2), (33, 1, 1)] {
            let desc = ImageDesc::new("odd", w, h, c);
            let bits: Vec<u32> = (0..w * h * c)
                .map(|i| SPECIALS[(i * 5 + w) % SPECIALS.len()])
                .collect();
            let data = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let mut buf = Vec::new();
            encode_image(&mut buf, &Image::from_data(desc.clone(), data));
            // The samples are the tail of the encoding, little-endian.
            let wire_bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
            assert!(buf.ends_with(&wire_bytes), "{w}x{h}x{c}");
            let mut r = ByteReader::new(&buf);
            let back = decode_image(&mut r, &limits()).expect("decodes");
            assert_eq!(r.remaining(), 0);
            assert_eq!(back.desc(), &desc);
            let back_bits: Vec<u32> = back.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(back_bits, bits, "{w}x{h}x{c}");
        }
    }

    #[test]
    fn sample_bytes_must_match_the_announced_shape_exactly() {
        let desc = ImageDesc::new("img", 5, 3, 2);
        let exact = result_payload(&desc, &[0x5a; 5 * 3 * 2 * 4]);
        let decode = |payload: &[u8]| crate::wire::decode_payload(4, payload, &limits());
        assert!(decode(&exact).is_ok());
        let short = result_payload(&desc, &[0x5a; 5 * 3 * 2 * 4 - 1]);
        assert!(matches!(decode(&short), Err(WireError::Truncated)));
        let mut long = exact.clone();
        long.push(0);
        assert!(matches!(decode(&long), Err(WireError::TrailingBytes(1))));
        // The largest shape the limits allow announces 64 GiB of samples;
        // with three bytes behind it the decoder must refuse before it
        // sizes anything by that number.
        let l = limits();
        let huge = ImageDesc::new("huge", l.max_dim, l.max_dim, l.max_channels);
        let lying = result_payload(&huge, &[1, 2, 3]);
        assert!(matches!(decode(&lying), Err(WireError::Truncated)));
    }

    #[test]
    fn hostile_counts_and_indices_are_rejected() {
        let p = (kfuse_apps::paper_apps()[0].build_paper)();
        let frame = Frame::RegisterPipeline {
            name: "x".into(),
            fingerprint: p.fingerprint(),
            pipeline: p,
        };
        let good = encode_frame(&frame);
        // Flip bytes throughout the payload; decode must never panic and
        // must reject (checksum catches every single-byte change).
        for i in (crate::wire::HEADER_LEN..good.len()).step_by(13) {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            assert!(decode_frame(&bad, &limits()).is_err(), "byte {i}");
        }
    }

    #[test]
    fn zero_dimension_image_is_rejected_not_panicking() {
        // Hand-build a Submit payload with a 0-width image; the decoder
        // must error before `ImageDesc::new` (which panics on zero dims).
        let mut payload = Vec::new();
        crate::wire::put_u64(&mut payload, 1); // request id
        put_str(&mut payload, "t");
        crate::wire::put_u64(&mut payload, 0); // deadline
        put_u8(&mut payload, 0); // schedule
        put_u8(&mut payload, 0); // priority
        put_u32(&mut payload, 1); // one bound image
        put_u32(&mut payload, 0); // id
        put_str(&mut payload, "img");
        put_u32(&mut payload, 0); // width 0!
        put_u32(&mut payload, 4);
        put_u32(&mut payload, 1);
        let err = crate::wire::decode_payload(3, &payload, &limits()).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn deep_expression_is_bounded() {
        // depth max_expr_depth+2 chain of Un(Neg, …) around a Const.
        let mut payload = Vec::new();
        let depth = limits().max_expr_depth + 2;
        for _ in 0..depth {
            put_u8(&mut payload, 4); // Un
            put_u8(&mut payload, 0); // Neg
        }
        put_u8(&mut payload, 0); // Const
        put_f32(&mut payload, 1.0);
        let mut r = ByteReader::new(&payload);
        let mut budget = usize::MAX;
        let err = decode_expr(&mut r, &limits(), 0, &mut budget, 1, 0).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
    }
}
