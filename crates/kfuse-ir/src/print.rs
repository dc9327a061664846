//! Human-readable rendering of kernels and pipelines.
//!
//! Used by the example binaries to show what fusion did to a pipeline —
//! the Rust-IR analogue of the paper's Listing 1 (fused kernel bodies
//! concatenated in execution order).

use crate::expr::{BinOp, Expr, UnOp};
use crate::kernel::{Kernel, MemSpace, StageRef};
use crate::pipeline::Pipeline;
use std::fmt::Write as _;

fn bin_symbol(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Min => "min",
        BinOp::Max => "max",
        BinOp::Pow => "pow",
        BinOp::Lt => "<",
        BinOp::Gt => ">",
    }
}

fn un_name(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "-",
        UnOp::Abs => "abs",
        UnOp::Sqrt => "sqrt",
        UnOp::Exp => "exp",
        UnOp::Log => "log",
        UnOp::Sin => "sin",
        UnOp::Cos => "cos",
        UnOp::Rsqrt => "rsqrt",
        UnOp::Floor => "floor",
    }
}

/// Renders an expression with slot names supplied by `slot_name`.
pub fn expr_to_string(e: &Expr, slot_name: &dyn Fn(usize) -> String) -> String {
    match e {
        Expr::Const(v) => format!("{v}"),
        Expr::Param(i) => format!("p{i}"),
        Expr::Load { slot, dx, dy, ch } => {
            let base = slot_name(*slot);
            if *dx == 0 && *dy == 0 && *ch == 0 {
                base
            } else if *ch == 0 {
                format!("{base}({dx:+},{dy:+})")
            } else {
                format!("{base}({dx:+},{dy:+}).{ch}")
            }
        }
        Expr::Bin(op, a, b) => match op {
            BinOp::Min | BinOp::Max | BinOp::Pow => format!(
                "{}({}, {})",
                bin_symbol(*op),
                expr_to_string(a, slot_name),
                expr_to_string(b, slot_name)
            ),
            _ => format!(
                "({} {} {})",
                expr_to_string(a, slot_name),
                bin_symbol(*op),
                expr_to_string(b, slot_name)
            ),
        },
        Expr::Un(op, a) => format!("{}({})", un_name(*op), expr_to_string(a, slot_name)),
        Expr::Select(c, t, e2) => format!(
            "select({}, {}, {})",
            expr_to_string(c, slot_name),
            expr_to_string(t, slot_name),
            expr_to_string(e2, slot_name)
        ),
    }
}

/// Renders one kernel with all its stages, reference tables and memory
/// spaces.
pub fn kernel_to_string(p: &Pipeline, k: &Kernel) -> String {
    let mut out = String::new();
    let inputs: Vec<String> = k.inputs.iter().map(|&i| p.image(i).name.clone()).collect();
    let _ = writeln!(
        out,
        "kernel {}({}) -> {}",
        k.name,
        inputs.join(", "),
        p.image(k.output).name
    );
    for (si, s) in k.stages.iter().enumerate() {
        let space = match s.space {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
            MemSpace::Register => "register",
        };
        let marker = if si == k.root { " (root)" } else { "" };
        let _ = writeln!(out, "  stage {si} `{}` [{space}]{marker}:", s.name);
        let slot_name = |slot: usize| match s.refs.get(slot) {
            Some(StageRef::Input(i)) => p.image(k.inputs[*i]).name.clone(),
            Some(StageRef::Stage(j)) => format!("@{}", k.stages[*j].name),
            None => format!("?slot{slot}"),
        };
        for (c, b) in s.body.iter().enumerate() {
            let truncated = {
                let full = expr_to_string(b, &slot_name);
                if full.len() > 160 {
                    format!(
                        "{}… ({} ops)",
                        &full[..160],
                        b.op_counts().alu + b.op_counts().sfu
                    )
                } else {
                    full
                }
            };
            let _ = writeln!(out, "    out[{c}] = {truncated}");
        }
    }
    out
}

/// Renders a whole pipeline: images, then kernels in order.
pub fn pipeline_to_string(p: &Pipeline) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "pipeline {} ({} kernels)", p.name, p.kernels().len());
    for k in p.kernels() {
        out.push_str(&kernel_to_string(p, k));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageDesc;
    use crate::BorderMode;

    #[test]
    fn renders_offsets_and_ops() {
        let e = Expr::load_at(0, -1, 1) + Expr::Un(UnOp::Sqrt, Box::new(Expr::load(1)));
        let s = expr_to_string(&e, &|slot| format!("in{slot}"));
        assert_eq!(s, "(in0(-1,+1) + sqrt(in1))");
    }

    #[test]
    fn renders_minmax_as_calls() {
        let e = Expr::Bin(
            BinOp::Max,
            Box::new(Expr::load(0)),
            Box::new(Expr::Const(0.0)),
        );
        assert_eq!(expr_to_string(&e, &|_| "x".into()), "max(x, 0)");
    }

    #[test]
    fn renders_fused_stages_with_spaces() {
        use crate::{MemSpace, Stage, StageRef};
        let mut p = Pipeline::new("f");
        let a = p.add_input(ImageDesc::new("in", 4, 4, 1));
        let b = p.add_image(ImageDesc::new("out", 4, 4, 1));
        let producer = Stage {
            name: "inc".into(),
            refs: vec![StageRef::Input(0)],
            borders: vec![BorderMode::Clamp],
            body: vec![Expr::load(0) + Expr::Const(1.0)].into(),
            params: vec![],
            space: MemSpace::Register,
        };
        let root = Stage {
            name: "dbl".into(),
            refs: vec![StageRef::Stage(0)],
            borders: vec![BorderMode::Clamp],
            body: vec![Expr::load(0) * Expr::Const(2.0)].into(),
            params: vec![],
            space: MemSpace::Global,
        };
        let k = Kernel {
            name: "inc+dbl".into(),
            inputs: vec![a],
            output: b,
            stages: vec![producer, root],
            root: 1,
            input_staging: true,
        };
        p.add_kernel(k);
        p.mark_output(b);
        let s = pipeline_to_string(&p);
        assert!(s.contains("stage 0 `inc` [register]"));
        assert!(s.contains("stage 1 `dbl` [global] (root)"));
        // Stage references render as `@name`.
        assert!(s.contains("(@inc * 2)"));
    }

    #[test]
    fn long_bodies_are_truncated() {
        let mut e = Expr::load(0);
        for _ in 0..200 {
            e = e + Expr::Const(1.0);
        }
        let mut p = Pipeline::new("t");
        let a = p.add_input(ImageDesc::new("in", 4, 4, 1));
        let b = p.add_image(ImageDesc::new("out", 4, 4, 1));
        p.add_kernel(Kernel::simple(
            "big",
            vec![a],
            b,
            vec![BorderMode::Clamp],
            vec![e],
            vec![],
        ));
        p.mark_output(b);
        let s = pipeline_to_string(&p);
        assert!(s.contains("… (200 ops)"));
    }

    #[test]
    fn renders_pipeline() {
        let mut p = Pipeline::new("t");
        let a = p.add_input(ImageDesc::new("in", 4, 4, 1));
        let b = p.add_image(ImageDesc::new("out", 4, 4, 1));
        p.add_kernel(Kernel::simple(
            "double",
            vec![a],
            b,
            vec![BorderMode::Clamp],
            vec![Expr::load(0) * Expr::Const(2.0)],
            vec![],
        ));
        p.mark_output(b);
        let s = pipeline_to_string(&p);
        assert!(s.contains("pipeline t"));
        assert!(s.contains("kernel double(in) -> out"));
        assert!(s.contains("(in * 2)"));
        assert!(s.contains("[global] (root)"));
    }
}
