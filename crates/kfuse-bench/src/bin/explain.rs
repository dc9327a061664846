//! Planner explainability report: why each edge was fused or cut.
//!
//! For the named application (or `all`), runs Algorithm 1 under the
//! evaluation configuration (GTX 680) and prints the [`PlanTrace`] fusion
//! report — the per-edge benefit table (δ, φ, g, γ, ε-clamp reason), the
//! pairwise legality verdicts, and the min-cut recursion log — then writes
//! the Graphviz DOT rendering of the final partition to
//! `results/explain_<app>.dot`.
//!
//! With `--separable`, the planner prices producer recompute with the
//! factored per-pixel cost (`BenefitModel::separable_phi`): exactly-
//! separable convolution stages count `nnz(u) + nnz(v)` taps instead of
//! `nnz(W)`, so the benefit table's φ column drops for stages like the
//! 3×3 Gaussians (9 → 6 taps) and Sobel masks (6 → 5) while bilateral
//! stages (Night) keep their full cost. The DOT file then lands at
//! `results/explain_<app>_separable.dot` so both renderings can coexist.
//!
//! Run with `cargo run --release -p kfuse-bench --bin explain -- harris`
//! (app name is case-insensitive; default is `all`).

use kfuse_core::{plan_optimized, FusionConfig, PlanTrace};
use kfuse_model::{BenefitModel, GpuSpec};

fn main() {
    let mut separable = false;
    let mut names = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--separable" {
            separable = true;
        } else {
            names.push(arg);
        }
    }
    let arg = names.pop().unwrap_or_else(|| "all".to_string());
    let apps = kfuse_apps::paper_apps();
    let selected: Vec<_> = if arg.eq_ignore_ascii_case("all") {
        apps.iter().collect()
    } else {
        let found: Vec<_> = apps
            .iter()
            .filter(|a| a.name.eq_ignore_ascii_case(&arg))
            .collect();
        if found.is_empty() {
            let names: Vec<&str> = apps.iter().map(|a| a.name).collect();
            eprintln!("unknown app '{arg}'; expected one of {names:?} or 'all'");
            std::process::exit(2);
        }
        found
    };

    let mut cfg = FusionConfig::new(BenefitModel::new(GpuSpec::gtx680()));
    if separable {
        cfg = cfg.with_separable();
        println!("separable φ: recompute priced at the factored 1-D tap cost\n");
    }
    let mut first = true;
    for app in selected {
        if !first {
            println!();
        }
        first = false;
        let p = (app.build_paper)();
        let plan = plan_optimized(&p, &cfg);
        let trace = PlanTrace::from_plan(&p, &plan, &cfg);
        print!("{}", trace.render_text());
        if separable {
            // The φ input itself: which stages the factorization pass
            // would split, and the per-pixel cost each split saves. (On
            // the six paper apps every edge with a separable producer is
            // ε-illegal or point-consumed, so the edge table above is
            // unchanged — this is where the reduced recompute shows.)
            let mut lines = Vec::new();
            for k in p.kernels() {
                for s in &k.stages {
                    let Some(parts) = kfuse_ir::stage_factorization(s) else {
                        continue;
                    };
                    let full = s.op_counts();
                    let fac: kfuse_ir::OpCounts = parts
                        .iter()
                        .map(|(st, f)| {
                            f.row_expr(st.slot, st.ch)
                                .op_counts()
                                .merge(f.col_expr(st.slot, st.ch).op_counts())
                        })
                        .fold(kfuse_ir::OpCounts::default(), kfuse_ir::OpCounts::merge);
                    let (st, f) = &parts[0];
                    lines.push(format!(
                        "  {}: {}x{} mask, {} taps -> {}+{} ({} -> {} ALU ops, {} -> {} loads)",
                        s.name,
                        st.height(),
                        st.width(),
                        st.nnz(),
                        f.col.iter().filter(|&&c| c != 0.0).count(),
                        f.row.iter().filter(|&&c| c != 0.0).count(),
                        full.alu,
                        fac.alu,
                        full.loads,
                        fac.loads,
                    ));
                }
            }
            if lines.is_empty() {
                println!("\nseparable stages: none (no stage factors exactly)");
            } else {
                println!("\nseparable stages (per-pixel recompute, full -> factored):");
                for l in lines {
                    println!("{l}");
                }
            }
        }

        let dir = std::path::Path::new("results");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        let suffix = if separable { "_separable" } else { "" };
        let path = dir.join(format!("explain_{}{suffix}.dot", app.name.to_lowercase()));
        if let Err(e) = std::fs::write(&path, trace.to_dot()) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("\npartition graph written to {}", path.display());
    }
}
