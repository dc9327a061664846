//! Ablation: the local-to-local recompute model, Eq. 10 verbatim vs. the
//! tile-amortized shared-memory codegen cost.
//!
//! Run with `cargo run --release -p kfuse-paper --bin ablation_recompute`; the text is
//! `kfuse_paper::repro::ablation_recompute` and is committed as `results/ablation_recompute.txt`.

fn main() {
    print!("{}", kfuse_paper::repro::ablation_recompute());
}
