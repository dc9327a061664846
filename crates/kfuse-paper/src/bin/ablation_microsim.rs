//! Ablation: analytic roofline model vs. warp-level micro-simulation.
//!
//! Run with `cargo run --release -p kfuse-paper --bin ablation_microsim`; the text is
//! `kfuse_paper::repro::ablation_microsim` and is committed as `results/ablation_microsim.txt`.

fn main() {
    print!("{}", kfuse_paper::repro::ablation_microsim());
}
