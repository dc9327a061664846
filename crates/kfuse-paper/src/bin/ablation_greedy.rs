//! Ablation: min-cut partitioning (Algorithm 1) vs. greedy
//! heaviest-edge-first grouping vs. the pairwise basic fusion of \[12\].
//!
//! Run with `cargo run --release -p kfuse-paper --bin ablation_greedy`; the text is
//! `kfuse_paper::repro::ablation_greedy` and is committed as `results/ablation_greedy.txt`.

fn main() {
    print!("{}", kfuse_paper::repro::ablation_greedy());
}
