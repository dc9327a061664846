//! Ablation: sweep of the Eq. (2) shared-memory threshold `c_Mshared`.
//!
//! Run with `cargo run --release -p kfuse-paper --bin ablation_threshold`; the text is
//! `kfuse_paper::repro::ablation_threshold` and is committed as `results/ablation_threshold.txt`.

fn main() {
    print!("{}", kfuse_paper::repro::ablation_threshold());
}
