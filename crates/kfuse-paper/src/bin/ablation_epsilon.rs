//! Ablation: sensitivity of the partition to the `ε` clamp (Eq. 12).
//!
//! Run with `cargo run --release -p kfuse-paper --bin ablation_epsilon`; the text is
//! `kfuse_paper::repro::ablation_epsilon` and is committed as `results/ablation_epsilon.txt`.

fn main() {
    print!("{}", kfuse_paper::repro::ablation_epsilon());
}
