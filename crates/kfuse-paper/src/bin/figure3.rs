//! Reproduces **Figure 3**: Algorithm 1 walked through on the Harris corner
//! detector (edge weights, min-cut sequence, final partition).
//!
//! Run with `cargo run --release -p kfuse-paper --bin figure3`; the text is
//! `kfuse_paper::repro::figure3` and is committed as `results/figure3.txt`.

fn main() {
    print!("{}", kfuse_paper::repro::figure3());
}
