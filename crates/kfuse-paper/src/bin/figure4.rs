//! Reproduces **Figure 4**: local-to-local fusion with border handling on
//! the paper's 5×5 worked example (interior, naive border, index exchange).
//!
//! Run with `cargo run --release -p kfuse-paper --bin figure4`; the text is
//! `kfuse_paper::repro::figure4` and is committed as `results/figure4.txt`.

fn main() {
    print!("{}", kfuse_paper::repro::figure4());
}
