//! Reproduces **Figure 6**: box-plot execution-time statistics for six
//! applications × three GPUs × three versions over 500 simulated runs.
//!
//! Run with `cargo run --release -p kfuse-paper --bin figure6`; the text is
//! `kfuse_paper::repro::figure6` and is committed as `results/figure6.txt`.

fn main() {
    eprintln!(
        "evaluating 6 apps x 3 GPUs x 3 schedules ({} runs each)...",
        kfuse_paper::RUNS
    );
    print!("{}", kfuse_paper::repro::figure6());
}
