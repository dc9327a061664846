//! Reproduces **Table II**: geometric mean of speedups across all GPUs.
//!
//! Run with `cargo run --release -p kfuse-paper --bin table2`; the text is
//! `kfuse_paper::repro::table2` and is committed as `results/table2.txt`.

fn main() {
    eprintln!(
        "evaluating 6 apps x 3 GPUs x 3 schedules ({} runs each)...",
        kfuse_paper::RUNS
    );
    print!("{}", kfuse_paper::repro::table2());
}
