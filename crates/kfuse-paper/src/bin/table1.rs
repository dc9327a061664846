//! Reproduces **Table I**: speedup comparison for the three version pairs
//! (optimized/baseline, basic/baseline, optimized/basic) on every GPU.
//!
//! Run with `cargo run --release -p kfuse-paper --bin table1`; the text is
//! `kfuse_paper::repro::table1` and is committed as `results/table1.txt`.

fn main() {
    eprintln!(
        "evaluating 6 apps x 3 GPUs x 3 schedules ({} runs each)...",
        kfuse_paper::RUNS
    );
    print!("{}", kfuse_paper::repro::table1());
}
