//! The evaluation matrix of paper Section V: six applications × three GPUs
//! × three versions (baseline / basic fusion / optimized fusion).
//!
//! [`evaluate_all`] produces the modelled execution time and the simulated
//! 500-run statistics for every cell; [`speedup_table`] and
//! [`geomean_rows`] derive Table I and Table II from the medians, exactly
//! as the paper's appendix prescribes ("the gains in Table 1 and Table 2
//! can be derived from the median value of the obtained statistics").

use crate::timing::{noisy_runs, RunStats, TimingModel};
use kfuse_apps::{paper_apps, App};
use kfuse_core::FusionConfig;
use kfuse_dsl::{compile, Schedule};
use kfuse_model::{BenefitModel, GpuSpec};

/// One cell of the evaluation matrix.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Application name (Table I column).
    pub app: String,
    /// GPU name (Table I row group).
    pub gpu: String,
    /// Version (baseline / basic / optimized).
    pub schedule: Schedule,
    /// Number of GPU kernels after scheduling.
    pub kernel_count: usize,
    /// Modelled execution time in milliseconds.
    pub base_ms: f64,
    /// Statistics over the simulated measurement runs.
    pub stats: RunStats,
}

/// Number of measurement runs per configuration (paper: 500).
pub const RUNS: usize = 500;

/// The paper's fusion configuration for a given GPU.
pub fn eval_config(gpu: &GpuSpec) -> FusionConfig {
    FusionConfig::new(BenefitModel::new(gpu.clone()))
}

/// Evaluates one app on one GPU under one schedule.
pub fn evaluate_cell(app: &App, gpu: &GpuSpec, schedule: Schedule, runs: usize) -> Cell {
    let pipeline = (app.build_paper)();
    let cfg = eval_config(gpu);
    let compiled = compile(&pipeline, schedule, &cfg);
    let model = TimingModel::new(gpu.clone());
    let timing = model.time_pipeline(&compiled);
    // Deterministic seed per cell keeps the harness reproducible.
    let seed = seed_for(app.name, &gpu.name, schedule);
    let stats = RunStats::from_runs(&noisy_runs(timing.total_ms, runs, seed));
    Cell {
        app: app.name.to_string(),
        gpu: gpu.name.clone(),
        schedule,
        kernel_count: compiled.kernels().len(),
        base_ms: timing.total_ms,
        stats,
    }
}

fn seed_for(app: &str, gpu: &str, schedule: Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in app.bytes().chain(gpu.bytes()).chain([schedule as u8]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Evaluates the full matrix: apps × GPUs × schedules.
pub fn evaluate_all(runs: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for gpu in GpuSpec::evaluation_gpus() {
        for app in paper_apps() {
            for schedule in Schedule::ALL {
                cells.push(evaluate_cell(&app, &gpu, schedule, runs));
            }
        }
    }
    cells
}

/// Looks up one cell.
pub fn find<'a>(cells: &'a [Cell], app: &str, gpu: &str, schedule: Schedule) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.app == app && c.gpu == gpu && c.schedule == schedule)
        .expect("cell exists in the evaluated matrix")
}

/// Median-based speedup of `denominator_schedule` over `numerator_schedule`
/// (Table I semantics: "Optimized Fusion over Baseline" =
/// `t(Baseline) / t(Optimized)`).
pub fn speedup(cells: &[Cell], app: &str, gpu: &str, slow: Schedule, fast: Schedule) -> f64 {
    find(cells, app, gpu, slow).stats.median / find(cells, app, gpu, fast).stats.median
}

/// One Table I sub-table: rows = GPUs, columns = apps.
pub fn speedup_table(cells: &[Cell], slow: Schedule, fast: Schedule) -> Vec<(String, Vec<f64>)> {
    GpuSpec::evaluation_gpus()
        .iter()
        .map(|gpu| {
            let row = paper_apps()
                .iter()
                .map(|app| speedup(cells, app.name, &gpu.name, slow, fast))
                .collect();
            (gpu.name.clone(), row)
        })
        .collect()
}

/// Geometric mean of per-GPU speedups (Table II semantics).
pub fn geomean_rows(cells: &[Cell], slow: Schedule, fast: Schedule) -> Vec<f64> {
    let gpus = GpuSpec::evaluation_gpus();
    paper_apps()
        .iter()
        .map(|app| {
            let product: f64 = gpus
                .iter()
                .map(|g| speedup(cells, app.name, &g.name, slow, fast))
                .product();
            product.powf(1.0 / gpus.len() as f64)
        })
        .collect()
}

/// Short GPU label as used in the paper's tables.
pub fn short_gpu_name(name: &str) -> &str {
    if name.contains("745") {
        "GTX745"
    } else if name.contains("680") {
        "GTX680"
    } else {
        "K20c"
    }
}

/// App names in Table I order.
pub fn app_names() -> Vec<&'static str> {
    paper_apps().iter().map(|a| a.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix() -> Vec<Cell> {
        // A reduced-size matrix keeps the test fast while exercising the
        // full machinery (plans differ from paper size only in IS scale,
        // which cancels in every ratio).
        let mut cells = Vec::new();
        for gpu in GpuSpec::evaluation_gpus() {
            for app in paper_apps() {
                for schedule in Schedule::ALL {
                    let pipeline = (app.build_sized)(256, 256);
                    let cfg = eval_config(&gpu);
                    let compiled = compile(&pipeline, schedule, &cfg);
                    let model = TimingModel::new(gpu.clone());
                    let t = model.time_pipeline(&compiled);
                    let stats = RunStats::from_runs(&noisy_runs(t.total_ms, 50, 1));
                    cells.push(Cell {
                        app: app.name.to_string(),
                        gpu: gpu.name.clone(),
                        schedule,
                        kernel_count: compiled.kernels().len(),
                        base_ms: t.total_ms,
                        stats,
                    });
                }
            }
        }
        cells
    }

    #[test]
    fn optimized_never_slower_than_baseline_on_fusable_apps() {
        let cells = small_matrix();
        for gpu in GpuSpec::evaluation_gpus() {
            for app in ["Harris", "Unsharp", "Enhance", "ShiTomasi"] {
                let s = speedup(
                    &cells,
                    app,
                    &gpu.name,
                    Schedule::Baseline,
                    Schedule::Optimized,
                );
                assert!(s >= 0.99, "{app} on {}: speedup {s}", gpu.name);
            }
        }
    }

    #[test]
    fn basic_fails_on_sobel_and_unsharp() {
        let cells = small_matrix();
        for gpu in GpuSpec::evaluation_gpus() {
            for app in ["Sobel", "Unsharp"] {
                let c = find(&cells, app, &gpu.name, Schedule::Basic);
                let b = find(&cells, app, &gpu.name, Schedule::Baseline);
                assert_eq!(
                    c.kernel_count, b.kernel_count,
                    "{app} must not fuse basically"
                );
            }
        }
    }

    #[test]
    fn speedup_uses_medians() {
        let cells = small_matrix();
        let s = speedup(
            &cells,
            "Harris",
            "GeForce GTX 680",
            Schedule::Baseline,
            Schedule::Optimized,
        );
        let manual = find(&cells, "Harris", "GeForce GTX 680", Schedule::Baseline)
            .stats
            .median
            / find(&cells, "Harris", "GeForce GTX 680", Schedule::Optimized)
                .stats
                .median;
        assert_eq!(s, manual);
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let cells = small_matrix();
        let rows = geomean_rows(&cells, Schedule::Baseline, Schedule::Optimized);
        for (i, app) in app_names().iter().enumerate() {
            let per_gpu: Vec<f64> = GpuSpec::evaluation_gpus()
                .iter()
                .map(|g| {
                    speedup(
                        &cells,
                        app,
                        &g.name,
                        Schedule::Baseline,
                        Schedule::Optimized,
                    )
                })
                .collect();
            let lo = per_gpu.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = per_gpu.iter().copied().fold(0.0, f64::max);
            assert!(rows[i] >= lo - 1e-9 && rows[i] <= hi + 1e-9);
        }
    }

    #[test]
    fn short_names() {
        assert_eq!(short_gpu_name("GeForce GTX 745"), "GTX745");
        assert_eq!(short_gpu_name("GeForce GTX 680"), "GTX680");
        assert_eq!(short_gpu_name("Tesla K20c"), "K20c");
    }
}
