//! What the host can do, measured by the harness itself: the denominators
//! the executor's throughput is read against. No kfuse items here.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Size of the last-level cache sysfs reports for cpu0, in bytes.
pub fn llc_bytes() -> Option<usize> {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level: u32 = std::fs::read_to_string(format!("{dir}/level"))
                .ok()?
                .trim()
                .parse()
                .ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let (digits, scale) = match size.as_bytes().last()? {
                b'K' => (&size[..size.len() - 1], 1 << 10),
                b'M' => (&size[..size.len() - 1], 1 << 20),
                _ => (size, 1),
            };
            Some((level, digits.parse::<usize>().ok()? * scale))
        })
        .max()
        .map(|(_, bytes)| bytes)
}

/// Array size of the copy below: 4x the LLC so no level of cache holds it,
/// capped at 256 MiB so the two arrays stay a small part of the host's
/// memory even where a VM reports a whole socket's L3 as its own.
pub fn memcpy_array_bytes() -> usize {
    const CAP: usize = 256 << 20;
    llc_bytes().map_or(CAP, |llc| (4 * llc).min(CAP))
}

/// Bandwidth of a large `copy_from_slice` in GB/s (bytes copied, so read
/// plus write traffic is twice this): best of five passes after one that
/// takes the page faults.
pub fn memcpy_gb_s() -> f64 {
    let n = memcpy_array_bytes() / 4;
    let src = vec![1.0f32; n];
    let mut dst = vec![0.0f32; n];
    let mut best = f64::INFINITY;
    for pass in 0..6 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        let s = t.elapsed().as_secs_f64();
        if pass > 0 {
            best = best.min(s);
        }
    }
    (n * 4) as f64 / best / 1e9
}

/// One core's f32 multiply-add rate in GFLOP/s (2 flops per mul-add) over
/// 64 independent accumulators, enough to fill the vector pipes; written
/// as separate mul and add, as the executor's tapes are.
pub fn f32_gflop_s() -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 4_000_000;
    let mut acc = [1.0f32; LANES];
    let (a, b) = (black_box(0.999_999f32), black_box(1e-6f32));
    let t = Instant::now();
    for _ in 0..ITERS {
        for x in &mut acc {
            *x = *x * a + b;
        }
    }
    black_box(&acc);
    (2 * LANES * ITERS) as f64 / t.elapsed().as_secs_f64() / 1e9
}
