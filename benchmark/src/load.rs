//! The closed loop: callers that block on one op at a time, driven in
//! rounds until the time budget is spent, and the end-to-end metrics
//! computed from their latency samples, each scaled to the reference
//! clock by the readings its thread took around it (see `clock.rs`).

use crate::clock;
use crate::stats;
use crate::trace::Span;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Names of the end-to-end spans, by schedule.
const SPAN_NAMES: [&str; 2] = ["e2e.optimized", "e2e.baseline"];

/// Index of the schedule an op runs under: the fused plan the user asked
/// for, or the unfused baseline it is compared against.
pub const OPT: usize = 0;
pub const BASE: usize = 1;

/// When one call into kfuse started and how long it took.
#[derive(Clone, Copy)]
pub struct Timed {
    pub start: Instant,
    pub dur: Duration,
}

impl Timed {
    pub fn us(&self) -> f64 {
        self.dur.as_secs_f64() * 1e6
    }
}

/// Runs `f` under the stopwatch. `f` holds the one kfuse call and nothing
/// else: inputs are built before it, outputs checked and dropped after it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let start = Instant::now();
    let value = f();
    let dur = start.elapsed();
    (value, Timed { start, dur })
}

/// One blocking caller of the system under test. `call` issues one op of
/// the given class (an app) and returns the time of the call into kfuse
/// alone; building the op's inputs before it and checking its outputs
/// after it happen off the clock, inside `call`.
pub trait Caller: Send {
    fn classes(&self) -> usize;
    /// `Err` is a failed op. A wrong output is counted by the caller and
    /// reported by `finish`.
    fn call(&mut self, class: usize, sched: usize) -> Result<Timed, String>;
    /// Which ledger item the last call ran on (the class, unless a class
    /// cycles through many items).
    fn last_item(&self, class: usize) -> u32 {
        class as u32
    }
    /// End-of-run checks and teardown; returns ops with a wrong output.
    fn finish(self: Box<Self>) -> Result<u64, String>;
}

#[derive(Clone, Copy)]
pub struct Sample {
    pub class: u16,
    pub sched: u8,
    pub round: u32,
    pub item: u32,
    /// Seconds from the start of the slice to the start of the op.
    pub at_s: f64,
    /// As measured; [`Log::scaled_us`] is what the metrics are made of.
    pub us: f64,
}

#[derive(Default)]
pub struct Log {
    pub samples: Vec<Sample>,
    /// The caller thread's clock readings, one every [`clock::EVERY`].
    pub clock: clock::Track,
    /// One span per op, recorded in the loop when the slice is traced.
    pub spans: Vec<Span>,
    pub errors: u64,
    pub first_error: Option<String>,
}

impl Log {
    /// The sample's latency at the reference clock.
    pub fn scaled_us(&self, s: &Sample) -> f64 {
        s.us * self.clock.scale(s.at_s, s.at_s + s.us * 1e-6)
    }
}

/// Drives every caller on its own thread for `budget`. A round is
/// `reps[s]` passes over the classes under each schedule `s`, the order
/// of the two schedules alternating per round so drift lands on both.
/// The budget is checked after each round, so at least one round runs.
/// Between ops, off their clocks, each caller thread reads the core clock
/// every [`clock::EVERY`] (half a millisecond in twenty). With `trace`,
/// every op also records a span against that epoch.
pub fn drive(
    callers: &mut [Box<dyn Caller>],
    reps: [usize; 2],
    budget: Duration,
    trace: Option<Instant>,
) -> Vec<Log> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| scope.spawn(move || drive_one(caller.as_mut(), reps, budget, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

fn drive_one(
    caller: &mut dyn Caller,
    reps: [usize; 2],
    budget: Duration,
    trace: Option<Instant>,
) -> Log {
    let mut log = Log::default();
    let begin = Instant::now();
    let mut round = 0usize;
    let mut probed: Option<Instant> = None;
    loop {
        for sched in [[OPT, BASE], [BASE, OPT]][round % 2] {
            for _ in 0..reps[sched] {
                for class in 0..caller.classes() {
                    if probed.is_none_or(|t| t.elapsed() >= clock::EVERY) {
                        log.clock
                            .push(begin.elapsed().as_secs_f64(), clock::probe_ghz());
                        probed = Some(Instant::now());
                    }
                    match caller.call(class, sched) {
                        Ok(t) => {
                            let item = caller.last_item(class);
                            log.samples.push(Sample {
                                class: class as u16,
                                sched: sched as u8,
                                round: round as u32,
                                item,
                                at_s: t.start.duration_since(begin).as_secs_f64(),
                                us: t.us(),
                            });
                            if let Some(epoch) = trace {
                                let start_us = t.start.duration_since(epoch).as_secs_f64() * 1e6;
                                log.spans.push(Span {
                                    name: SPAN_NAMES[sched],
                                    op: item,
                                    parent: None,
                                    start_us,
                                    end_us: start_us + t.us(),
                                });
                            }
                        }
                        Err(e) => {
                            log.errors += 1;
                            log.first_error.get_or_insert(e);
                        }
                    }
                }
            }
        }
        round += 1;
        if begin.elapsed() >= budget {
            // The last ops need a reading after them too.
            log.clock
                .push(begin.elapsed().as_secs_f64(), clock::probe_ghz());
            return log;
        }
    }
}

/// A slice is cut into blocks of whole rounds, a new block starting with
/// the first round that begins this long after the last one did, so every
/// block holds the classes and schedules in the same proportion.
const BLOCK_S: f64 = 1.0;
/// The share of a slice's blocks taken as the host at its quietest: a
/// latency is the median of each block and then the blocks' lower decile,
/// a throughput the upper decile. What the neighbours do to a block only
/// ever slows it, so the quiet end of the blocks is the program's own speed
/// (README.md, "Times are of the quietest tenth of a run").
const QUIET: f64 = 0.1;

/// One class (app) of a slice.
pub struct ClassRow {
    /// Quiet-decile median latency (see [`QUIET`]) under each schedule.
    pub opt_p50_us: f64,
    pub base_p50_us: f64,
    pub opt_samples: usize,
    /// Median over rounds of (median baseline / median optimized within
    /// the round). Pairing inside a round cancels the host's drift.
    pub speedup: f64,
}

/// The end-to-end view of one slice.
pub struct Summary {
    /// Ops completed under the optimized schedule per second of caller
    /// time spent in them, in each caller's quiet decile of blocks, summed
    /// over callers. Like every time here, at the reference clock.
    pub ops_per_s: f64,
    /// Geometric mean over classes of [`ClassRow::opt_p50_us`].
    pub op_p50_us: f64,
    /// Pooled latency at the percentile [`stats::tail_quantile`] allows.
    pub op_tail_us: f64,
    pub tail_q: f64,
    /// Geometric mean over classes of [`ClassRow::speedup`].
    pub fusion_speedup: f64,
    pub classes: Vec<ClassRow>,
    pub opt_samples: usize,
    /// Median, lowest and highest clock reading of the slice, in GHz.
    pub clock_ghz: [f64; 3],
    pub attempted: u64,
    pub errors: u64,
    pub first_error: Option<String>,
}

pub fn summarize(logs: &[Log], classes: usize, tail_cap: f64) -> Result<Summary, String> {
    // Latencies by (class, schedule), by (caller, class, round, schedule)
    // and by (caller, block, class, schedule).
    let mut by_class = vec![[Vec::new(), Vec::new()]; classes];
    let mut by_round: BTreeMap<(usize, u16, u32), [Vec<f64>; 2]> = BTreeMap::new();
    let mut by_block: BTreeMap<(usize, u32), Vec<[Vec<f64>; 2]>> = BTreeMap::new();
    for (caller, log) in logs.iter().enumerate() {
        let mut current = (u32::MAX, 0);
        for s in &log.samples {
            if s.round != current.0 {
                current = (s.round, (s.at_s / BLOCK_S) as u32);
            }
            let us = log.scaled_us(s);
            by_class[s.class as usize][s.sched as usize].push(us);
            by_round.entry((caller, s.class, s.round)).or_default()[s.sched as usize].push(us);
            by_block
                .entry((caller, current.1))
                .or_insert_with(|| vec![Default::default(); classes])[s.class as usize]
                [s.sched as usize]
                .push(us);
        }
    }
    let quiet_p50 = |class: usize, sched: usize| {
        let medians: Vec<f64> = by_block
            .values()
            .map(|block| &block[class][sched])
            .filter(|us| !us.is_empty())
            .map(|us| stats::median(us))
            .collect();
        stats::quantile(&medians, QUIET)
    };
    let mut per_class = Vec::new();
    for (class, [opt, _]) in by_class.iter().enumerate() {
        let speedups: Vec<f64> = by_round
            .iter()
            .filter(|(key, [opt, base])| {
                key.1 as usize == class && !opt.is_empty() && !base.is_empty()
            })
            .map(|(_, [opt, base])| stats::median(base) / stats::median(opt))
            .collect();
        if speedups.is_empty() {
            let why = logs.iter().find_map(|l| l.first_error.clone());
            return Err(format!(
                "class {class} completed no round under both schedules: {}",
                why.unwrap_or_else(|| "no error was reported".into())
            ));
        }
        per_class.push(ClassRow {
            opt_p50_us: quiet_p50(class, OPT),
            base_p50_us: quiet_p50(class, BASE),
            opt_samples: opt.len(),
            speedup: stats::median(&speedups),
        });
    }
    let pooled: Vec<f64> = by_class
        .iter()
        .flat_map(|c| c[OPT].iter().copied())
        .collect();
    let (op_tail_us, tail_q) = stats::tail(&pooled, tail_cap);
    let ops_per_s = (0..logs.len())
        .map(|caller| {
            let per_block: Vec<f64> = by_block
                .range((caller, 0)..=(caller, u32::MAX))
                .map(|(_, block)| {
                    let opt = || block.iter().flat_map(|class| &class[OPT]);
                    opt().count() as f64 / (opt().sum::<f64>() / 1e6)
                })
                .filter(|rate| rate.is_finite())
                .collect();
            // A caller whose every op failed got no throughput.
            if per_block.is_empty() {
                0.0
            } else {
                stats::quantile(&per_block, 1.0 - QUIET)
            }
        })
        .sum();
    let mut ghz: Vec<f64> = logs.iter().flat_map(|l| l.clock.ghz()).collect();
    ghz.sort_by(f64::total_cmp);
    let clock_ghz = match ghz.as_slice() {
        [] => [clock::REF_GHZ; 3],
        [lo, .., hi] => [stats::quantile_sorted(&ghz, 0.5), *lo, *hi],
        [only] => [*only; 3],
    };
    let completed: usize = logs.iter().map(|l| l.samples.len()).sum();
    let errors: u64 = logs.iter().map(|l| l.errors).sum();
    Ok(Summary {
        ops_per_s,
        op_p50_us: stats::geomean(&per_class.iter().map(|c| c.opt_p50_us).collect::<Vec<_>>()),
        op_tail_us,
        tail_q,
        fusion_speedup: stats::geomean(&per_class.iter().map(|c| c.speedup).collect::<Vec<_>>()),
        classes: per_class,
        opt_samples: pooled.len(),
        clock_ghz,
        attempted: completed as u64 + errors,
        errors,
        first_error: logs.iter().find_map(|l| l.first_error.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed {
        calls: u64,
    }

    impl Caller for Fixed {
        fn classes(&self) -> usize {
            2
        }
        fn call(&mut self, class: usize, sched: usize) -> Result<Timed, String> {
            self.calls += 1;
            // Class 1 is 4x class 0; the baseline is 2x the optimized op.
            Ok(Timed {
                start: Instant::now(),
                dur: Duration::from_micros(100 * (1 + 3 * class as u64) * (1 + sched as u64)),
            })
        }
        fn finish(self: Box<Self>) -> Result<u64, String> {
            Ok(0)
        }
    }

    #[test]
    fn summary_follows_the_definitions() {
        let mut callers: Vec<Box<dyn Caller>> = vec![Box::new(Fixed { calls: 0 })];
        // A zero budget still runs one whole round.
        let mut logs = drive(&mut callers, [3, 1], Duration::ZERO, None);
        assert_eq!(logs[0].samples.len(), 2 * (3 + 1));
        assert!(logs[0].clock.ghz().count() >= 2, "a reading before and after");
        // At the reference clock the definitions read as measured; at 1.5x
        // the clock the same times are 1.5x the cycles.
        logs[0].clock = clock::Track::default();
        logs[0].clock.push(0.0, 1.5 * clock::REF_GHZ);
        let fast = summarize(&logs, 2, 0.99).unwrap();
        assert!((fast.op_p50_us - 300.0).abs() < 1e-9);
        assert!((fast.fusion_speedup - 2.0).abs() < 1e-9);
        logs[0].clock = clock::Track::default();
        let s = summarize(&logs, 2, 0.99).unwrap();
        assert!((s.op_p50_us - 200.0).abs() < 1e-9, "geomean of 100 and 400");
        assert!((s.fusion_speedup - 2.0).abs() < 1e-9);
        // 6 optimized ops in 3*(100+400) us of caller time.
        assert!((s.ops_per_s - 4000.0).abs() < 1e-6);
        assert_eq!(s.attempted, 8);
        assert_eq!(s.tail_q, 0.5);
    }

    #[test]
    fn times_are_of_the_quiet_blocks() {
        // Eleven one-round blocks, 1.5 s apart; the host is loud in all but
        // the third and the eighth, where an op takes 100 us instead of 300.
        let mut log = Log::default();
        for round in 0..11u32 {
            let us = if round == 2 || round == 7 { 100.0 } else { 300.0 };
            for (sched, factor) in [(OPT, 1.0), (BASE, 2.0)] {
                for k in 0..4 {
                    log.samples.push(Sample {
                        class: 0,
                        sched: sched as u8,
                        round,
                        item: 0,
                        at_s: 1.5 * f64::from(round) + 0.01 * f64::from(k),
                        us: us * factor,
                    });
                }
            }
        }
        let s = summarize(&[log], 1, 0.99).unwrap();
        // The lower decile of eleven block medians is the second lowest.
        assert!((s.op_p50_us - 100.0).abs() < 1e-9);
        assert!((s.classes[0].base_p50_us - 200.0).abs() < 1e-9);
        assert!((s.ops_per_s - 10_000.0).abs() < 1e-6);
        // The tail is pooled over every op, and the speedup pairs rounds.
        assert!((s.op_tail_us - 300.0).abs() < 1e-9);
        assert!((s.fusion_speedup - 2.0).abs() < 1e-9);
    }
}
