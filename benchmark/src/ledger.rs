//! The per-layer ledger: every layer's public call timed from outside, on
//! the workload's own inputs, by a single caller with nothing else running.
//!
//! The probes are the same op entered at successively deeper layers —
//! `Conn::call` ⊃ `Rt::execute` ⊃ {`fingerprint`, `fuse`, `Plan::compile`,
//! `Plan::execute`} and `Conn::step_session` ⊃ `Session::step` ⊃
//! `Plan::execute` — run one after the other, not nested in time. A layer's
//! self time is its probe minus the probe of the layer below it.

use crate::api::{self, Conn, Images, Item, Plan, Rt, Session, Srv};
use crate::load::{timed, Timed, OPT};
use crate::stats;
use crate::trace::Trace;
use crate::workloads::{Inputs, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed passes per probe, at most.
const MAX_PASSES: usize = 15;
/// Probe kinds the budget is split over.
const PROBES: u32 = 12;

struct Prober<'a> {
    trace: &'a mut Trace,
    root: u32,
    per_probe: Duration,
}

impl Prober<'_> {
    /// Passes over the items in order, as the closed loop visits its
    /// classes, one call per item. The first pass is untimed; timed passes
    /// follow until `max_passes` or the probe's budget is spent, at least
    /// one. Returns every item's median in µs.
    fn medians(
        &mut self,
        name: &'static str,
        items: usize,
        max_passes: usize,
        mut f: impl FnMut(usize) -> Result<Timed, String>,
    ) -> Result<Vec<f64>, String> {
        let span = self.trace.open(name, Some(self.root));
        let begin = Instant::now();
        let mut samples = vec![Vec::new(); items];
        for pass in 0..=max_passes {
            for (i, us) in samples.iter_mut().enumerate() {
                let t = f(i)?;
                if pass > 0 {
                    self.trace.call(name, i as u32, Some(span), t.start, t.dur);
                    us.push(t.us());
                }
            }
            if pass > 0 && begin.elapsed() >= self.per_probe {
                break;
            }
        }
        self.trace.close(span);
        Ok(samples.iter().map(|us| stats::median(us)).collect())
    }
}

fn rt_execute(rt: &Rt, item: &Item) -> Result<Timed, String> {
    let inputs = item.inputs.clone();
    let (exec, t) = timed(|| rt.execute("probe", &item.pipeline, inputs, api::SCHEDULES[OPT]));
    exec?;
    Ok(t)
}

fn conn_call(conn: &mut Conn, item: &Item) -> Result<Timed, String> {
    let inputs = item.inputs.clone();
    let (out, t) = timed(|| conn.call(&item.name, inputs, api::SCHEDULES[OPT]));
    out?;
    Ok(t)
}

fn plan_execute(plan: &Plan, inputs: &Images, cfg: &api::ExecCfg) -> Result<Timed, String> {
    let (exec, t) = timed(|| plan.execute(inputs, cfg));
    exec?;
    Ok(t)
}

/// The frame a session on `frames` takes after `sent` frames.
fn next_frame(frames: &[Images], sent: &mut usize) -> Images {
    *sent += 1;
    frames[(*sent - 1) % frames.len()].clone()
}

fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// Difference of the arithmetic means: a derived time, negative when the
/// inner probe is the slower one.
fn mean_diff(a: &[f64], b: &[f64]) -> f64 {
    (sum(a) - sum(b)) / a.len() as f64
}

/// Probes every layer with the workload's inputs for about `budget` and
/// returns the per-layer metrics. `e2e_us[i]` is item `i`'s median
/// end-to-end latency under load: the denominator of the shares.
pub fn run(
    w: Workload,
    inputs: &Inputs,
    e2e_us: &[f64],
    memcpy_gb_s: f64,
    budget: Duration,
    seed: u64,
    trace: &mut Trace,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let items = inputs.ledger_items();
    let streams = inputs.ledger_streams();
    let n = items.len();
    let root = trace.open("ledger", None);
    let mut p = Prober {
        trace,
        root,
        per_probe: budget / PROBES,
    };
    let (one, two) = (api::exec_cfg(1), api::exec_cfg(2));

    // kfuse-ir, kfuse-core, kfuse-sim: the pieces of a cold request.
    let fused: Vec<api::Pipeline> = items
        .iter()
        .map(|i| api::fuse(&i.pipeline, api::SCHEDULES[OPT]))
        .collect();
    let plans: Vec<Plan> = fused.iter().map(Plan::compile).collect::<Result<_, _>>()?;
    let unfused: Vec<Plan> = items
        .iter()
        .map(|i| Plan::compile(&i.pipeline))
        .collect::<Result<_, _>>()?;
    let fp = p.medians("ir.fingerprint", n, MAX_PASSES, |i| {
        Ok(timed(|| black_box(api::fingerprint(&items[i].pipeline))).1)
    })?;
    let fuse = p.medians("core.fuse", n, MAX_PASSES, |i| {
        Ok(timed(|| black_box(api::fuse(&items[i].pipeline, api::SCHEDULES[OPT]))).1)
    })?;
    let lower = p.medians("sim.lower", n, MAX_PASSES, |i| {
        let (plan, t) = timed(|| Plan::compile(&fused[i]));
        plan?;
        Ok(t)
    })?;
    let exec = p.medians("sim.exec", n, MAX_PASSES, |i| {
        plan_execute(&plans[i], &items[i].inputs, &one)
    })?;
    let exec_mt2 = p.medians("sim.exec_mt2", n, MAX_PASSES, |i| {
        plan_execute(&plans[i], &items[i].inputs, &two)
    })?;
    let exec_base = p.medians("sim.exec_baseline", n, MAX_PASSES, |i| {
        plan_execute(&unfused[i], &items[i].inputs, &one)
    })?;

    // kfuse-runtime: a plan-cache hit (in a cache large enough to keep
    // every item's plan), then a steady-state miss: before each pass, one
    // more distinct pipeline than the default cache holds goes through.
    let entries = api::plan_cache_entries();
    let rt = Rt::with_cache(1, entries.max(n + 2));
    let rt_warm = p.medians("runtime.execute", n, MAX_PASSES, |i| {
        rt_execute(&rt, &items[i])
    })?;
    let cold_rt = Rt::new(1);
    let fillers = api::random_items(seed, 2, entries + 1);
    let rt_cold = p.medians("runtime.execute_cold", n, MAX_PASSES, |i| {
        if i == 0 {
            for filler in &fillers {
                rt_execute(&cold_rt, filler)?;
            }
        }
        rt_execute(&cold_rt, &items[i])
    })?;

    // kfuse-net and kfuse-obs: the same request over loopback. Items
    // n..2n are the first n again on a server without the flight recorder,
    // so recorder-on and recorder-off passes alternate.
    let servers = [Srv::bind(true)?, Srv::bind(false)?];
    let mut conns = [
        Conn::connect(servers[0].addr())?,
        Conn::connect(servers[1].addr())?,
    ];
    for item in items {
        for conn in &mut conns {
            conn.register(&item.name, &item.pipeline)?;
        }
    }
    let both = p.medians("net.rtt", 2 * n, MAX_PASSES, |i| {
        conn_call(&mut conns[i / n], &items[i % n])
    })?;
    let (rtt, rtt_norec) = both.split_at(n);
    let [on, _] = &mut conns;
    // Wire bytes of one call per item: a count, the same on every run.
    let bytes0 = servers[0].wire_bytes();
    for item in items {
        conn_call(on, item)?;
    }
    let bytes_per_op = (servers[0].wire_bytes() - bytes0) as f64 / n as f64;
    let ping = p.medians("net.ping", 1, 2000, |_| {
        let (pong, t) = timed(|| on.ping());
        pong?;
        Ok(t)
    })?;

    // Cost per byte: a copy pipeline at two sizes, over the wire and in
    // process; the slope of the difference is the wire's cost per MiB moved.
    let copies = [api::copy_item(64, seed), api::copy_item(512, seed)];
    for c in &copies {
        on.register(&c.name, &c.pipeline)?;
    }
    let copy_rtt = p.medians("net.copy_rtt", 2, MAX_PASSES, |i| conn_call(on, &copies[i]))?;
    let copy_rt = p.medians("runtime.copy", 2, MAX_PASSES, |i| {
        rt_execute(&rt, &copies[i])
    })?;
    let mib = |edge: f64| 2.0 * 4.0 * edge * edge / (1u64 << 20) as f64;
    let per_mib =
        ((copy_rtt[1] - copy_rt[1]) - (copy_rtt[0] - copy_rt[0])) / (mib(512.0) - mib(64.0));

    // kfuse-stream: the session path, in process and over the wire, every
    // item's session open at once and warmed through its frame cycle.
    let mut local = Vec::new();
    for s in streams {
        let mut session = Session::new(&s.stream, api::SCHEDULES[OPT])?;
        let mut sent = 0;
        for _ in 0..s.frames.len() {
            session.step(next_frame(&s.frames, &mut sent))?;
        }
        local.push((session, sent));
    }
    let step = p.medians("stream.step", n, MAX_PASSES, |i| {
        let (session, sent) = &mut local[i];
        let frame = next_frame(&streams[i].frames, sent);
        let (out, t) = timed(|| session.step(frame));
        out?;
        Ok(t)
    })?;
    drop(local);
    let mut remote = Vec::new();
    let mut frame_bytes = 0;
    for s in streams {
        let id = on.open_session(&s.name, &s.stream, api::SCHEDULES[OPT])?;
        let mut sent = 0;
        for _ in 0..s.frames.len() {
            on.step_session(id, next_frame(&s.frames, &mut sent))?;
        }
        // Wire bytes of one frame per item: a count, as above.
        let bytes0 = servers[0].wire_bytes();
        on.step_session(id, next_frame(&s.frames, &mut sent))?;
        frame_bytes += servers[0].wire_bytes() - bytes0;
        remote.push((id, sent));
    }
    let frame_rtt = p.medians("net.frame_rtt", n, MAX_PASSES, |i| {
        let (id, sent) = &mut remote[i];
        let frame = next_frame(&streams[i].frames, sent);
        let (out, t) = timed(|| on.step_session(*id, frame));
        out?;
        Ok(t)
    })?;
    for (id, _) in remote {
        on.close_session(id)?;
    }
    drop(conns);
    for server in servers {
        server.shutdown();
    }
    let root_span = p.root;
    p.trace.close(root_span);

    // Where an end-to-end op's time goes: the path the workload's op takes,
    // outermost layer first, each with the probe time (summed over the
    // items) of that layer and everything below it. Siblings under the
    // runtime are chained by cumulative sums, so one subtraction per step
    // gives each layer its own time. A layer cannot account for more than
    // the one above it. What the unloaded probes do not explain of the op
    // under load is unattributed.
    let fp_s = sum(&fp);
    let lower_exec_s = sum(&lower) + sum(&exec);
    let path: Vec<(&'static str, f64)> = match w {
        Workload::ExecLarge => vec![("share.sim", sum(&exec))],
        Workload::ServeSmall => vec![
            ("share.net", sum(rtt)),
            ("share.runtime", sum(&rt_warm)),
            ("share.sim", sum(&exec) + fp_s),
            ("share.ir", fp_s),
        ],
        Workload::PlanCold => vec![
            ("share.runtime", sum(&rt_cold)),
            ("share.core", sum(&fuse) + lower_exec_s + fp_s),
            ("share.sim", lower_exec_s + fp_s),
            ("share.ir", fp_s),
        ],
        // The runtime's session path has no in-process entry on the frozen
        // surface, so its time is inside `net` here. `Plan::execute` on the
        // frame pipeline clones inputs a session moves and takes fresh
        // scratch, so it can exceed the step it stands for.
        Workload::StreamTcp => vec![
            ("share.net", sum(&frame_rtt)),
            ("share.stream", sum(&step)),
            ("share.sim", sum(&exec)),
        ],
    };
    let total = sum(e2e_us);
    let mut m = BTreeMap::new();
    for name in [
        "share.ir",
        "share.core",
        "share.sim",
        "share.runtime",
        "share.net",
        "share.stream",
    ] {
        m.insert(name, 0.0);
    }
    let mut inclusive = path[0].1;
    for (k, &(name, _)) in path.iter().enumerate() {
        let below = path.get(k + 1).map_or(0.0, |next| next.1.min(inclusive));
        m.insert(name, (inclusive - below) / total);
        inclusive = below;
    }
    m.insert("share.unattributed", 1.0 - path[0].1 / total);

    let kernels_after: usize = fused.iter().map(api::kernel_count).sum();
    let kernels_before: usize = items.iter().map(|i| api::kernel_count(&i.pipeline)).sum();
    let roofline: Vec<f64> = (0..n)
        .map(|i| {
            api::computed_bytes(&fused[i]) as f64 / (exec[i] * 1e-6) / (2.0 * memcpy_gb_s * 1e9)
        })
        .collect();
    let mt2: Vec<f64> = exec.iter().zip(&exec_mt2).map(|(a, b)| a / b).collect();

    // A measured time is the geometric mean over the items of the item's
    // median; a derived time is a difference of arithmetic means.
    m.insert("ir.fingerprint_us", stats::geomean(&fp));
    m.insert("core.fuse_us", stats::geomean(&fuse));
    m.insert(
        "core.fused_kernel_ratio",
        kernels_after as f64 / kernels_before as f64,
    );
    m.insert("sim.lower_us", stats::geomean(&lower));
    m.insert("sim.exec_us", stats::geomean(&exec));
    m.insert("sim.exec_baseline_us", stats::geomean(&exec_base));
    m.insert("sim.mt2_scaling", stats::geomean(&mt2));
    m.insert("sim.roofline_frac", stats::geomean(&roofline));
    m.insert("runtime.execute_us", stats::geomean(&rt_warm));
    m.insert("runtime.execute_cold_us", stats::geomean(&rt_cold));
    m.insert(
        "runtime.overhead_us",
        mean_diff(&rt_warm, &exec) - stats::mean(&fp),
    );
    m.insert(
        "runtime.cold_overhead_us",
        mean_diff(&rt_cold, &exec) - stats::mean(&lower) - stats::mean(&fuse) - stats::mean(&fp),
    );
    m.insert("net.rtt_us", stats::geomean(rtt));
    m.insert("net.ping_us", ping[0]);
    m.insert("net.copy_rtt_us.64", copy_rtt[0]);
    m.insert("net.copy_rtt_us.512", copy_rtt[1]);
    m.insert("net.per_mib_us", per_mib);
    // The server's cache has the default capacity: with more items than
    // that, every probed call was a miss behind the wire.
    let behind_wire = if n <= entries { &rt_warm } else { &rt_cold };
    m.insert("net.overhead_us", mean_diff(rtt, behind_wire));
    m.insert("net.bytes_per_op", bytes_per_op);
    m.insert("net.frame_rtt_us", stats::geomean(&frame_rtt));
    m.insert("net.bytes_per_frame", frame_bytes as f64 / n as f64);
    m.insert("stream.step_us", stats::geomean(&step));
    m.insert("stream.overhead_us", mean_diff(&step, &exec));
    m.insert(
        "obs.recorder_overhead_pct",
        100.0 * (sum(rtt) / sum(rtt_norec) - 1.0),
    );
    Ok(m)
}
