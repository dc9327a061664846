//! The four workloads: what each sets up, how its callers issue one op,
//! and how every output is checked. Why each is here is in README.md.

use crate::api::{self, Conn, ExecCfg, Item, Plan, Rt, Session, Srv, StreamItem};
use crate::load::{timed, Caller, Timed, BASE, OPT};
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ExecLarge,
    ServeSmall,
    PlanCold,
    StreamTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ExecLarge,
        Workload::ServeSmall,
        Workload::PlanCold,
        Workload::StreamTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExecLarge => "exec_large",
            Workload::ServeSmall => "serve_small",
            Workload::PlanCold => "plan_cold",
            Workload::StreamTcp => "stream_tcp",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What the harness builds once per run, before any set-up: the ops'
/// inputs from the seed and, from the independent reference, the hash each
/// op's output must have. None of this is the system's own set-up, so it is
/// outside `setup_s`.
pub struct Inputs {
    workload: Workload,
    smoke: bool,
    /// The ops as stateless items. On `plan_cold` the callers cycle through
    /// all of them and the ledger probes the first [`COLD_LEDGER_ITEMS`].
    items: Arc<Vec<Item>>,
    expected: Arc<Vec<u64>>,
    /// `plan_cold`: other pipelines for the untimed pass, with their hashes.
    warm: Vec<(Item, u64)>,
    /// The ops as streams: `stream_tcp`'s own, or depth-0 wrappers.
    streams: Arc<Vec<StreamItem>>,
}

/// A workload after set-up: callers ready to be driven.
pub struct Prepared {
    pub callers: Vec<Box<dyn Caller>>,
    /// Passes over the classes per round, `[optimized, baseline]`.
    pub reps: [usize; 2],
    /// Highest percentile `op_tail_us` may use on this workload. Fixed per
    /// workload, so a faster build reports the same statistic.
    pub tail_cap: f64,
    pub class_names: Vec<String>,
    server: Option<Srv>,
    runtime: Option<Arc<Rt>>,
}

impl Prepared {
    /// End-of-run verification and teardown; returns ops whose output was
    /// wrong. Every thread the set-up started has ended when this returns.
    pub fn finish(self) -> Result<u64, String> {
        let mut mismatched = 0;
        for caller in self.callers {
            mismatched += caller.finish()?;
        }
        if let Some(server) = self.server {
            server.shutdown();
        }
        Ok(mismatched)
    }

    /// Plan-cache counters of the runtime the ops go through (zeros when
    /// the workload has no runtime in its path).
    pub fn cache_stats(&self) -> api::CacheStats {
        match (&self.server, &self.runtime) {
            (Some(s), _) => s.cache_stats(),
            (_, Some(rt)) => rt.cache_stats(),
            _ => api::CacheStats::default(),
        }
    }
}

/// Caller threads (and connections) a serving workload uses: never more
/// than the cores the host has, and no more than two.
fn caller_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Items the ledger probes on `plan_cold`.
const COLD_LEDGER_ITEMS: usize = 256;
/// Frames in each app's input cycle, and warm-up frames per session.
const STREAM_CYCLE: usize = 8;

impl Inputs {
    pub fn build(workload: Workload, seed: u64, smoke: bool) -> Result<Inputs, String> {
        let mut warm = Vec::new();
        let (items, expected, streams) = match workload {
            Workload::ExecLarge => {
                let (items, expected) = exec_large_inputs(seed, smoke)?;
                let streams = streams_of(&items)?;
                (items, expected, streams)
            }
            Workload::ServeSmall => {
                let items = api::paper_items(32, seed);
                let (expected, streams) = (reference_hashes(&items)?, streams_of(&items)?);
                (items, expected, streams)
            }
            Workload::PlanCold => {
                // 2048 distinct pipelines against a 32-entry plan cache:
                // every request is a miss, an insert and an eviction.
                let (count, others) = if smoke { (128, 32) } else { (2048, 256) };
                let items = api::random_items(seed, 0, count);
                let others = api::random_items(seed, 1, others);
                let hashes = reference_hashes(&others)?;
                warm = others.into_iter().zip(hashes).collect();
                let streams = streams_of(&items[..COLD_LEDGER_ITEMS.min(count)])?;
                let expected = reference_hashes(&items)?;
                (items, expected, streams)
            }
            Workload::StreamTcp => {
                let streams = stream_tcp_inputs(seed, smoke)?;
                let items = streams.iter().map(|s| s.as_item(seed)).collect();
                (items, Vec::new(), streams)
            }
        };
        Ok(Inputs {
            workload,
            smoke,
            items: Arc::new(items),
            expected: Arc::new(expected),
            warm,
            streams: Arc::new(streams),
        })
    }

    /// The system's own set-up: compile, bind, register, open, warm up.
    pub fn prepare(&self) -> Result<Prepared, String> {
        match self.workload {
            Workload::ExecLarge => self.exec_large(),
            Workload::ServeSmall => self.serve_small(),
            Workload::PlanCold => self.plan_cold(),
            Workload::StreamTcp => self.stream_tcp(),
        }
    }

    /// The stateless items the ledger probes.
    pub fn ledger_items(&self) -> &[Item] {
        &self.items[..self.streams.len()]
    }

    /// The same ops as streams, for the session path.
    pub fn ledger_streams(&self) -> &[StreamItem] {
        &self.streams
    }
}

fn names(items: &[Item]) -> Vec<String> {
    items.iter().map(|i| i.name.clone()).collect()
}

fn streams_of(items: &[Item]) -> Result<Vec<StreamItem>, String> {
    items.iter().map(Item::as_stream).collect()
}

/// Both plans of an item, `[optimized, baseline]`.
fn plans_of(item: &Item) -> Result<[Plan; 2], String> {
    Ok([
        Plan::compile(&api::fuse(&item.pipeline, api::SCHEDULES[OPT]))?,
        Plan::compile(&api::fuse(&item.pipeline, api::SCHEDULES[BASE]))?,
    ])
}

fn run_plan(plan: &Plan, item: &Item, cfg: &ExecCfg) -> Result<u64, String> {
    let mut exec = plan.execute(&item.inputs, cfg)?;
    Ok(api::hash_images(&api::take_outputs(
        &mut exec,
        &item.pipeline,
    )))
}

fn reference_hashes(items: &[Item]) -> Result<Vec<u64>, String> {
    items
        .iter()
        .map(|i| Ok(api::hash_images(&api::reference(&i.pipeline, &i.inputs)?)))
        .collect()
}

// ------------------------------------------------------------ exec_large

struct ExecCaller {
    items: Arc<Vec<Item>>,
    plans: Vec<[Plan; 2]>,
    expected: Arc<Vec<u64>>,
    cfg: ExecCfg,
    mismatched: u64,
}

impl Caller for ExecCaller {
    fn classes(&self) -> usize {
        self.items.len()
    }

    fn call(&mut self, class: usize, sched: usize) -> Result<Timed, String> {
        let item = &self.items[class];
        let (exec, t) = timed(|| self.plans[class][sched].execute(&item.inputs, &self.cfg));
        let out = api::take_outputs(&mut exec?, &item.pipeline);
        self.mismatched += u64::from(api::hash_images(&out) != self.expected[class]);
        Ok(t)
    }

    fn finish(self: Box<Self>) -> Result<u64, String> {
        Ok(self.mismatched)
    }
}

/// The six apps at paper size and the hash of each one's output. The
/// interpreter would need tens of seconds at 2048², so the chain has two
/// links: at 1/8 edge both plans must equal the interpreter, and at full
/// size every output must equal the unfused baseline plan's.
fn exec_large_inputs(seed: u64, smoke: bool) -> Result<(Vec<Item>, Vec<u64>), String> {
    let div = if smoke { 8 } else { 1 };
    let cfg = api::exec_cfg(1);
    for small in api::paper_items(div * 8, seed) {
        let want = api::hash_images(&api::reference(&small.pipeline, &small.inputs)?);
        for plan in plans_of(&small)? {
            if run_plan(&plan, &small, &cfg)? != want {
                return Err(format!("{}: plan differs from the reference", small.name));
            }
        }
    }
    let items = api::paper_items(div, seed);
    let expected = items
        .iter()
        .map(|item| run_plan(&plans_of(item)?[BASE], item, &cfg))
        .collect::<Result<_, _>>()?;
    Ok((items, expected))
}

impl Inputs {
    fn exec_large(&self) -> Result<Prepared, String> {
        let mut caller = ExecCaller {
            items: Arc::clone(&self.items),
            plans: self.items.iter().map(plans_of).collect::<Result<_, _>>()?,
            expected: Arc::clone(&self.expected),
            cfg: api::exec_cfg(1),
            mismatched: 0,
        };
        // One untimed round, which also shows optimized == baseline.
        for class in 0..self.items.len() {
            for sched in [OPT, BASE] {
                caller.call(class, sched)?;
            }
        }
        if caller.mismatched > 0 {
            return Err("a plan's output differs from the baseline".into());
        }
        Ok(Prepared {
            callers: vec![Box::new(caller)],
            reps: [1, 1],
            // A dozen executes per app and run: no tail to speak of.
            tail_cap: 0.50,
            class_names: names(&self.items),
            server: None,
            runtime: None,
        })
    }
}

// ----------------------------------------------------------- serve_small

struct ServeCaller {
    conn: Conn,
    items: Arc<Vec<Item>>,
    expected: Arc<Vec<u64>>,
    mismatched: u64,
}

impl Caller for ServeCaller {
    fn classes(&self) -> usize {
        self.items.len()
    }

    fn call(&mut self, class: usize, sched: usize) -> Result<Timed, String> {
        let item = &self.items[class];
        let inputs = item.inputs.clone();
        let (out, t) = timed(|| self.conn.call(&item.name, inputs, api::SCHEDULES[sched]));
        self.mismatched += u64::from(api::hash_images(&out?) != self.expected[class]);
        Ok(t)
    }

    fn finish(self: Box<Self>) -> Result<u64, String> {
        Ok(self.mismatched)
    }
}

impl Inputs {
    fn serve_small(&self) -> Result<Prepared, String> {
        let server = Srv::bind(true)?;
        let mut callers: Vec<Box<dyn Caller>> = Vec::new();
        for _ in 0..caller_count() {
            let mut conn = Conn::connect(server.addr())?;
            for item in self.items.iter() {
                conn.register(&item.name, &item.pipeline)?;
            }
            let mut caller = ServeCaller {
                conn,
                items: Arc::clone(&self.items),
                expected: Arc::clone(&self.expected),
                mismatched: 0,
            };
            // Fills the plan cache under both schedules and settles the
            // connection's threads before the clock starts.
            for (sched, calls) in [(OPT, 50), (BASE, 10)] {
                for _ in 0..if self.smoke { 2 } else { calls } {
                    for class in 0..self.items.len() {
                        caller.call(class, sched)?;
                    }
                }
            }
            if caller.mismatched > 0 {
                return Err("a warm-up reply differs from the reference".into());
            }
            callers.push(Box::new(caller));
        }
        Ok(Prepared {
            callers,
            reps: [8, 2],
            tail_cap: 0.99,
            class_names: names(&self.items),
            server: Some(server),
            runtime: None,
        })
    }
}

// ------------------------------------------------------------- plan_cold

struct ColdCaller {
    rt: Arc<Rt>,
    items: Arc<Vec<Item>>,
    expected: Arc<Vec<u64>>,
    /// Next item under each schedule. Each schedule cycles through all the
    /// items, so an item's plan was evicted long before its next visit.
    cursor: [usize; 2],
    last: u32,
    mismatched: u64,
}

impl Caller for ColdCaller {
    fn classes(&self) -> usize {
        1
    }

    fn call(&mut self, _class: usize, sched: usize) -> Result<Timed, String> {
        let at = self.cursor[sched];
        self.cursor[sched] = (at + 1) % self.items.len();
        self.last = at as u32;
        let item = &self.items[at];
        let inputs = item.inputs.clone();
        let rt = &self.rt;
        let (exec, t) = timed(|| rt.execute("cold", &item.pipeline, inputs, api::SCHEDULES[sched]));
        let out = api::take_outputs(&mut exec?, &item.pipeline);
        self.mismatched += u64::from(api::hash_images(&out) != self.expected[at]);
        Ok(t)
    }

    fn last_item(&self, _class: usize) -> u32 {
        self.last
    }

    fn finish(self: Box<Self>) -> Result<u64, String> {
        Ok(self.mismatched)
    }
}

impl Inputs {
    fn plan_cold(&self) -> Result<Prepared, String> {
        let rt = Arc::new(Rt::new(1));
        // One untimed pass over other pipelines fills the cache and starts
        // the eviction cycle.
        for (item, want) in &self.warm {
            for sched in api::SCHEDULES {
                let mut exec = rt.execute("cold", &item.pipeline, item.inputs.clone(), sched)?;
                if api::hash_images(&api::take_outputs(&mut exec, &item.pipeline)) != *want {
                    return Err(format!(
                        "{}: warm-up output differs from the reference",
                        item.name
                    ));
                }
            }
        }
        Ok(Prepared {
            callers: vec![Box::new(ColdCaller {
                rt: Arc::clone(&rt),
                items: Arc::clone(&self.items),
                expected: Arc::clone(&self.expected),
                cursor: [0, 0],
                last: 0,
                mismatched: 0,
            })],
            reps: [64, 16],
            tail_cap: 0.99,
            class_names: vec!["random".into()],
            server: None,
            runtime: Some(rt),
        })
    }
}

// ------------------------------------------------------------ stream_tcp

struct StreamCaller {
    conn: Conn,
    streams: Arc<Vec<StreamItem>>,
    /// Per app, the session opened under each schedule.
    sessions: Vec<[u64; 2]>,
    /// Per app and schedule, the hash of every frame's outputs in order.
    hashes: Vec<[Vec<u64>; 2]>,
}

impl Caller for StreamCaller {
    fn classes(&self) -> usize {
        self.streams.len()
    }

    fn call(&mut self, class: usize, sched: usize) -> Result<Timed, String> {
        let frames = &self.streams[class].frames;
        let seen = &mut self.hashes[class][sched];
        let frame = frames[seen.len() % frames.len()].clone();
        let (out, t) = timed(|| self.conn.step_session(self.sessions[class][sched], frame));
        seen.push(api::hash_images(&out?));
        Ok(t)
    }

    /// Every frame of every session must equal an in-process replay of the
    /// same input sequence (`stream_tcp_inputs` tied that replay to the
    /// reference).
    fn finish(mut self: Box<Self>) -> Result<u64, String> {
        let mut mismatched = 0;
        for (class, item) in self.streams.iter().enumerate() {
            let seen = &self.hashes[class];
            let mut replay = Session::new(&item.stream, api::SCHEDULES[OPT])?;
            for f in 0..seen[OPT].len().max(seen[BASE].len()) {
                let frame = item.frames[f % item.frames.len()].clone();
                let want = api::hash_images(&replay.step(frame)?);
                mismatched += seen
                    .iter()
                    .filter(|s| s.get(f).is_some_and(|&h| h != want))
                    .count() as u64;
            }
            for sched in [OPT, BASE] {
                self.conn.close_session(self.sessions[class][sched])?;
            }
        }
        Ok(mismatched)
    }
}

/// The three temporal apps at 512² with their frame cycles. First, at 1/8
/// edge, 16 frames of an in-process session under each schedule must equal
/// the streaming reference frame for frame; the full-size frames are then
/// held to an in-process replay (see [`StreamCaller::finish`]).
fn stream_tcp_inputs(seed: u64, smoke: bool) -> Result<Vec<StreamItem>, String> {
    let edge = if smoke { 64 } else { 512 };
    for small in api::temporal_items(edge / 8, seed, 2 * STREAM_CYCLE) {
        let want = api::stream_reference(&small.stream, &small.frames)?;
        for sched in api::SCHEDULES {
            let mut session = Session::new(&small.stream, sched)?;
            for (f, frame) in small.frames.iter().enumerate() {
                if api::hash_images(&session.step(frame.clone())?) != api::hash_images(&want[f]) {
                    return Err(format!(
                        "{}: frame {f} differs from the reference",
                        small.name
                    ));
                }
            }
        }
    }
    Ok(api::temporal_items(edge, seed, STREAM_CYCLE))
}

impl Inputs {
    fn stream_tcp(&self) -> Result<Prepared, String> {
        let server = Srv::bind(true)?;
        let mut conn = Conn::connect(server.addr())?;
        let mut sessions = Vec::new();
        for item in self.streams.iter() {
            let mut pair = [0u64; 2];
            for sched in [OPT, BASE] {
                pair[sched] = conn.open_session(&item.name, &item.stream, api::SCHEDULES[sched])?;
            }
            sessions.push(pair);
        }
        let mut caller = StreamCaller {
            conn,
            hashes: self
                .streams
                .iter()
                .map(|_| [Vec::new(), Vec::new()])
                .collect(),
            streams: Arc::clone(&self.streams),
            sessions,
        };
        for _ in 0..STREAM_CYCLE {
            for class in 0..self.streams.len() {
                for sched in [OPT, BASE] {
                    caller.call(class, sched)?;
                }
            }
        }
        Ok(Prepared {
            callers: vec![Box::new(caller)],
            reps: [16, 4],
            // A run sees about a thousand frames: p90 is safely inside the
            // percentile rule, p99 would sit on its edge.
            tail_cap: 0.90,
            class_names: names(&self.items),
            server: Some(server),
            runtime: None,
        })
    }
}
