//! The frozen surface: the only file of the benchmark that names `kfuse_*`
//! items. Every other file goes through the thin wrappers below, so an issue
//! that changes a kfuse API edits this file alone (README.md lists the
//! surface). The wrappers add nothing on the success path — the harness puts
//! its stopwatch around a wrapper call and reads the time of the kfuse call
//! inside it. No `wire::Frame` is built here: the benchmark speaks to the
//! server only through `Client`.

use crate::stats::{fnv1a, FNV_OFFSET};
use kfuse_apps::{paper_apps, temporal_apps};
use kfuse_core::{PlanPolicy, StaticModelPolicy};
use kfuse_dsl::{v, PipelineBuilder};
use kfuse_fuzz::gen::{generate_with, GenConfig};
use kfuse_net::{Client, Server, ServerConfig};
use kfuse_runtime::{Runtime, RuntimeConfig};
use kfuse_sim::{execute_reference, synthetic_image, CompiledPlan, Execution, FastConfig};
use kfuse_stream::{run_reference, StreamPipeline, StreamSession};
use std::net::SocketAddr;
use std::sync::OnceLock;

pub use kfuse_dsl::Schedule;
pub use kfuse_ir::{Image, ImageId, Pipeline};

/// The two schedules every workload runs, indexed by `load::OPT` and
/// `load::BASE`: the paper's min-cut fusion and the unfused baseline.
pub const SCHEDULES: [Schedule; 2] = [Schedule::Optimized, Schedule::Baseline];

/// Images bound to the ids of one pipeline: a request's inputs or outputs.
pub type Images = Vec<(ImageId, Image)>;

/// FNV-1a over ids, shapes and the f32 bit patterns: equal hashes mean
/// bit-identical outputs bound to the same ids.
pub fn hash_images(images: &Images) -> u64 {
    images.iter().fold(FNV_OFFSET, |h, (id, img)| {
        let shape = [id.0, img.width(), img.height(), img.channels()].map(|v| v as u32);
        fnv1a(fnv1a(h, shape), img.data().iter().map(|v| v.to_bits()))
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- inputs

/// A stateless op: one pipeline and the inputs of one request.
#[derive(Clone)]
pub struct Item {
    pub name: String,
    pub pipeline: Pipeline,
    pub inputs: Images,
}

/// A streaming op: one temporal pipeline and a cycle of input frames.
#[derive(Clone)]
pub struct StreamItem {
    pub name: String,
    pub stream: Stream,
    pub frames: Vec<Images>,
}

fn seeded_inputs(p: &Pipeline, ids: &[ImageId], seed: u64) -> Images {
    ids.iter()
        .map(|&id| {
            let img_seed = seed ^ (id.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (id, synthetic_image(p.image(id).clone(), img_seed))
        })
        .collect()
}

impl Item {
    fn new(name: String, pipeline: Pipeline, seed: u64) -> Item {
        let inputs = seeded_inputs(&pipeline, pipeline.inputs(), seed);
        Item {
            name,
            pipeline,
            inputs,
        }
    }

    /// The same op as a depth-0 stream, so the session path can be probed
    /// with a stateless workload's own inputs.
    pub fn as_stream(&self) -> Result<StreamItem, String> {
        Ok(StreamItem {
            name: self.name.clone(),
            stream: Stream(StreamPipeline::new(self.pipeline.clone(), Vec::new()).map_err(err)?),
            frames: vec![self.inputs.clone()],
        })
    }
}

impl StreamItem {
    /// One frame as a stateless op: the per-frame pipeline with its state
    /// taps fed seeded images, so the stateless layers can be probed with a
    /// streaming workload's own pipelines.
    pub fn as_item(&self, seed: u64) -> Item {
        Item::new(self.name.clone(), self.stream.0.frame().clone(), seed)
    }
}

/// The six paper apps with each edge divided by `div` (1 = paper size:
/// 2048², Night 1920×1200), in Table I order, inputs seeded by `seed`.
pub fn paper_items(div: usize, seed: u64) -> Vec<Item> {
    paper_apps()
        .into_iter()
        .map(|app| {
            let (w, h) = if app.name == "Night" {
                (1920 / div, 1200 / div)
            } else {
                (2048 / div, 2048 / div)
            };
            let p = (app.build_sized)(w.max(1), h.max(1));
            Item::new(app.name.to_lowercase(), p, seed)
        })
        .collect()
}

/// `count` distinct random pipelines (up to 24 kernels, images ≤ 32×24)
/// from the generator stream `(seed, lane)`.
pub fn random_items(seed: u64, lane: u64, count: usize) -> Vec<Item> {
    let cfg = GenConfig {
        max_kernels: 24,
        ..GenConfig::default()
    };
    let base = (seed << 32) ^ (lane << 24);
    (base..base + count as u64)
        .map(|s| Item::new(format!("rand{}", s - base), generate_with(s, &cfg), s))
        .collect()
}

/// A one-kernel copy pipeline at `edge`²: what the wire costs per byte
/// when the executor has next to nothing to do.
pub fn copy_item(edge: usize, seed: u64) -> Item {
    let mut b = PipelineBuilder::new(format!("copy{edge}"), edge, edge);
    let input = b.gray_input("in");
    let out = b.point("copy", &[input], vec![v(0)]);
    b.output(out);
    Item::new(format!("copy{edge}"), b.build(), seed)
}

/// The three temporal apps at `edge`², each with a seeded cycle of
/// `cycle` input frames.
pub fn temporal_items(edge: usize, seed: u64, cycle: usize) -> Vec<StreamItem> {
    temporal_apps()
        .into_iter()
        .map(|app| {
            let stream = (app.build_sized)(edge, edge);
            let fresh = stream.fresh_inputs();
            let frames = (0..cycle as u64)
                .map(|f| seeded_inputs(stream.frame(), &fresh, seed.wrapping_mul(1009) + f))
                .collect();
            StreamItem {
                name: app.name.to_lowercase(),
                stream: Stream(stream),
                frames,
            }
        })
        .collect()
}

// ------------------------------------------------- kfuse-ir, core, graph

/// kfuse-ir: the structural hash the plan cache keys on.
pub fn fingerprint(p: &Pipeline) -> u64 {
    p.fingerprint()
}

/// kfuse-core (+graph, model) through `kfuse_dsl::compile` under the
/// paper's static policy: legality, benefit model, min-cut, synthesis.
pub fn fuse(p: &Pipeline, schedule: Schedule) -> Pipeline {
    kfuse_dsl::compile(p, schedule, policy().fusion_config())
}

/// Built once, so `fuse` times planning and not the policy's construction.
fn policy() -> &'static StaticModelPolicy {
    static POLICY: OnceLock<StaticModelPolicy> = OnceLock::new();
    POLICY.get_or_init(StaticModelPolicy::paper_default)
}

pub fn kernel_count(p: &Pipeline) -> usize {
    p.kernels().len()
}

pub fn output_pixels(p: &Pipeline) -> usize {
    p.outputs()
        .iter()
        .map(|&id| p.image(id).width * p.image(id).height)
        .sum()
}

/// Bytes a run of `p` must move if every kernel reads each input plane
/// once and writes its output once (4 B per sample): computed, not measured.
pub fn computed_bytes(p: &Pipeline) -> u64 {
    let samples = |id: ImageId| {
        let d = p.image(id);
        (d.width * d.height * d.channels) as u64
    };
    p.kernels()
        .iter()
        .map(|k| 4 * (k.inputs.iter().map(|&i| samples(i)).sum::<u64>() + samples(k.output)))
        .sum()
}

// -------------------------------------------------------------- kfuse-sim

/// The independent tree-walking interpreter: the oracle for every output.
pub fn reference(p: &Pipeline, inputs: &Images) -> Result<Images, String> {
    let mut exec = execute_reference(p, inputs).map_err(err)?;
    Ok(take_outputs(&mut exec, p))
}

/// Moves the marked outputs out of a finished execution (off the clock).
pub fn take_outputs(exec: &mut Execution, p: &Pipeline) -> Images {
    p.outputs()
        .iter()
        .filter_map(|&id| exec.take_image(id).map(|img| (id, img)))
        .collect()
}

/// Executor configuration with a fixed thread count.
#[derive(Clone, Copy)]
pub struct ExecCfg(FastConfig);

pub fn exec_cfg(threads: usize) -> ExecCfg {
    ExecCfg(FastConfig {
        threads: Some(threads),
        ..FastConfig::default()
    })
}

/// A pipeline lowered to instruction tapes.
pub struct Plan(CompiledPlan);

impl Plan {
    /// kfuse-sim: tape lowering.
    pub fn compile(p: &Pipeline) -> Result<Plan, String> {
        CompiledPlan::compile(p).map(Plan).map_err(err)
    }

    /// kfuse-sim: the tiled executor.
    pub fn execute(&self, inputs: &Images, cfg: &ExecCfg) -> Result<Execution, String> {
        self.0.execute(inputs, &cfg.0).map_err(err)
    }
}

// ---------------------------------------------------------- kfuse-runtime

/// Plan-cache counters summed over tenants.
#[derive(Clone, Copy, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

fn cache_stats(m: &kfuse_runtime::MetricsSnapshot) -> CacheStats {
    CacheStats {
        hits: m.pipelines.iter().map(|p| p.cache_hits).sum(),
        misses: m.pipelines.iter().map(|p| p.cache_misses).sum(),
        evictions: m.runtime.cache_evictions,
    }
}

/// Plans the runtime's cache holds by default.
pub fn plan_cache_entries() -> usize {
    RuntimeConfig::default().plan_cache_capacity
}

/// The in-process serving runtime with `workers` worker threads.
pub struct Rt(Runtime);

impl Rt {
    pub fn new(workers: usize) -> Rt {
        Rt::with_cache(workers, plan_cache_entries())
    }

    /// A runtime whose plan cache holds `entries` plans, for probing what
    /// a hit costs on more pipelines than the default cache keeps.
    pub fn with_cache(workers: usize, entries: usize) -> Rt {
        Rt(Runtime::new(RuntimeConfig {
            workers,
            plan_cache_capacity: entries,
            ..RuntimeConfig::default()
        }))
    }

    /// kfuse-runtime: submit and wait (queue, plan cache, worker, execute).
    pub fn execute(
        &self,
        tenant: &str,
        p: &Pipeline,
        inputs: Images,
        schedule: Schedule,
    ) -> Result<Execution, String> {
        self.0.execute(tenant, p, inputs, schedule).map_err(err)
    }

    pub fn cache_stats(&self) -> CacheStats {
        cache_stats(&self.0.metrics())
    }
}

// -------------------------------------------------------------- kfuse-net

/// The TCP server on an ephemeral loopback port, default configuration
/// (flight recorder on) or the same with the recorder off.
pub struct Srv(Server);

impl Srv {
    pub fn bind(recorder: bool) -> Result<Srv, String> {
        let mut cfg = ServerConfig::default();
        if !recorder {
            cfg.recorder = None;
        }
        Server::bind("127.0.0.1:0", cfg).map(Srv).map_err(err)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Wire bytes received plus sent, read once the counters are at rest:
    /// the server counts a reply after writing it, so a client can hold the
    /// reply before its bytes show. Every frame this harness sends gets
    /// exactly one reply, so at rest `frames_sent >= frames_received`.
    pub fn wire_bytes(&self) -> u64 {
        loop {
            let (a, b) = (self.0.net_metrics(), self.0.net_metrics());
            if a == b && a.frames_sent >= a.frames_received {
                return a.bytes_received + a.bytes_sent;
            }
            std::thread::yield_now();
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        cache_stats(&self.0.runtime_metrics())
    }

    /// Drains and joins every server thread.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// One blocking client connection.
pub struct Conn(Client);

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        Client::connect(addr).map(Conn).map_err(err)
    }

    pub fn register(&mut self, name: &str, p: &Pipeline) -> Result<(), String> {
        self.0.register(name, p).map(|_| ()).map_err(err)
    }

    /// kfuse-net: one request round-trip.
    pub fn call(&mut self, name: &str, inputs: Images, s: Schedule) -> Result<Images, String> {
        self.0.call(name, inputs, s, None).map_err(err)
    }

    /// kfuse-net: socket + framing floor, no runtime behind it.
    pub fn ping(&mut self) -> Result<(), String> {
        self.0.ping().map_err(err)
    }

    pub fn open_session(
        &mut self,
        tenant: &str,
        s: &Stream,
        sched: Schedule,
    ) -> Result<u64, String> {
        self.0.open_session(tenant, &s.0, sched).map_err(err)
    }

    /// kfuse-net: one session frame round-trip.
    pub fn step_session(&mut self, session: u64, inputs: Images) -> Result<Images, String> {
        self.0.step_session(session, inputs).map_err(err)
    }

    pub fn close_session(&mut self, session: u64) -> Result<(), String> {
        self.0.close_session(session).map(|_| ()).map_err(err)
    }
}

// ----------------------------------------------------------- kfuse-stream

/// A validated temporal pipeline.
#[derive(Clone)]
pub struct Stream(StreamPipeline);

/// An in-process streaming session (one thread, paper policy).
pub struct Session(StreamSession);

impl Session {
    pub fn new(stream: &Stream, schedule: Schedule) -> Result<Session, String> {
        StreamSession::new(
            stream.0.clone(),
            schedule,
            policy().fusion_config(),
            exec_cfg(1).0,
        )
        .map(Session)
        .map_err(err)
    }

    /// kfuse-stream: one frame through the state rings and the executor.
    pub fn step(&mut self, fresh: Images) -> Result<Images, String> {
        self.0.step(fresh).map(|f| f.outputs).map_err(err)
    }
}

/// The streaming oracle: the unfused frame pipeline stepped through the
/// reference interpreter.
pub fn stream_reference(stream: &Stream, frames: &[Images]) -> Result<Vec<Images>, String> {
    run_reference(&stream.0, frames).map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a seed decides: per op, the pipeline's fingerprint and the hash
    /// of its inputs, over a sample of every kind of input a workload uses.
    fn signature(seed: u64) -> Vec<(u64, u64)> {
        let mut items = paper_items(32, seed);
        items.extend(random_items(seed, 0, 24));
        items.push(copy_item(64, seed));
        let mut sig: Vec<(u64, u64)> = items
            .iter()
            .map(|i| (fingerprint(&i.pipeline), hash_images(&i.inputs)))
            .collect();
        for s in temporal_items(32, seed, 4) {
            sig.extend(
                s.frames
                    .iter()
                    .map(|f| (s.stream.0.fingerprint(), hash_images(f))),
            );
        }
        sig
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(signature(7), signature(7));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        let (a, b) = (signature(1), signature(2));
        // The apps' pipelines are fixed, the random ones are drawn per seed;
        // every op's input images change with the seed.
        assert!(a.iter().zip(&b).all(|(x, y)| x.1 != y.1));
        let random = 6..30;
        assert_ne!(
            a[random.clone()].iter().map(|x| x.0).collect::<Vec<_>>(),
            b[random].iter().map(|x| x.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_output_hash_sees_one_flipped_bit() {
        let item = copy_item(8, 3);
        let mut flipped = item.inputs.clone();
        let v = &mut flipped[0].1.data_mut()[5];
        *v = f32::from_bits(v.to_bits() ^ 1);
        assert_ne!(hash_images(&item.inputs), hash_images(&flipped));
    }

    #[test]
    fn a_run_of_the_plan_equals_the_reference() {
        for item in random_items(5, 0, 8) {
            let want = hash_images(&reference(&item.pipeline, &item.inputs).unwrap());
            for schedule in SCHEDULES {
                let plan = Plan::compile(&fuse(&item.pipeline, schedule)).unwrap();
                let mut exec = plan.execute(&item.inputs, &exec_cfg(1)).unwrap();
                assert_eq!(hash_images(&take_outputs(&mut exec, &item.pipeline)), want);
            }
        }
    }
}
