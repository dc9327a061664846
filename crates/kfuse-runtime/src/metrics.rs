//! Per-pipeline serving metrics: atomic counters, latency histograms,
//! SLO accounting, and a hand-serialized JSON snapshot.
//!
//! Counters are lock-free (`AtomicU64` with relaxed ordering — they are
//! statistics, not synchronization), so the execution hot path never takes
//! a lock to record an event. Latencies go into an HDR-style *log-linear*
//! histogram: each power-of-two microsecond range is split into
//! `SUBBUCKETS` equal-width linear sub-buckets, so the full `u64` range
//! is covered with bounded memory and no allocation while quantile
//! quantization error stays under `1/SUBBUCKETS` (25%) instead of the
//! 100% a plain log₂ bucketing allows. Each bucket also retains the trace
//! id of the last request that landed in it — an *exemplar*, the handle
//! that turns "p99 regressed" into "open this exact trace in the flight
//! recorder".
//!
//! Snapshots export two ways: [`MetricsSnapshot::to_json`] (hand-rolled,
//! escaping via [`kfuse_obs::escape_json`] — the same helper the Chrome
//! trace exporter uses) and [`MetricsSnapshot::to_prometheus`]
//! (text-exposition format via [`kfuse_obs::PromWriter`], validated in CI
//! by `kfuse_obs::validate_prometheus`).

use kfuse_obs::{escape_json, fmt_json_f64, PromWriter};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Linear sub-buckets per power-of-two range: 2 bits of mantissa
/// precision, the HDR-histogram trade at its cheapest useful setting.
const SUBBUCKETS: usize = 4;

/// Total latency buckets. The first [`SUBBUCKETS`] buckets are unit-wide
/// and cover `[0, SUBBUCKETS)`; after that, each range `[2^e, 2^(e+1))`
/// for `e in 2..=63` splits into [`SUBBUCKETS`] equal sub-buckets —
/// covering the full `u64` µs range in 252 buckets.
const BUCKETS: usize = SUBBUCKETS * 63;

/// The bucket index `us` lands in under the log-linear scheme.
fn bucket_index(us: u64) -> usize {
    if us < SUBBUCKETS as u64 {
        us as usize
    } else {
        let exp = 63 - us.leading_zeros() as usize;
        // Top two mantissa bits after the leading 1 select the sub-bucket.
        let sub = ((us >> (exp - 2)) & 0b11) as usize;
        SUBBUCKETS * (exp - 1) + sub
    }
}

/// Upper bound (µs, inclusive) reported for bucket `i` — the value
/// quantiles quantize to.
fn bucket_upper_us(i: usize) -> u64 {
    if i < SUBBUCKETS {
        i as u64
    } else {
        let exp = i / SUBBUCKETS + 1;
        let sub = (i % SUBBUCKETS) as u64;
        let width = 1u64 << (exp - 2);
        // lower + (width - 1); summed this way the top bucket's u64::MAX
        // upper bound does not overflow.
        ((SUBBUCKETS as u64 + sub) << (exp - 2)) + (width - 1)
    }
}

/// Lock-free log-linear latency histogram with per-bucket trace-id
/// exemplars.
///
/// Alongside the buckets it keeps the exact running sum, so the mean is
/// not quantized the way the quantiles are. Exemplar slots hold the trace
/// id of the last traced request counted into the bucket (0 = none);
/// last-writer-wins racing is fine — any exemplar from the bucket is a
/// valid representative.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    exemplars: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        self.record_traced(us, 0);
    }

    /// Records one observation carrying the request's trace id as the
    /// bucket's exemplar (0 = untraced, leaves the exemplar alone).
    pub fn record_traced(&self, us: u64, trace_id: u64) {
        let idx = bucket_index(us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        if trace_id != 0 {
            self.exemplars[idx].store(trace_id, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy of the bucket counts.
    fn counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The non-empty exemplars: `(bucket upper bound µs, trace id)`.
    fn exemplars(&self) -> Vec<LatencyExemplar> {
        (0..BUCKETS)
            .filter_map(|i| {
                let trace_id = self.exemplars[i].load(Ordering::Relaxed);
                (trace_id != 0).then(|| LatencyExemplar {
                    le_us: bucket_upper_us(i),
                    trace_id,
                })
            })
            .collect()
    }

    /// Mean observed latency in microseconds. NaN when nothing has been
    /// recorded — 0/0 is the honest answer for "no data", and both
    /// exporters render it losslessly (`null` in JSON, `NaN` in
    /// Prometheus text format).
    fn mean_us(&self) -> f64 {
        let total: u64 = self.counts().iter().sum();
        self.sum_us.load(Ordering::Relaxed) as f64 / total as f64
    }
}

/// One histogram-bucket exemplar: the trace id of the last traced request
/// that landed in the bucket whose (inclusive) upper bound is `le_us` —
/// the link from an aggregate quantile to a concrete flight-recorder
/// trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyExemplar {
    /// Inclusive upper bound (µs) of the bucket.
    pub le_us: u64,
    /// Trace id of the exemplar request (never 0).
    pub trace_id: u64,
}

/// The quantile `q` (in `[0, 1]`) of a bucket-count array, reported as the
/// upper bound of the bucket containing the target rank.
fn quantile_us(counts: &[u64; BUCKETS], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    // Rank of the target observation, 1-based, clamped into range.
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum >= target {
            return bucket_upper_us(i);
        }
    }
    bucket_upper_us(BUCKETS - 1)
}

/// Counters and latency histogram for one named pipeline (tenant).
#[derive(Debug, Default)]
pub struct PipelineMetrics {
    requests: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    deadline_misses: AtomicU64,
    admission_timeouts: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    latency: LatencyHistogram,
    /// Jobs that carried a deadline (the SLO population).
    slo_jobs: AtomicU64,
    /// Deadlined jobs that finished past their budget (dropped at dequeue
    /// or completed late).
    slo_misses: AtomicU64,
    /// Sum of deadline budgets (µs) across deadlined jobs.
    slo_budget_us: AtomicU64,
    /// Sum of wall time actually spent (µs) across deadlined jobs.
    slo_spent_us: AtomicU64,
}

impl PipelineMetrics {
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a submission shed by QoS policy at admission (tenant over
    /// its queue share, or queue pressure past the class threshold) —
    /// deliberate overload protection, tallied apart from plain
    /// full-queue rejections so operators can tell policy from capacity.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job whose deadline expired in the queue: answered with
    /// `DeadlineExceeded` at dequeue, never executed.
    pub fn record_deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a submission that waited out `Admission::BlockWithTimeout`
    /// without ever being admitted.
    pub fn record_admission_timeout(&self) {
        self.admission_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request latency in microseconds.
    pub fn record_latency_us(&self, us: u64) {
        self.latency.record(us);
    }

    /// Records one request latency plus the request's trace id as the
    /// bucket exemplar (0 = untraced).
    pub fn record_latency_traced(&self, us: u64, trace_id: u64) {
        self.latency.record_traced(us, trace_id);
    }

    /// SLO accounting for one deadlined job: `budget_us` is the deadline
    /// budget the submitter granted, `spent_us` the wall time the request
    /// actually took (queued + executed, or queued-then-dropped). Burning
    /// past the budget is an SLO miss whether the job was dropped at
    /// dequeue or completed late.
    pub fn record_slo(&self, budget_us: u64, spent_us: u64) {
        self.slo_jobs.fetch_add(1, Ordering::Relaxed);
        self.slo_budget_us.fetch_add(budget_us, Ordering::Relaxed);
        self.slo_spent_us.fetch_add(spent_us, Ordering::Relaxed);
        if spent_us > budget_us {
            self.slo_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self, name: &str) -> PipelineSnapshot {
        let counts = self.latency.counts();
        let slo_jobs = self.slo_jobs.load(Ordering::Relaxed);
        let slo_misses = self.slo_misses.load(Ordering::Relaxed);
        let budget = self.slo_budget_us.load(Ordering::Relaxed);
        let spent = self.slo_spent_us.load(Ordering::Relaxed);
        PipelineSnapshot {
            name: name.to_string(),
            requests: self.requests.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            admission_timeouts: self.admission_timeouts.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            p50_us: quantile_us(&counts, 0.50),
            p95_us: quantile_us(&counts, 0.95),
            p99_us: quantile_us(&counts, 0.99),
            mean_us: self.latency.mean_us(),
            slo_jobs,
            slo_misses,
            budget_burn: spent as f64 / budget as f64,
            slo_miss_rate: slo_misses as f64 / slo_jobs as f64,
            exemplars: self.latency.exemplars(),
        }
    }
}

/// Distinct fingerprints tracked for model fidelity; same bound rationale
/// as the plan cache's stats table — at the cap, new fingerprints go
/// untracked while existing accumulators keep counting.
const MAX_FIDELITY_FINGERPRINTS: usize = 64;

/// Running observed-vs-modeled execute-time sums for one fingerprint.
#[derive(Clone, Copy, Debug, Default)]
struct FidelityAccum {
    jobs: u64,
    observed_us: u64,
    modeled_us: f64,
}

/// Registry of per-pipeline metrics, keyed by the caller-supplied
/// pipeline (tenant) name, plus the per-fingerprint model-fidelity table.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<HashMap<String, Arc<PipelineMetrics>>>,
    fidelity: Mutex<HashMap<u64, FidelityAccum>>,
}

impl MetricsRegistry {
    /// The metrics handle for `name`, created on first use. The returned
    /// `Arc` lets the hot path update counters without re-locking the map.
    pub fn handle(&self, name: &str) -> Arc<PipelineMetrics> {
        let mut map = self.inner.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Accumulates one executed job into the per-fingerprint fidelity
    /// table: `observed_us` measured on this host, `modeled_us` priced by
    /// the planning policy's cost model at plan-compile time. Unpriced
    /// plans (`modeled_us` non-positive or non-finite) record nothing — a
    /// ratio against a meaningless denominator is worse than no ratio.
    pub fn record_fidelity(&self, fingerprint: u64, observed_us: u64, modeled_us: f64) {
        if !(modeled_us.is_finite() && modeled_us > 0.0) {
            return;
        }
        let mut map = self.fidelity.lock().unwrap();
        if map.len() >= MAX_FIDELITY_FINGERPRINTS && !map.contains_key(&fingerprint) {
            return;
        }
        let acc = map.entry(fingerprint).or_default();
        acc.jobs += 1;
        acc.observed_us = acc.observed_us.saturating_add(observed_us);
        acc.modeled_us += modeled_us;
    }

    /// A point-in-time snapshot of every pipeline, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.lock().unwrap();
        let mut pipelines: Vec<PipelineSnapshot> = map.iter().map(|(n, m)| m.snapshot(n)).collect();
        drop(map);
        pipelines.sort_by(|a, b| a.name.cmp(&b.name));
        let mut fidelity: Vec<FidelitySnapshot> = self
            .fidelity
            .lock()
            .unwrap()
            .iter()
            .map(|(&fingerprint, acc)| FidelitySnapshot {
                fingerprint,
                jobs: acc.jobs,
                observed_us: acc.observed_us,
                modeled_us: acc.modeled_us,
                ratio: acc.observed_us as f64 / acc.modeled_us,
            })
            .collect();
        fidelity.sort_by(|a, b| b.jobs.cmp(&a.jobs).then(a.fingerprint.cmp(&b.fingerprint)));
        MetricsSnapshot {
            pipelines,
            runtime: RuntimeGauges::default(),
            fingerprints: Vec::new(),
            fidelity,
        }
    }
}

/// Frozen observed-vs-modeled execute-time accounting for one structural
/// fingerprint: does the cost model the planner prices fusion decisions
/// with still track what executions actually cost on this host? The
/// absolute ratio is scale-arbitrary (model cycles vs host wall time);
/// its *drift across fingerprints and over time* is the fidelity signal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FidelitySnapshot {
    /// Structural pipeline fingerprint.
    pub fingerprint: u64,
    /// Executed jobs accumulated.
    pub jobs: u64,
    /// Sum of observed execute wall time (µs).
    pub observed_us: u64,
    /// Sum of modeled execute time (µs) under the planning cost model.
    pub modeled_us: f64,
    /// `observed_us / modeled_us`.
    pub ratio: f64,
}

/// Frozen metrics for one pipeline.
///
/// Not `Eq`: [`Self::mean_us`] is a float, and it is NaN for a pipeline
/// with no recorded latencies.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineSnapshot {
    pub name: String,
    pub requests: u64,
    pub completed: u64,
    pub errors: u64,
    pub rejected: u64,
    /// Submissions shed at admission (per-class queue-pressure threshold
    /// or a full session backlog) — counted apart from
    /// `rejected` so overload protection is distinguishable from a
    /// genuinely full queue.
    pub shed: u64,
    /// Jobs answered `DeadlineExceeded` — expired at admission or in the
    /// queue (never executed).
    pub deadline_misses: u64,
    /// Submissions that timed out waiting for queue space under
    /// `Admission::BlockWithTimeout`.
    pub admission_timeouts: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Median latency (µs), quantized to the histogram bucket upper bound.
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// Mean latency (µs), exact (not bucket-quantized). NaN when the
    /// pipeline has no recorded latencies; exporters render that as
    /// `null` (JSON) / `NaN` (Prometheus).
    pub mean_us: f64,
    /// Jobs that carried a deadline (the SLO population).
    pub slo_jobs: u64,
    /// Deadlined jobs that burned past their budget.
    pub slo_misses: u64,
    /// Aggregate deadline budget-burn: spent µs / granted budget µs over
    /// all deadlined jobs (NaN when there are none). Above 1.0 the tenant
    /// is, on aggregate, blowing its deadlines.
    pub budget_burn: f64,
    /// `slo_misses / slo_jobs` (NaN when there are no deadlined jobs).
    pub slo_miss_rate: f64,
    /// Per-bucket latency exemplars: trace ids linking histogram buckets
    /// to concrete flight-recorder traces.
    pub exemplars: Vec<LatencyExemplar>,
}

/// Point-in-time runtime-wide gauges, filled by
/// [`Runtime::metrics`](crate::Runtime::metrics) from live queue and
/// plan-cache state (the registry itself only knows per-pipeline
/// counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeGauges {
    /// Jobs admitted but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Deepest the queue has ever been since startup (high-water mark):
    /// instantaneous depth sampled at scrape time misses bursts between
    /// scrapes; the HWM records the worst backlog ever reached.
    pub queue_depth_hwm: u64,
    /// Jobs currently executing on worker threads.
    pub in_flight: u64,
    /// Compiled plans currently cached.
    pub cache_size: u64,
    /// Plan-cache capacity.
    pub cache_capacity: u64,
    /// Cumulative plans evicted to make room.
    pub cache_evictions: u64,
    /// Streaming sessions currently open (state planes pinned).
    pub sessions_open: u64,
}

/// Frozen metrics for every pipeline a runtime has served.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub pipelines: Vec<PipelineSnapshot>,
    /// Runtime-wide gauges (queue, in-flight, plan cache).
    pub runtime: RuntimeGauges,
    /// Per-fingerprint plan-cache lookup tallies, most-looked-up first
    /// (see [`crate::cache::FingerprintStats`]): a plan-cache diagnostic
    /// showing which pipeline structures miss, and how often.
    pub fingerprints: Vec<crate::cache::FingerprintStats>,
    /// Per-fingerprint observed-vs-modeled execute-time accounting,
    /// most-executed first.
    pub fidelity: Vec<FidelitySnapshot>,
}

impl MetricsSnapshot {
    /// The snapshot for `name`, if that pipeline has been seen.
    pub fn pipeline(&self, name: &str) -> Option<&PipelineSnapshot> {
        self.pipelines.iter().find(|p| p.name == name)
    }

    /// Serializes the snapshot to JSON. Hand-rolled (the workspace has no
    /// external dependencies); the only strings are pipeline names, which
    /// are escaped per RFC 8259. `mean_us` goes through
    /// [`kfuse_obs::fmt_json_f64`], so a NaN mean (pipeline with no
    /// latencies yet) renders as `null` instead of an invalid token.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"pipelines\":[");
        for (i, p) in self.pipelines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"requests\":{},\"completed\":{},\"errors\":{},\
                 \"rejected\":{},\"shed\":{},\"deadline_misses\":{},\"admission_timeouts\":{},\
                 \"cache_hits\":{},\"cache_misses\":{},\
                 \"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"mean_us\":{},\
                 \"slo_jobs\":{},\"slo_misses\":{},\"budget_burn\":{},\"slo_miss_rate\":{}",
                escape_json(&p.name),
                p.requests,
                p.completed,
                p.errors,
                p.rejected,
                p.shed,
                p.deadline_misses,
                p.admission_timeouts,
                p.cache_hits,
                p.cache_misses,
                p.p50_us,
                p.p95_us,
                p.p99_us,
                fmt_json_f64(p.mean_us),
                p.slo_jobs,
                p.slo_misses,
                fmt_json_f64(p.budget_burn),
                fmt_json_f64(p.slo_miss_rate),
            ));
            out.push_str(",\"exemplars\":[");
            for (j, e) in p.exemplars.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                // Trace ids are identifiers, not quantities: hex strings
                // keep them exact and match the Chrome-trace rendering.
                out.push_str(&format!(
                    "{{\"le_us\":{},\"trace_id\":\"{:016x}\"}}",
                    e.le_us, e.trace_id
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"runtime\":");
        let g = &self.runtime;
        out.push_str(&format!(
            "{{\"queue_depth\":{},\"queue_depth_hwm\":{},\"in_flight\":{},\"cache_size\":{},\
             \"cache_capacity\":{},\"cache_evictions\":{},\"sessions_open\":{}}}",
            g.queue_depth,
            g.queue_depth_hwm,
            g.in_flight,
            g.cache_size,
            g.cache_capacity,
            g.cache_evictions,
            g.sessions_open,
        ));
        out.push_str(",\"fingerprints\":[");
        for (i, s) in self.fingerprints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Fingerprints are hashes, not quantities: hex strings keep
            // them exact (u64 exceeds JSON's interoperable integer range).
            out.push_str(&format!(
                "{{\"fingerprint\":\"{:016x}\",\"hits\":{},\"misses\":{}}}",
                s.fingerprint, s.hits, s.misses
            ));
        }
        out.push_str("],\"fidelity\":[");
        for (i, f) in self.fidelity.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"fingerprint\":\"{:016x}\",\"jobs\":{},\"observed_us\":{},\
                 \"modeled_us\":{},\"ratio\":{}}}",
                f.fingerprint,
                f.jobs,
                f.observed_us,
                fmt_json_f64(f.modeled_us),
                fmt_json_f64(f.ratio),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Serializes the snapshot in Prometheus text-exposition format.
    /// Per-pipeline counters carry a `pipeline` label; latency quantiles
    /// are gauges labeled `pipeline` + `quantile` (bucket-upper-bound
    /// values, matching the JSON export); runtime gauges are unlabeled.
    pub fn to_prometheus(&self) -> String {
        type Field = fn(&PipelineSnapshot) -> u64;
        let mut w = PromWriter::new();
        let counters: [(&str, &str, Field); 9] = [
            ("kfuse_requests_total", "Requests submitted.", |p| {
                p.requests
            }),
            (
                "kfuse_requests_completed_total",
                "Requests completed successfully.",
                |p| p.completed,
            ),
            (
                "kfuse_requests_errors_total",
                "Requests failed in execution.",
                |p| p.errors,
            ),
            (
                "kfuse_requests_rejected_total",
                "Requests rejected at admission.",
                |p| p.rejected,
            ),
            (
                "kfuse_requests_shed_total",
                "Requests shed at admission (queue pressure or a full session backlog).",
                |p| p.shed,
            ),
            (
                "kfuse_deadline_misses_total",
                "Jobs whose deadline expired in the queue (dropped unexecuted).",
                |p| p.deadline_misses,
            ),
            (
                "kfuse_admission_timeouts_total",
                "Submissions that timed out waiting for queue space.",
                |p| p.admission_timeouts,
            ),
            (
                "kfuse_plan_cache_hits_total",
                "Jobs served from a cached compiled plan.",
                |p| p.cache_hits,
            ),
            (
                "kfuse_plan_cache_misses_total",
                "Jobs that compiled a new plan.",
                |p| p.cache_misses,
            ),
        ];
        for (name, help, get) in counters {
            w.family(name, "counter", help);
            for p in &self.pipelines {
                w.sample(name, &[("pipeline", &p.name)], get(p) as f64);
            }
        }
        w.family(
            "kfuse_request_latency_us",
            "gauge",
            "Request latency quantiles (µs, upper bounds of log-linear buckets, four per power of two).",
        );
        for p in &self.pipelines {
            for (q, v) in [("0.5", p.p50_us), ("0.95", p.p95_us), ("0.99", p.p99_us)] {
                w.sample(
                    "kfuse_request_latency_us",
                    &[("pipeline", &p.name), ("quantile", q)],
                    v as f64,
                );
            }
        }
        w.family(
            "kfuse_request_latency_mean_us",
            "gauge",
            "Mean request latency (µs); NaN until a latency is recorded.",
        );
        for p in &self.pipelines {
            // PromWriter renders non-finite values with the text-format
            // NaN/+Inf/-Inf tokens, so an idle pipeline exports cleanly.
            w.sample(
                "kfuse_request_latency_mean_us",
                &[("pipeline", &p.name)],
                p.mean_us,
            );
        }
        let slo_counters: [(&str, &str, Field); 2] = [
            (
                "kfuse_slo_jobs_total",
                "Jobs submitted with a deadline (the SLO population).",
                |p| p.slo_jobs,
            ),
            (
                "kfuse_slo_misses_total",
                "Deadlined jobs that burned past their budget.",
                |p| p.slo_misses,
            ),
        ];
        for (name, help, get) in slo_counters {
            w.family(name, "counter", help);
            for p in &self.pipelines {
                w.sample(name, &[("pipeline", &p.name)], get(p) as f64);
            }
        }
        type GaugeGet = fn(&PipelineSnapshot) -> f64;
        let slo_gauges: [(&str, &str, GaugeGet); 2] = [
            (
                "kfuse_slo_budget_burn_ratio",
                "Spent µs over granted deadline budget µs; NaN with no deadlined jobs.",
                |p| p.budget_burn,
            ),
            (
                "kfuse_slo_miss_rate",
                "Fraction of deadlined jobs that missed; NaN with no deadlined jobs.",
                |p| p.slo_miss_rate,
            ),
        ];
        for (name, help, get) in slo_gauges {
            w.family(name, "gauge", help);
            for p in &self.pipelines {
                w.sample(name, &[("pipeline", &p.name)], get(p));
            }
        }
        if self.pipelines.iter().any(|p| !p.exemplars.is_empty()) {
            w.family(
                "kfuse_request_latency_exemplar_us",
                "gauge",
                "Latency-histogram bucket exemplars: sample value is the bucket's \
                 inclusive upper bound (µs); the trace_id label links to the \
                 flight-recorder trace of the last request in the bucket.",
            );
            for p in &self.pipelines {
                for e in &p.exemplars {
                    let trace_id = format!("{:016x}", e.trace_id);
                    w.sample(
                        "kfuse_request_latency_exemplar_us",
                        &[("pipeline", &p.name), ("trace_id", &trace_id)],
                        e.le_us as f64,
                    );
                }
            }
        }
        let g = &self.runtime;
        let gauges: [(&str, &str, u64); 6] = [
            (
                "kfuse_queue_depth",
                "Jobs queued for a worker.",
                g.queue_depth,
            ),
            (
                "kfuse_queue_depth_hwm",
                "Deepest the queue has ever been (high-water mark).",
                g.queue_depth_hwm,
            ),
            (
                "kfuse_in_flight_requests",
                "Jobs currently executing.",
                g.in_flight,
            ),
            (
                "kfuse_plan_cache_size",
                "Compiled plans currently cached.",
                g.cache_size,
            ),
            (
                "kfuse_plan_cache_capacity",
                "Plan cache capacity.",
                g.cache_capacity,
            ),
            (
                "kfuse_sessions_open",
                "Streaming sessions currently open.",
                g.sessions_open,
            ),
        ];
        for (name, help, v) in gauges {
            w.family(name, "gauge", help);
            w.sample(name, &[], v as f64);
        }
        w.family(
            "kfuse_plan_cache_evictions_total",
            "counter",
            "Plans evicted from the cache.",
        );
        w.sample(
            "kfuse_plan_cache_evictions_total",
            &[],
            g.cache_evictions as f64,
        );
        if !self.fingerprints.is_empty() {
            type FpField = fn(&crate::cache::FingerprintStats) -> u64;
            let fp_counters: [(&str, &str, FpField); 2] = [
                (
                    "kfuse_plan_cache_fingerprint_hits_total",
                    "Plan-cache hits per structural pipeline fingerprint.",
                    |s| s.hits,
                ),
                (
                    "kfuse_plan_cache_fingerprint_misses_total",
                    "Plan-cache misses per structural pipeline fingerprint.",
                    |s| s.misses,
                ),
            ];
            for (name, help, get) in fp_counters {
                w.family(name, "counter", help);
                for s in &self.fingerprints {
                    let fp = format!("{:016x}", s.fingerprint);
                    w.sample(name, &[("fingerprint", &fp)], get(s) as f64);
                }
            }
        }
        if !self.fidelity.is_empty() {
            w.family(
                "kfuse_execute_fidelity_ratio",
                "gauge",
                "Observed over modeled execute time per structural fingerprint; \
                 drift flags pipelines the planner's cost model mis-prices.",
            );
            for f in &self.fidelity {
                let fp = format!("{:016x}", f.fingerprint);
                w.sample(
                    "kfuse_execute_fidelity_ratio",
                    &[("fingerprint", &fp)],
                    f.ratio,
                );
            }
            w.family(
                "kfuse_execute_observed_us_total",
                "counter",
                "Observed execute wall time (µs) per structural fingerprint.",
            );
            for f in &self.fidelity {
                let fp = format!("{:016x}", f.fingerprint);
                w.sample(
                    "kfuse_execute_observed_us_total",
                    &[("fingerprint", &fp)],
                    f.observed_us as f64,
                );
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bucketized() {
        let h = LatencyHistogram::default();
        // 90 fast requests (~8 µs), 10 slow (~1000 µs).
        for _ in 0..90 {
            h.record(8);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let counts = h.counts();
        // Log-linear buckets: 8 µs lands in [8, 10) → upper bound 9;
        // 1000 µs in [896, 1024) → upper bound 1023.
        assert_eq!(quantile_us(&counts, 0.50), 9);
        assert_eq!(quantile_us(&counts, 0.95), 1023);
        assert_eq!(quantile_us(&counts, 0.99), 1023);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(quantile_us(&h.counts(), 0.99), 0);
    }

    #[test]
    fn zero_latency_is_recorded() {
        let h = LatencyHistogram::default();
        h.record(0);
        // The linear region represents 0 exactly.
        assert_eq!(quantile_us(&h.counts(), 0.50), 0);
    }

    /// The log-linear bucketing is a partition of the u64 range: indices
    /// are monotone in the value, every bucket's upper bound maps back to
    /// its own bucket, and relative quantization error is bounded by
    /// 1/SUBBUCKETS.
    #[test]
    fn log_linear_buckets_partition_and_bound_error() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_us(BUCKETS - 1), u64::MAX);
        let mut prev = None;
        for i in 0..BUCKETS {
            let upper = bucket_upper_us(i);
            assert_eq!(bucket_index(upper), i, "upper bound of bucket {i}");
            if let Some(p) = prev {
                assert!(upper > p, "upper bounds must be strictly increasing");
                // The next bucket starts right after the previous ends.
                assert_eq!(bucket_index(p + 1), i);
            }
            prev = Some(upper);
        }
        // Spot-check the error bound: reported upper vs true value.
        for v in [5u64, 100, 1000, 123_456, 10_000_000] {
            let upper = bucket_upper_us(bucket_index(v));
            assert!(upper >= v);
            assert!((upper - v) as f64 <= v as f64 / SUBBUCKETS as f64 + 1.0);
        }
    }

    /// Traced recordings pin the request's trace id to the bucket as an
    /// exemplar; untraced recordings leave exemplars alone.
    #[test]
    fn exemplars_link_buckets_to_trace_ids() {
        let h = LatencyHistogram::default();
        h.record(8); // untraced: no exemplar
        assert!(h.exemplars().is_empty());
        h.record_traced(8, 0xabc);
        h.record_traced(1000, 0xdef);
        h.record_traced(8, 0x123); // same bucket: last writer wins
        let ex = h.exemplars();
        assert_eq!(
            ex,
            vec![
                LatencyExemplar {
                    le_us: 9,
                    trace_id: 0x123
                },
                LatencyExemplar {
                    le_us: 1023,
                    trace_id: 0xdef
                },
            ]
        );
    }

    #[test]
    fn snapshot_sorted_and_json_escaped() {
        let reg = MetricsRegistry::default();
        reg.handle("zeta").record_request();
        let weird = reg.handle("a\"b\\c");
        weird.record_request();
        weird.record_latency_us(100);
        let snap = reg.snapshot();
        assert_eq!(snap.pipelines.len(), 2);
        assert_eq!(snap.pipelines[0].name, "a\"b\\c");
        let json = snap.to_json();
        assert!(json.starts_with("{\"pipelines\":["));
        assert!(json.contains("\"name\":\"a\\\"b\\\\c\""));
        assert!(json.contains("\"requests\":1"));
        // 100 µs lands in the log-linear bucket [96, 112) → upper 111.
        assert!(json.contains("\"p50_us\":111"));
    }

    #[test]
    fn json_includes_runtime_gauges() {
        let reg = MetricsRegistry::default();
        reg.handle("t").record_request();
        let mut snap = reg.snapshot();
        snap.runtime = RuntimeGauges {
            queue_depth: 3,
            queue_depth_hwm: 7,
            in_flight: 2,
            cache_size: 5,
            cache_capacity: 8,
            cache_evictions: 1,
            sessions_open: 2,
        };
        let json = snap.to_json();
        assert!(
            json.contains("\"runtime\":{\"queue_depth\":3,\"queue_depth_hwm\":7,\"in_flight\":2")
        );
        assert!(json.contains("\"cache_evictions\":1,\"sessions_open\":2}"));
    }

    #[test]
    fn prometheus_export_round_trips_validator() {
        let reg = MetricsRegistry::default();
        let weird = reg.handle("a\"b\\c");
        weird.record_request();
        weird.record_completed();
        weird.record_latency_us(100);
        reg.handle("plain").record_request();
        let mut snap = reg.snapshot();
        snap.runtime.queue_depth = 4;
        snap.runtime.queue_depth_hwm = 9;
        let doc = snap.to_prometheus();
        // 9 counter families × 2 pipelines + 3 quantiles × 2 pipelines
        // + 1 mean × 2 pipelines + 2 SLO counters × 2 + 2 SLO gauges × 2
        // + 7 runtime samples (no exemplars or fidelity rows recorded).
        assert_eq!(kfuse_obs::validate_prometheus(&doc).unwrap(), 41);
        assert!(doc.contains("# TYPE kfuse_requests_total counter"));
        assert!(doc.contains("kfuse_queue_depth_hwm 9"));
        assert!(doc.contains("kfuse_requests_total{pipeline=\"a\\\"b\\\\c\"} 1"));
        assert!(doc.contains("kfuse_request_latency_us{pipeline=\"plain\",quantile=\"0.5\"} 0"));
        assert!(doc.contains("kfuse_request_latency_mean_us{pipeline=\"a\\\"b\\\\c\"} 100"));
        assert!(doc.contains("kfuse_queue_depth 4"));
    }

    /// A pipeline that has counted requests but never recorded a latency
    /// has a NaN mean. Both exporters must still produce documents their
    /// own validators accept: JSON renders the mean as `null` (RFC 8259
    /// has no NaN token), Prometheus text format uses its `NaN` token.
    /// Pre-fix there was no mean gauge; a naive `format!("{}", f64::NAN)`
    /// here would emit bare `NaN` and break the strict JSON parser.
    #[test]
    fn nan_mean_round_trips_both_exporters() {
        let reg = MetricsRegistry::default();
        reg.handle("idle").record_request();
        let busy = reg.handle("busy");
        busy.record_latency_us(10);
        busy.record_latency_us(30);
        let snap = reg.snapshot();
        assert!(snap.pipeline("idle").unwrap().mean_us.is_nan());
        assert_eq!(snap.pipeline("busy").unwrap().mean_us, 20.0);

        let json = snap.to_json();
        assert!(json.contains("\"mean_us\":null"));
        assert!(json.contains("\"mean_us\":20"));
        kfuse_obs::parse_json(&json).expect("strict parser accepts the redacted mean");

        let doc = snap.to_prometheus();
        assert!(doc.contains("kfuse_request_latency_mean_us{pipeline=\"idle\"} NaN"));
        assert!(doc.contains("kfuse_request_latency_mean_us{pipeline=\"busy\"} 20"));
        kfuse_obs::validate_prometheus(&doc).expect("text format allows NaN samples");
    }

    /// The shed counter round-trips both exporters, and sheds stay
    /// separate from plain rejections.
    #[test]
    fn shed_round_trips_both_exporters() {
        let reg = MetricsRegistry::default();
        let m = reg.handle("t");
        m.record_request();
        m.record_shed();
        m.record_shed();
        m.record_rejected();
        let snap = reg.snapshot();
        let s = snap.pipeline("t").unwrap();
        assert_eq!(s.shed, 2);
        assert_eq!(s.rejected, 1);

        let json = snap.to_json();
        assert!(json.contains("\"shed\":2"));
        kfuse_obs::parse_json(&json).expect("strict parser accepts the snapshot");

        let doc = snap.to_prometheus();
        assert!(doc.contains("# TYPE kfuse_requests_shed_total counter"));
        assert!(doc.contains("kfuse_requests_shed_total{pipeline=\"t\"} 2"));
        kfuse_obs::validate_prometheus(&doc).expect("exposition validates");
    }

    #[test]
    fn counters_accumulate() {
        let m = PipelineMetrics::default();
        m.record_request();
        m.record_request();
        m.record_cache_miss();
        m.record_cache_hit();
        m.record_completed();
        m.record_completed();
        let s = m.snapshot("p");
        assert_eq!(s.requests, 2);
        assert_eq!(s.completed, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.errors, 0);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.deadline_misses, 0);
        assert_eq!(s.admission_timeouts, 0);
    }

    /// The deadline-miss and admission-timeout counters round-trip through
    /// both exporters and their own validators, like every other counter.
    #[test]
    fn deadline_and_admission_counters_round_trip() {
        let reg = MetricsRegistry::default();
        let m = reg.handle("t");
        m.record_request();
        m.record_deadline_miss();
        m.record_deadline_miss();
        m.record_admission_timeout();
        let snap = reg.snapshot();
        let s = snap.pipeline("t").unwrap();
        assert_eq!(s.deadline_misses, 2);
        assert_eq!(s.admission_timeouts, 1);

        let json = snap.to_json();
        assert!(json.contains("\"deadline_misses\":2"));
        assert!(json.contains("\"admission_timeouts\":1"));
        kfuse_obs::parse_json(&json).expect("strict parser accepts the snapshot");

        let doc = snap.to_prometheus();
        assert!(doc.contains("# TYPE kfuse_deadline_misses_total counter"));
        assert!(doc.contains("kfuse_deadline_misses_total{pipeline=\"t\"} 2"));
        assert!(doc.contains("kfuse_admission_timeouts_total{pipeline=\"t\"} 1"));
        kfuse_obs::validate_prometheus(&doc).expect("exposition validates");
    }

    /// The queue-depth high-water mark renders in both exporters and is
    /// independent of the instantaneous depth.
    #[test]
    fn queue_depth_hwm_round_trips() {
        let reg = MetricsRegistry::default();
        reg.handle("t").record_request();
        let mut snap = reg.snapshot();
        snap.runtime.queue_depth = 0;
        snap.runtime.queue_depth_hwm = 12;
        let json = snap.to_json();
        assert!(json.contains("\"queue_depth\":0"));
        assert!(json.contains("\"queue_depth_hwm\":12"));
        kfuse_obs::parse_json(&json).expect("strict parser accepts the snapshot");
        let doc = snap.to_prometheus();
        assert!(doc.contains("# TYPE kfuse_queue_depth_hwm gauge"));
        assert!(doc.contains("kfuse_queue_depth_hwm 12"));
        kfuse_obs::validate_prometheus(&doc).expect("exposition validates");
    }

    /// Per-fingerprint plan-cache tallies render as hex-keyed JSON objects
    /// and labeled Prometheus counter families; both stay validator-clean.
    #[test]
    fn fingerprint_stats_round_trip_both_exporters() {
        let reg = MetricsRegistry::default();
        reg.handle("t").record_request();
        let mut snap = reg.snapshot();
        snap.fingerprints = vec![
            crate::cache::FingerprintStats {
                fingerprint: 0xdead_beef,
                hits: 9,
                misses: 1,
            },
            crate::cache::FingerprintStats {
                fingerprint: 0x1,
                hits: 0,
                misses: 3,
            },
        ];
        let json = snap.to_json();
        assert!(json.contains("\"fingerprint\":\"00000000deadbeef\",\"hits\":9,\"misses\":1"));
        kfuse_obs::parse_json(&json).expect("strict parser accepts the snapshot");

        let doc = snap.to_prometheus();
        assert!(doc.contains(
            "kfuse_plan_cache_fingerprint_hits_total{fingerprint=\"00000000deadbeef\"} 9"
        ));
        assert!(doc.contains(
            "kfuse_plan_cache_fingerprint_misses_total{fingerprint=\"0000000000000001\"} 3"
        ));
        kfuse_obs::validate_prometheus(&doc).expect("exposition validates");
    }

    /// SLO accounting: budget-burn and miss-rate aggregate per tenant and
    /// round-trip both exporters. A job that spends more than its budget
    /// is a miss whether it was dropped at dequeue or completed late.
    #[test]
    fn slo_budget_burn_and_miss_rate_round_trip() {
        let reg = MetricsRegistry::default();
        let m = reg.handle("t");
        m.record_slo(1000, 500); // met, half the budget
        m.record_slo(1000, 1500); // missed, 1.5× the budget
        reg.handle("free").record_request(); // no deadlines: NaN gauges
        let snap = reg.snapshot();
        let s = snap.pipeline("t").unwrap();
        assert_eq!(s.slo_jobs, 2);
        assert_eq!(s.slo_misses, 1);
        assert_eq!(s.budget_burn, 1.0); // 2000 spent / 2000 granted
        assert_eq!(s.slo_miss_rate, 0.5);
        assert!(snap.pipeline("free").unwrap().budget_burn.is_nan());

        let json = snap.to_json();
        assert!(json.contains("\"slo_jobs\":2"));
        assert!(json.contains("\"budget_burn\":1"));
        assert!(json.contains("\"slo_miss_rate\":0.5"));
        kfuse_obs::parse_json(&json).expect("strict parser accepts the snapshot");

        let doc = snap.to_prometheus();
        assert!(doc.contains("kfuse_slo_jobs_total{pipeline=\"t\"} 2"));
        assert!(doc.contains("kfuse_slo_misses_total{pipeline=\"t\"} 1"));
        assert!(doc.contains("kfuse_slo_budget_burn_ratio{pipeline=\"t\"} 1"));
        assert!(doc.contains("kfuse_slo_miss_rate{pipeline=\"t\"} 0.5"));
        assert!(doc.contains("kfuse_slo_miss_rate{pipeline=\"free\"} NaN"));
        kfuse_obs::validate_prometheus(&doc).expect("exposition validates");
    }

    /// Histogram exemplars surface in both exporters: hex trace ids keyed
    /// by the bucket's upper bound.
    #[test]
    fn exemplars_round_trip_both_exporters() {
        let reg = MetricsRegistry::default();
        let m = reg.handle("t");
        m.record_latency_traced(100, 0xfeed);
        m.record_latency_us(100); // untraced: does not clobber the exemplar
        let snap = reg.snapshot();
        assert_eq!(
            snap.pipeline("t").unwrap().exemplars,
            vec![LatencyExemplar {
                le_us: 111,
                trace_id: 0xfeed
            }]
        );

        let json = snap.to_json();
        assert!(json.contains("\"exemplars\":[{\"le_us\":111,\"trace_id\":\"000000000000feed\"}]"));
        kfuse_obs::parse_json(&json).expect("strict parser accepts the snapshot");

        let doc = snap.to_prometheus();
        assert!(doc.contains(
            "kfuse_request_latency_exemplar_us{pipeline=\"t\",trace_id=\"000000000000feed\"} 111"
        ));
        kfuse_obs::validate_prometheus(&doc).expect("exposition validates");
    }

    /// Per-fingerprint observed-vs-modeled accounting: ratios accumulate,
    /// unpriced plans are skipped, the table is bounded, and both
    /// exporters round-trip.
    #[test]
    fn fidelity_accounting_round_trips_and_is_bounded() {
        let reg = MetricsRegistry::default();
        reg.handle("t").record_request();
        reg.record_fidelity(0xbeef, 200, 100.0);
        reg.record_fidelity(0xbeef, 400, 100.0);
        reg.record_fidelity(0x1, 50, 0.0); // unpriced: ignored
        reg.record_fidelity(0x1, 50, f64::NAN); // insane: ignored
        let snap = reg.snapshot();
        assert_eq!(snap.fidelity.len(), 1);
        let f = &snap.fidelity[0];
        assert_eq!(f.fingerprint, 0xbeef);
        assert_eq!(f.jobs, 2);
        assert_eq!(f.observed_us, 600);
        assert_eq!(f.ratio, 3.0); // 600 observed / 200 modeled

        let json = snap.to_json();
        assert!(json.contains(
            "\"fidelity\":[{\"fingerprint\":\"000000000000beef\",\"jobs\":2,\
             \"observed_us\":600,\"modeled_us\":200.0,\"ratio\":3.0}]"
        ));
        kfuse_obs::parse_json(&json).expect("strict parser accepts the snapshot");

        let doc = snap.to_prometheus();
        assert!(doc.contains("kfuse_execute_fidelity_ratio{fingerprint=\"000000000000beef\"} 3"));
        assert!(
            doc.contains("kfuse_execute_observed_us_total{fingerprint=\"000000000000beef\"} 600")
        );
        kfuse_obs::validate_prometheus(&doc).expect("exposition validates");

        // Bounded table: past the cap, new fingerprints go untracked while
        // tracked ones keep accumulating.
        for fp in 0..(MAX_FIDELITY_FINGERPRINTS as u64 + 8) {
            reg.record_fidelity(fp.wrapping_add(0x1000), 10, 10.0);
        }
        reg.record_fidelity(0xbeef, 100, 100.0);
        let snap = reg.snapshot();
        assert_eq!(snap.fidelity.len(), MAX_FIDELITY_FINGERPRINTS);
        let f = snap
            .fidelity
            .iter()
            .find(|f| f.fingerprint == 0xbeef)
            .unwrap();
        assert_eq!(f.jobs, 3);
    }
}
