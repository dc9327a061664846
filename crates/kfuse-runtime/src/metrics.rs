//! Per-pipeline serving metrics: atomic counters, latency histograms,
//! SLO accounting, and the metric families a snapshot exports.
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
//! [`MetricsSnapshot::families`] declares every exported family once (name,
//! type, help, values); [`kfuse_obs::render_prometheus`] and
//! [`kfuse_obs::render_json`] render that one list as text exposition
//! (validated in CI by `kfuse_obs::validate_prometheus`) or as JSON.
//!
//! The registry keeps at most [`MAX_PIPELINES`] pipeline names apart:
//! names arrive from the wire, and each costs memory and scrape lines.

use crate::cache::FingerprintStats;
use kfuse_obs::{Family, Sample};
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

    /// Counts a submission shed at admission (queue pressure past its
    /// priority class's threshold, or a session's full frame backlog) —
    /// deliberate overload protection, tallied apart from plain
    /// full-queue rejections so operators can tell policy from capacity.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job answered with `DeadlineExceeded`, never executed: its
    /// deadline expired before admission or in the queue.
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

/// Most pipeline (tenant) names a [`MetricsRegistry`] keeps apart. Each
/// name holds about 4 KiB of counters and adds at least 17 lines to every
/// scrape, and a client picks the names, so they are bounded.
pub const MAX_PIPELINES: usize = 256;

/// The pipeline name that every name past [`MAX_PIPELINES`] is counted
/// under, together.
pub const OVERFLOW_PIPELINE: &str = "_overflow";

/// Registry of per-pipeline metrics, keyed by the caller-supplied
/// pipeline (tenant) name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<HashMap<String, Arc<PipelineMetrics>>>,
}

impl MetricsRegistry {
    /// The metrics handle for `name`, created on first use; once
    /// [`MAX_PIPELINES`] names exist, a new name gets the shared
    /// [`OVERFLOW_PIPELINE`] handle. The returned `Arc` lets the hot path
    /// update counters without re-locking the map.
    pub fn handle(&self, name: &str) -> Arc<PipelineMetrics> {
        let mut map = self.inner.lock().unwrap();
        if let Some(metrics) = map.get(name) {
            return Arc::clone(metrics);
        }
        let name = if map.len() < MAX_PIPELINES {
            name
        } else {
            OVERFLOW_PIPELINE
        };
        map.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time snapshot of every pipeline, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.lock().unwrap();
        let mut pipelines: Vec<PipelineSnapshot> = map.iter().map(|(n, m)| m.snapshot(n)).collect();
        drop(map);
        pipelines.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            pipelines,
            runtime: RuntimeGauges::default(),
            fingerprints: Vec::new(),
        }
    }
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
    /// Stateless jobs admitted but not yet picked up by a worker. Queued
    /// session runners are not counted (at most one per open session).
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
}

impl MetricsSnapshot {
    /// The snapshot for `name`, if that pipeline has been seen.
    pub fn pipeline(&self, name: &str) -> Option<&PipelineSnapshot> {
        self.pipelines.iter().find(|p| p.name == name)
    }

    /// Every exported runtime metric family, each declared once: name,
    /// type, help, and the values it reads from this snapshot. Per-pipeline
    /// families carry a `pipeline` label; latency quantiles are gauges
    /// labeled `pipeline` + `quantile` (bucket upper bounds); runtime
    /// gauges are unlabeled. The exemplar family appears only when some
    /// pipeline has an exemplar, the per-fingerprint counters only when
    /// fingerprints were tallied. Render the list with
    /// [`kfuse_obs::render_prometheus`] or [`kfuse_obs::render_json`].
    pub fn families(&self) -> Vec<Family> {
        let per_pipeline = |get: fn(&PipelineSnapshot) -> f64| {
            let sample = |p: &PipelineSnapshot| Sample {
                labels: vec![("pipeline", p.name.clone())],
                value: get(p),
            };
            self.pipelines.iter().map(sample).collect()
        };
        let quantiles = self.pipelines.iter().flat_map(|p| {
            [("0.5", p.p50_us), ("0.95", p.p95_us), ("0.99", p.p99_us)].map(|(q, v)| Sample {
                labels: vec![("pipeline", p.name.clone()), ("quantile", q.to_string())],
                value: v as f64,
            })
        });
        let mut families = vec![
            Family::counter(
                "kfuse_requests_total",
                "Requests submitted.",
                per_pipeline(|p| p.requests as f64),
            ),
            Family::counter(
                "kfuse_requests_completed_total",
                "Requests completed successfully.",
                per_pipeline(|p| p.completed as f64),
            ),
            Family::counter(
                "kfuse_requests_errors_total",
                "Requests failed in execution.",
                per_pipeline(|p| p.errors as f64),
            ),
            Family::counter(
                "kfuse_requests_rejected_total",
                "Requests rejected at admission.",
                per_pipeline(|p| p.rejected as f64),
            ),
            Family::counter(
                "kfuse_requests_shed_total",
                "Requests shed at admission (queue pressure or a full session backlog).",
                per_pipeline(|p| p.shed as f64),
            ),
            Family::counter(
                "kfuse_deadline_misses_total",
                "Jobs whose deadline expired at admission or in the queue (never executed).",
                per_pipeline(|p| p.deadline_misses as f64),
            ),
            Family::counter(
                "kfuse_admission_timeouts_total",
                "Submissions that timed out waiting for queue space.",
                per_pipeline(|p| p.admission_timeouts as f64),
            ),
            Family::counter(
                "kfuse_plan_cache_hits_total",
                "Jobs served from a cached compiled plan.",
                per_pipeline(|p| p.cache_hits as f64),
            ),
            Family::counter(
                "kfuse_plan_cache_misses_total",
                "Jobs that compiled a new plan.",
                per_pipeline(|p| p.cache_misses as f64),
            ),
            Family::gauge(
                "kfuse_request_latency_us",
                "Request latency quantiles (µs, upper bounds of log-linear buckets, \
                 four per power of two).",
                quantiles.collect(),
            ),
            Family::gauge(
                "kfuse_request_latency_mean_us",
                "Mean request latency (µs); NaN until a latency is recorded.",
                per_pipeline(|p| p.mean_us),
            ),
            Family::counter(
                "kfuse_slo_jobs_total",
                "Jobs submitted with a deadline (the SLO population).",
                per_pipeline(|p| p.slo_jobs as f64),
            ),
            Family::counter(
                "kfuse_slo_misses_total",
                "Deadlined jobs that burned past their budget.",
                per_pipeline(|p| p.slo_misses as f64),
            ),
            Family::gauge(
                "kfuse_slo_budget_burn_ratio",
                "Spent µs over granted deadline budget µs; NaN with no deadlined jobs.",
                per_pipeline(|p| p.budget_burn),
            ),
            Family::gauge(
                "kfuse_slo_miss_rate",
                "Fraction of deadlined jobs that missed; NaN with no deadlined jobs.",
                per_pipeline(|p| p.slo_miss_rate),
            ),
        ];
        if self.pipelines.iter().any(|p| !p.exemplars.is_empty()) {
            let exemplars = self.pipelines.iter().flat_map(|p| {
                p.exemplars.iter().map(|e| Sample {
                    labels: vec![
                        ("pipeline", p.name.clone()),
                        ("trace_id", format!("{:016x}", e.trace_id)),
                    ],
                    value: e.le_us as f64,
                })
            });
            families.push(Family::gauge(
                "kfuse_request_latency_exemplar_us",
                "Latency-histogram bucket exemplars: sample value is the bucket's \
                 inclusive upper bound (µs); the trace_id label links to the \
                 flight-recorder trace of the last request in the bucket.",
                exemplars.collect(),
            ));
        }
        let g = &self.runtime;
        let one = |value: u64| {
            vec![Sample {
                labels: Vec::new(),
                value: value as f64,
            }]
        };
        families.extend([
            Family::gauge(
                "kfuse_queue_depth",
                "Stateless jobs queued for a worker (session runners not counted).",
                one(g.queue_depth),
            ),
            Family::gauge(
                "kfuse_queue_depth_hwm",
                "Deepest the queue has ever been (high-water mark).",
                one(g.queue_depth_hwm),
            ),
            Family::gauge(
                "kfuse_in_flight_requests",
                "Jobs currently executing.",
                one(g.in_flight),
            ),
            Family::gauge(
                "kfuse_plan_cache_size",
                "Compiled plans currently cached.",
                one(g.cache_size),
            ),
            Family::gauge(
                "kfuse_plan_cache_capacity",
                "Plan cache capacity.",
                one(g.cache_capacity),
            ),
            Family::gauge(
                "kfuse_sessions_open",
                "Streaming sessions currently open.",
                one(g.sessions_open),
            ),
            Family::counter(
                "kfuse_plan_cache_evictions_total",
                "Plans evicted from the cache.",
                one(g.cache_evictions),
            ),
        ]);
        if !self.fingerprints.is_empty() {
            let per_fingerprint = |get: fn(&FingerprintStats) -> u64| {
                let sample = |s: &FingerprintStats| Sample {
                    labels: vec![("fingerprint", format!("{:016x}", s.fingerprint))],
                    value: get(s) as f64,
                };
                self.fingerprints.iter().map(sample).collect()
            };
            families.extend([
                Family::counter(
                    "kfuse_plan_cache_fingerprint_hits_total",
                    "Plan-cache hits per structural pipeline fingerprint.",
                    per_fingerprint(|s| s.hits),
                ),
                Family::counter(
                    "kfuse_plan_cache_fingerprint_misses_total",
                    "Plan-cache misses per structural pipeline fingerprint.",
                    per_fingerprint(|s| s.misses),
                ),
            ]);
        }
        families
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_obs::Json;

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

    fn prometheus(snap: &MetricsSnapshot) -> String {
        let doc = kfuse_obs::render_prometheus(&snap.families());
        kfuse_obs::validate_prometheus(&doc).expect("exposition validates");
        doc
    }

    fn json(snap: &MetricsSnapshot) -> Json {
        let doc = kfuse_obs::render_json(&snap.families());
        kfuse_obs::parse_json(&doc).expect("strict parser accepts the snapshot")
    }

    fn num(doc: &Json, family: &str, labels: &[(&str, &str)]) -> Option<f64> {
        doc.sample(family, labels).and_then(Json::as_num)
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
        let text = kfuse_obs::render_json(&snap.families());
        assert!(text.starts_with("{\"families\":[{\"name\":\"kfuse_requests_total\""));
        assert!(text.contains("{\"pipeline\":\"a\\\"b\\\\c\"}"));
        let doc = json(&snap);
        let weird = [("pipeline", "a\"b\\c")];
        assert_eq!(num(&doc, "kfuse_requests_total", &weird), Some(1.0));
        // 100 µs lands in the log-linear bucket [96, 112) → upper 111.
        let p50 = [("pipeline", "a\"b\\c"), ("quantile", "0.5")];
        assert_eq!(num(&doc, "kfuse_request_latency_us", &p50), Some(111.0));
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
        let doc = json(&snap);
        for (family, value) in [
            ("kfuse_queue_depth", 3.0),
            ("kfuse_queue_depth_hwm", 7.0),
            ("kfuse_in_flight_requests", 2.0),
            ("kfuse_plan_cache_size", 5.0),
            ("kfuse_plan_cache_capacity", 8.0),
            ("kfuse_plan_cache_evictions_total", 1.0),
            ("kfuse_sessions_open", 2.0),
        ] {
            assert_eq!(num(&doc, family, &[]), Some(value), "{family}");
        }
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
        let doc = prometheus(&snap);
        // 9 counter families × 2 pipelines + 3 quantiles × 2 pipelines
        // + 1 mean × 2 pipelines + 2 SLO counters × 2 + 2 SLO gauges × 2
        // + 7 runtime samples (no exemplars recorded).
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

        let doc = json(&snap);
        let mean = |p| doc.sample("kfuse_request_latency_mean_us", &[("pipeline", p)]);
        assert_eq!(mean("idle"), Some(&Json::Null));
        assert_eq!(mean("busy"), Some(&Json::Num(20.0)));

        let doc = prometheus(&snap);
        assert!(doc.contains("kfuse_request_latency_mean_us{pipeline=\"idle\"} NaN"));
        assert!(doc.contains("kfuse_request_latency_mean_us{pipeline=\"busy\"} 20"));
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

        let t = [("pipeline", "t")];
        assert_eq!(
            num(&json(&snap), "kfuse_requests_shed_total", &t),
            Some(2.0)
        );

        let doc = prometheus(&snap);
        assert!(doc.contains("# TYPE kfuse_requests_shed_total counter"));
        assert!(doc.contains("kfuse_requests_shed_total{pipeline=\"t\"} 2"));
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

        let doc = json(&snap);
        let t = [("pipeline", "t")];
        assert_eq!(num(&doc, "kfuse_deadline_misses_total", &t), Some(2.0));
        assert_eq!(num(&doc, "kfuse_admission_timeouts_total", &t), Some(1.0));

        let doc = prometheus(&snap);
        assert!(doc.contains("# TYPE kfuse_deadline_misses_total counter"));
        assert!(doc.contains("kfuse_deadline_misses_total{pipeline=\"t\"} 2"));
        assert!(doc.contains("kfuse_admission_timeouts_total{pipeline=\"t\"} 1"));
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
        let doc = json(&snap);
        assert_eq!(num(&doc, "kfuse_queue_depth", &[]), Some(0.0));
        assert_eq!(num(&doc, "kfuse_queue_depth_hwm", &[]), Some(12.0));
        let doc = prometheus(&snap);
        assert!(doc.contains("# TYPE kfuse_queue_depth_hwm gauge"));
        assert!(doc.contains("kfuse_queue_depth_hwm 12"));
    }

    /// Per-fingerprint plan-cache tallies render as hex-labeled counter
    /// families in both exporters.
    #[test]
    fn fingerprint_stats_round_trip_both_exporters() {
        let reg = MetricsRegistry::default();
        reg.handle("t").record_request();
        let mut snap = reg.snapshot();
        snap.fingerprints = vec![
            FingerprintStats {
                fingerprint: 0xdead_beef,
                hits: 9,
                misses: 1,
            },
            FingerprintStats {
                fingerprint: 0x1,
                hits: 0,
                misses: 3,
            },
        ];
        let doc = json(&snap);
        let fp = [("fingerprint", "00000000deadbeef")];
        assert_eq!(
            num(&doc, "kfuse_plan_cache_fingerprint_hits_total", &fp),
            Some(9.0)
        );
        assert_eq!(
            num(&doc, "kfuse_plan_cache_fingerprint_misses_total", &fp),
            Some(1.0)
        );

        let doc = prometheus(&snap);
        assert!(doc.contains(
            "kfuse_plan_cache_fingerprint_hits_total{fingerprint=\"00000000deadbeef\"} 9"
        ));
        assert!(doc.contains(
            "kfuse_plan_cache_fingerprint_misses_total{fingerprint=\"0000000000000001\"} 3"
        ));
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

        let doc = json(&snap);
        let t = [("pipeline", "t")];
        assert_eq!(num(&doc, "kfuse_slo_jobs_total", &t), Some(2.0));
        assert_eq!(num(&doc, "kfuse_slo_budget_burn_ratio", &t), Some(1.0));
        assert_eq!(num(&doc, "kfuse_slo_miss_rate", &t), Some(0.5));

        let doc = prometheus(&snap);
        assert!(doc.contains("kfuse_slo_jobs_total{pipeline=\"t\"} 2"));
        assert!(doc.contains("kfuse_slo_misses_total{pipeline=\"t\"} 1"));
        assert!(doc.contains("kfuse_slo_budget_burn_ratio{pipeline=\"t\"} 1"));
        assert!(doc.contains("kfuse_slo_miss_rate{pipeline=\"t\"} 0.5"));
        assert!(doc.contains("kfuse_slo_miss_rate{pipeline=\"free\"} NaN"));
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

        let labels = [("pipeline", "t"), ("trace_id", "000000000000feed")];
        let doc = json(&snap);
        assert_eq!(
            num(&doc, "kfuse_request_latency_exemplar_us", &labels),
            Some(111.0)
        );

        let doc = prometheus(&snap);
        assert!(doc.contains(
            "kfuse_request_latency_exemplar_us{pipeline=\"t\",trace_id=\"000000000000feed\"} 111"
        ));
    }

    /// A snapshot that exercises every family: two pipelines (one with a
    /// name that needs escaping, one idle with NaN gauges), latencies with
    /// exemplars, SLO data, every runtime gauge and two fingerprints.
    fn rich_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::default();
        let weird = reg.handle("a\"b\\c\nd");
        for _ in 0..5 {
            weird.record_request();
        }
        weird.record_completed();
        weird.record_completed();
        weird.record_error();
        weird.record_rejected();
        weird.record_shed();
        weird.record_deadline_miss();
        weird.record_admission_timeout();
        weird.record_cache_miss();
        weird.record_cache_hit();
        weird.record_cache_hit();
        weird.record_latency_us(8);
        weird.record_latency_traced(100, 0xfeed);
        weird.record_latency_traced(1000, 0xbeef);
        weird.record_slo(1000, 500);
        weird.record_slo(1000, 2000);
        weird.record_slo(4000, 1500);
        reg.handle("idle").record_request();
        let mut snap = reg.snapshot();
        snap.runtime = RuntimeGauges {
            queue_depth: 3,
            queue_depth_hwm: 7,
            in_flight: 2,
            cache_size: 5,
            cache_capacity: 8,
            cache_evictions: 1,
            sessions_open: 4,
        };
        snap.fingerprints = vec![
            FingerprintStats {
                fingerprint: 0xdead_beef,
                hits: 9,
                misses: 1,
            },
            FingerprintStats {
                fingerprint: 0x1,
                hits: 0,
                misses: 3,
            },
        ];
        snap
    }

    /// The exposition text of [`rich_snapshot`], byte for byte: every
    /// family, its order, help, type, labels, escaping and value format.
    #[test]
    fn prometheus_exposition_is_pinned() {
        assert_eq!(prometheus(&rich_snapshot()), PINNED_EXPOSITION);
    }

    const PINNED_EXPOSITION: &str = r#"# HELP kfuse_requests_total Requests submitted.
# TYPE kfuse_requests_total counter
kfuse_requests_total{pipeline="a\"b\\c\nd"} 5
kfuse_requests_total{pipeline="idle"} 1
# HELP kfuse_requests_completed_total Requests completed successfully.
# TYPE kfuse_requests_completed_total counter
kfuse_requests_completed_total{pipeline="a\"b\\c\nd"} 2
kfuse_requests_completed_total{pipeline="idle"} 0
# HELP kfuse_requests_errors_total Requests failed in execution.
# TYPE kfuse_requests_errors_total counter
kfuse_requests_errors_total{pipeline="a\"b\\c\nd"} 1
kfuse_requests_errors_total{pipeline="idle"} 0
# HELP kfuse_requests_rejected_total Requests rejected at admission.
# TYPE kfuse_requests_rejected_total counter
kfuse_requests_rejected_total{pipeline="a\"b\\c\nd"} 1
kfuse_requests_rejected_total{pipeline="idle"} 0
# HELP kfuse_requests_shed_total Requests shed at admission (queue pressure or a full session backlog).
# TYPE kfuse_requests_shed_total counter
kfuse_requests_shed_total{pipeline="a\"b\\c\nd"} 1
kfuse_requests_shed_total{pipeline="idle"} 0
# HELP kfuse_deadline_misses_total Jobs whose deadline expired at admission or in the queue (never executed).
# TYPE kfuse_deadline_misses_total counter
kfuse_deadline_misses_total{pipeline="a\"b\\c\nd"} 1
kfuse_deadline_misses_total{pipeline="idle"} 0
# HELP kfuse_admission_timeouts_total Submissions that timed out waiting for queue space.
# TYPE kfuse_admission_timeouts_total counter
kfuse_admission_timeouts_total{pipeline="a\"b\\c\nd"} 1
kfuse_admission_timeouts_total{pipeline="idle"} 0
# HELP kfuse_plan_cache_hits_total Jobs served from a cached compiled plan.
# TYPE kfuse_plan_cache_hits_total counter
kfuse_plan_cache_hits_total{pipeline="a\"b\\c\nd"} 2
kfuse_plan_cache_hits_total{pipeline="idle"} 0
# HELP kfuse_plan_cache_misses_total Jobs that compiled a new plan.
# TYPE kfuse_plan_cache_misses_total counter
kfuse_plan_cache_misses_total{pipeline="a\"b\\c\nd"} 1
kfuse_plan_cache_misses_total{pipeline="idle"} 0
# HELP kfuse_request_latency_us Request latency quantiles (µs, upper bounds of log-linear buckets, four per power of two).
# TYPE kfuse_request_latency_us gauge
kfuse_request_latency_us{pipeline="a\"b\\c\nd",quantile="0.5"} 111
kfuse_request_latency_us{pipeline="a\"b\\c\nd",quantile="0.95"} 1023
kfuse_request_latency_us{pipeline="a\"b\\c\nd",quantile="0.99"} 1023
kfuse_request_latency_us{pipeline="idle",quantile="0.5"} 0
kfuse_request_latency_us{pipeline="idle",quantile="0.95"} 0
kfuse_request_latency_us{pipeline="idle",quantile="0.99"} 0
# HELP kfuse_request_latency_mean_us Mean request latency (µs); NaN until a latency is recorded.
# TYPE kfuse_request_latency_mean_us gauge
kfuse_request_latency_mean_us{pipeline="a\"b\\c\nd"} 369.3333333333333
kfuse_request_latency_mean_us{pipeline="idle"} NaN
# HELP kfuse_slo_jobs_total Jobs submitted with a deadline (the SLO population).
# TYPE kfuse_slo_jobs_total counter
kfuse_slo_jobs_total{pipeline="a\"b\\c\nd"} 3
kfuse_slo_jobs_total{pipeline="idle"} 0
# HELP kfuse_slo_misses_total Deadlined jobs that burned past their budget.
# TYPE kfuse_slo_misses_total counter
kfuse_slo_misses_total{pipeline="a\"b\\c\nd"} 1
kfuse_slo_misses_total{pipeline="idle"} 0
# HELP kfuse_slo_budget_burn_ratio Spent µs over granted deadline budget µs; NaN with no deadlined jobs.
# TYPE kfuse_slo_budget_burn_ratio gauge
kfuse_slo_budget_burn_ratio{pipeline="a\"b\\c\nd"} 0.6666666666666666
kfuse_slo_budget_burn_ratio{pipeline="idle"} NaN
# HELP kfuse_slo_miss_rate Fraction of deadlined jobs that missed; NaN with no deadlined jobs.
# TYPE kfuse_slo_miss_rate gauge
kfuse_slo_miss_rate{pipeline="a\"b\\c\nd"} 0.3333333333333333
kfuse_slo_miss_rate{pipeline="idle"} NaN
# HELP kfuse_request_latency_exemplar_us Latency-histogram bucket exemplars: sample value is the bucket's inclusive upper bound (µs); the trace_id label links to the flight-recorder trace of the last request in the bucket.
# TYPE kfuse_request_latency_exemplar_us gauge
kfuse_request_latency_exemplar_us{pipeline="a\"b\\c\nd",trace_id="000000000000feed"} 111
kfuse_request_latency_exemplar_us{pipeline="a\"b\\c\nd",trace_id="000000000000beef"} 1023
# HELP kfuse_queue_depth Stateless jobs queued for a worker (session runners not counted).
# TYPE kfuse_queue_depth gauge
kfuse_queue_depth 3
# HELP kfuse_queue_depth_hwm Deepest the queue has ever been (high-water mark).
# TYPE kfuse_queue_depth_hwm gauge
kfuse_queue_depth_hwm 7
# HELP kfuse_in_flight_requests Jobs currently executing.
# TYPE kfuse_in_flight_requests gauge
kfuse_in_flight_requests 2
# HELP kfuse_plan_cache_size Compiled plans currently cached.
# TYPE kfuse_plan_cache_size gauge
kfuse_plan_cache_size 5
# HELP kfuse_plan_cache_capacity Plan cache capacity.
# TYPE kfuse_plan_cache_capacity gauge
kfuse_plan_cache_capacity 8
# HELP kfuse_sessions_open Streaming sessions currently open.
# TYPE kfuse_sessions_open gauge
kfuse_sessions_open 4
# HELP kfuse_plan_cache_evictions_total Plans evicted from the cache.
# TYPE kfuse_plan_cache_evictions_total counter
kfuse_plan_cache_evictions_total 1
# HELP kfuse_plan_cache_fingerprint_hits_total Plan-cache hits per structural pipeline fingerprint.
# TYPE kfuse_plan_cache_fingerprint_hits_total counter
kfuse_plan_cache_fingerprint_hits_total{fingerprint="00000000deadbeef"} 9
kfuse_plan_cache_fingerprint_hits_total{fingerprint="0000000000000001"} 0
# HELP kfuse_plan_cache_fingerprint_misses_total Plan-cache misses per structural pipeline fingerprint.
# TYPE kfuse_plan_cache_fingerprint_misses_total counter
kfuse_plan_cache_fingerprint_misses_total{fingerprint="00000000deadbeef"} 1
kfuse_plan_cache_fingerprint_misses_total{fingerprint="0000000000000001"} 3
"#;

    /// JSON and Prometheus are two renderings of one family list: both
    /// carry the same (name, labels, value) samples, with NaN as `null`.
    #[test]
    fn json_and_prometheus_carry_the_same_samples() {
        let families = rich_snapshot().families();
        let text = kfuse_obs::render_prometheus(&families);
        let mut from_text: Vec<String> = kfuse_obs::parse_prometheus(&text)
            .unwrap()
            .iter()
            .map(|s| format!("{}{{{}}} {}", s.name, s.labels, s.value))
            .collect();
        let doc = kfuse_obs::parse_json(&kfuse_obs::render_json(&families)).unwrap();
        let mut from_json = Vec::new();
        for family in doc.get("families").and_then(Json::as_arr).unwrap() {
            let name = family.get("name").and_then(Json::as_str).unwrap();
            for sample in family.get("samples").and_then(Json::as_arr).unwrap() {
                let Some(Json::Obj(labels)) = sample.get("labels") else {
                    panic!("labels is not an object");
                };
                let labels: Vec<String> = labels
                    .iter()
                    .map(|(k, v)| {
                        let v = kfuse_obs::escape_label_value(v.as_str().unwrap());
                        format!("{k}=\"{v}\"")
                    })
                    .collect();
                let value = match sample.get("value") {
                    Some(Json::Null) => f64::NAN,
                    v => v.and_then(Json::as_num).unwrap(),
                };
                from_json.push(format!("{name}{{{}}} {value}", labels.join(",")));
            }
        }
        assert_eq!(from_text.len(), 47);
        from_text.sort();
        from_json.sort();
        assert_eq!(from_text, from_json);
    }

    /// Tenant names come from the wire: past [`MAX_PIPELINES`] distinct
    /// names, new ones share the overflow entry, and no request is lost.
    #[test]
    fn pipeline_names_are_capped_without_losing_requests() {
        let reg = MetricsRegistry::default();
        let submissions = 2 * MAX_PIPELINES;
        for i in 0..submissions {
            reg.handle(&format!("tenant-{i}")).record_request();
        }
        // A name seen before the cap keeps its own entry.
        reg.handle("tenant-0").record_request();
        let snap = reg.snapshot();
        assert_eq!(snap.pipelines.len(), MAX_PIPELINES + 1);
        let requests: u64 = snap.pipelines.iter().map(|p| p.requests).sum();
        assert_eq!(requests, submissions as u64 + 1);
        assert_eq!(snap.pipeline("tenant-0").unwrap().requests, 2);
        let overflow = snap.pipeline(OVERFLOW_PIPELINE).unwrap();
        assert_eq!(overflow.requests, MAX_PIPELINES as u64);
    }
}
