//! Online re-tuning: the feedback loop from served traffic back into
//! planning, run **off the request path**.
//!
//! The serving runtime observes which pipeline fingerprints are hot (the
//! plan cache's [`crate::cache::FingerprintStats`]) and keeps one sample
//! [`Pipeline`] per fingerprint. A background retuner thread — or an
//! explicit [`crate::Runtime::retune_now`] call — then:
//!
//! 1. **Calibrates** (optional): fits effective cost constants from the
//!    runtime's own kernel trace spans ([`kfuse_tune::Calibrator`]) and
//!    swaps the planning policy to [`kfuse_core::MeasuredPolicy`] once a
//!    fit succeeds, clearing the plan cache so no stale plan survives.
//! 2. **Re-validates persisted tunings**: entries loaded from the
//!    [`kfuse_tune::persist`] text file are warm-start *hints*; each is
//!    re-proved bit-identical to [`kfuse_sim::execute_reference`] on probe
//!    inputs for its sample pipeline before it is trusted.
//! 3. **Tunes hot fingerprints**: runs [`kfuse_tune::autotune()`] on the
//!    sample pipeline of every fingerprint whose lookups crossed
//!    [`TuneConfig::hot_threshold`], installing the winning [`Choice`].
//! 4. **Persists** the installed winners, if a path is configured.
//!
//! Installed choices only apply to jobs that requested
//! [`Schedule::Optimized`](kfuse_dsl::Schedule::Optimized) — a tenant
//! explicitly asking for `Baseline`/`Basic` gets exactly what it asked
//! for. The separable rewrite is never installed by the runtime
//! (persisted separable entries are dropped on load): it reassociates
//! floating point, and bit identity proven on one probe input is not a
//! proof for every tenant input.

use crate::runtime::Shared;
use kfuse_core::MeasuredPolicy;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_sim::{execute_fast_with, execute_reference, FastConfig};
use kfuse_tune::{autotune, probe_inputs, Calibrator, Choice, TuneKey, TuneOptions, TunedEntry};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Configuration of the runtime's online autotuner.
#[derive(Clone, Debug)]
pub struct TuneConfig {
    /// Period of the background retuner thread.
    pub interval: Duration,
    /// Plan-cache lookups (hits + misses) a fingerprint needs before the
    /// retuner considers it hot enough to tune.
    pub hot_threshold: u64,
    /// Maximum sample pipelines retained for tuning (first seen wins; the
    /// cap bounds memory under fingerprint churn).
    pub max_samples: usize,
    /// Where tuning winners are persisted (and warm-started from). `None`
    /// disables persistence.
    pub persist_path: Option<PathBuf>,
    /// Search-space and measurement knobs for [`kfuse_tune::autotune()`].
    pub options: TuneOptions,
    /// Seed for the deterministic probe inputs tuning runs against.
    pub probe_seed: u64,
    /// Whether to fit measured cost constants from the runtime's trace
    /// spans and swap to [`MeasuredPolicy`]. Requires a recording
    /// [`kfuse_obs::Tracer`] in the runtime config to have any effect.
    pub calibrate: bool,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_secs(10),
            hot_threshold: 8,
            max_samples: 32,
            persist_path: None,
            options: TuneOptions::default(),
            probe_seed: 0x6b66_7573_652d_3031,
            calibrate: false,
        }
    }
}

/// Shared tuner state hanging off the runtime's `Shared`.
pub(crate) struct TunerState {
    pub(crate) cfg: TuneConfig,
    /// Installed winners, consulted on every `Optimized` job.
    tuned: Mutex<HashMap<TuneKey, TunedEntry>>,
    /// One sample pipeline per fingerprint, captured on cache miss.
    samples: Mutex<HashMap<u64, Pipeline>>,
    /// Persisted entries awaiting oracle re-validation.
    pending: Mutex<Vec<TunedEntry>>,
    /// Whether the policy has been swapped to measured constants.
    calibrated: AtomicBool,
    /// Retuner-thread shutdown flag, paired with [`Self::wake`].
    pub(crate) stop: Mutex<bool>,
    pub(crate) wake: Condvar,
}

impl TunerState {
    pub(crate) fn new(cfg: TuneConfig) -> Self {
        let pending = cfg
            .persist_path
            .as_deref()
            .map(kfuse_tune::load)
            .unwrap_or_default()
            .into_iter()
            .filter(|e| !e.choice.separable)
            .collect();
        Self {
            cfg,
            tuned: Mutex::new(HashMap::new()),
            samples: Mutex::new(HashMap::new()),
            pending: Mutex::new(pending),
            calibrated: AtomicBool::new(false),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    /// Remembers a concrete pipeline for its fingerprint so the retuner
    /// can probe it off the request path. First seen wins; bounded.
    pub(crate) fn record_sample(&self, p: &Pipeline) {
        let fp = p.fingerprint();
        let mut samples = self.samples.lock().unwrap();
        if samples.len() < self.cfg.max_samples || samples.contains_key(&fp) {
            samples.entry(fp).or_insert_with(|| p.clone());
        }
    }

    /// The installed tuned choice for `key`, if any.
    pub(crate) fn choice_for(&self, key: &TuneKey) -> Option<Choice> {
        self.tuned.lock().unwrap().get(key).map(|e| e.choice)
    }

    /// Number of installed tuned choices.
    pub(crate) fn tuned_count(&self) -> usize {
        self.tuned.lock().unwrap().len()
    }
}

/// What one re-tuning pass did.
#[derive(Clone, Debug, Default)]
pub struct RetuneReport {
    /// Keys newly installed this pass — freshly autotuned, or persisted
    /// entries that passed oracle re-validation.
    pub installed: Vec<TuneKey>,
    /// Hot fingerprints skipped because they were already tuned.
    pub already_tuned: usize,
    /// Whether this pass fitted measured constants and swapped the
    /// planning policy.
    pub calibrated: bool,
    /// Total installed tuned choices after the pass.
    pub tuned_total: usize,
}

/// The execution configuration the runtime uses for a tuned choice: the
/// choice's strip height, with the runtime's deployment-level settings
/// (thread count) preserved.
pub(crate) fn runtime_fast_config(choice: Choice, exec: &FastConfig) -> FastConfig {
    FastConfig {
        strip_rows: choice.strip_rows,
        ..*exec
    }
}

/// Proves `choice` bit-identical to the reference interpreter on `inputs`
/// under the runtime's execution settings.
fn choice_is_identical(
    p: &Pipeline,
    inputs: &[(ImageId, Image)],
    choice: Choice,
    base: &kfuse_core::FusionConfig,
    exec: &FastConfig,
) -> bool {
    let Ok(reference) = execute_reference(p, inputs) else {
        return false;
    };
    let compiled = choice.compile(p, base);
    let cfg = runtime_fast_config(choice, exec);
    match execute_fast_with(&compiled, inputs, &cfg) {
        Ok(got) => p
            .outputs()
            .iter()
            .all(|&out| match (reference.image(out), got.image(out)) {
                (Some(a), Some(b)) => a.bit_equal(b),
                (None, None) => true,
                _ => false,
            }),
        Err(_) => false,
    }
}

/// One synchronous re-tuning pass. See the module docs for the steps.
pub(crate) fn retune_pass(shared: &Shared) -> RetuneReport {
    let mut report = RetuneReport::default();
    let Some(t) = shared.tuner.as_ref() else {
        return report;
    };

    // 1. Calibration: fit effective constants from the serving trace and
    // swap the policy, once, when a fit succeeds.
    if t.cfg.calibrate && shared.cfg.tracer.is_enabled() && !t.calibrated.load(Ordering::Relaxed) {
        let mut cal = Calibrator::new();
        cal.extend(kfuse_obs::trace_observations(&shared.cfg.tracer));
        let base_cfg = shared.policy.lock().unwrap().fusion_config().clone();
        let base_constants = base_cfg.model.constants();
        if let Ok(fit) = cal.fit(&base_constants) {
            if let Some(measured) = MeasuredPolicy::from_constants(base_cfg, fit.constants) {
                *shared.policy.lock().unwrap() = Arc::new(measured);
                // Every cached plan was compiled under the old policy.
                shared.cache.lock().unwrap().clear_plans();
                t.calibrated.store(true, Ordering::Relaxed);
                report.calibrated = true;
            }
        }
    }

    let policy = Arc::clone(&*shared.policy.lock().unwrap());
    let base = policy.fusion_config();

    // 2. Re-validate persisted entries whose sample pipeline has arrived.
    let pending: Vec<TunedEntry> = std::mem::take(&mut *t.pending.lock().unwrap());
    let mut still_pending = Vec::new();
    for entry in pending {
        let sample = t
            .samples
            .lock()
            .unwrap()
            .get(&entry.key.fingerprint)
            .cloned();
        let Some(p) = sample else {
            still_pending.push(entry);
            continue;
        };
        if TuneKey::for_pipeline(&p) != entry.key {
            // Same structure at a different size class: keep waiting for a
            // matching sample.
            still_pending.push(entry);
            continue;
        }
        if t.tuned.lock().unwrap().contains_key(&entry.key) {
            continue;
        }
        let inputs = probe_inputs(&p, t.cfg.probe_seed);
        if choice_is_identical(&p, &inputs, entry.choice, base, &shared.cfg.exec) {
            t.tuned.lock().unwrap().insert(entry.key, entry);
            report.installed.push(entry.key);
        }
        // Entries the oracle rejects are dropped, not retried forever.
    }
    t.pending.lock().unwrap().extend(still_pending);

    // 3. Autotune hot fingerprints. Stats are sorted most-looked-up
    // first, so the first cold fingerprint ends the scan.
    let stats = shared.cache.lock().unwrap().fingerprint_stats();
    for s in stats {
        if s.lookups() < t.cfg.hot_threshold {
            break;
        }
        let sample = t.samples.lock().unwrap().get(&s.fingerprint).cloned();
        let Some(p) = sample else { continue };
        let key = TuneKey::for_pipeline(&p);
        if t.tuned.lock().unwrap().contains_key(&key) {
            report.already_tuned += 1;
            continue;
        }
        let inputs = probe_inputs(&p, t.cfg.probe_seed);
        if let Ok(result) = autotune(&p, &inputs, base, &t.cfg.options) {
            if result.best.separable {
                continue;
            }
            let entry = TunedEntry {
                key,
                choice: result.best,
                median_us: result.best_sample.median_s * 1e6,
            };
            t.tuned.lock().unwrap().insert(key, entry);
            report.installed.push(key);
        }
    }

    // 4. Persist the installed winners, deterministically ordered.
    if let Some(path) = &t.cfg.persist_path {
        let entries: Vec<TunedEntry> = {
            let tuned = t.tuned.lock().unwrap();
            let mut v: Vec<TunedEntry> = tuned.values().copied().collect();
            v.sort_by_key(|e| (e.key.fingerprint, e.key.size_class));
            v
        };
        let _ = kfuse_tune::save(path, &entries);
    }

    report.tuned_total = t.tuned_count();
    report
}

/// Body of the background retuner thread: sleep `interval`, run a pass,
/// repeat; exit promptly when the shutdown flag is raised.
pub(crate) fn retuner_loop(shared: &Shared) {
    let Some(t) = shared.tuner.as_ref() else {
        return;
    };
    let mut stopped = t.stop.lock().unwrap();
    loop {
        if *stopped {
            return;
        }
        let (guard, timeout) = t.wake.wait_timeout(stopped, t.cfg.interval).unwrap();
        stopped = guard;
        if *stopped {
            return;
        }
        if timeout.timed_out() {
            drop(stopped);
            retune_pass(shared);
            stopped = t.stop.lock().unwrap();
        }
    }
}
