//! LRU cache of compiled execution plans.
//!
//! The key is `(structural fingerprint, schedule, executor config)`: any of
//! the three changing means the cached tapes are not the right artifact.
//! The structural fingerprint ([`kfuse_ir::Pipeline::fingerprint`]) is
//! deliberately independent of names and insertion order, so two tenants
//! submitting the same computation share one plan — but that also means a
//! key match alone does not prove the caller's `ImageId` bindings line up
//! with the cached pipeline's image table. Each entry therefore carries the
//! order-*sensitive* [`kfuse_ir::Pipeline::binding_fingerprint`] of the
//! pipeline it was compiled from; a lookup only reuses the plan when that
//! layout hash matches too. A structural match with a different id layout
//! just recompiles — never returns results bound to the wrong images.

use kfuse_dsl::Schedule;
use kfuse_sim::{CompiledPlan, FastConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: what must be identical for a compiled plan to be the right
/// artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Structural pipeline identity ([`kfuse_ir::Pipeline::fingerprint`]).
    pub fingerprint: u64,
    /// Fusion schedule the plan was compiled under.
    pub schedule: Schedule,
    /// Executor configuration (strip height, threads).
    pub exec: FastConfig,
}

/// A cached plan plus the id-layout hash guarding its reuse.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// [`kfuse_ir::Pipeline::binding_fingerprint`] of the submitted
    /// pipeline this plan was compiled from.
    pub layout: u64,
    /// The compiled plan, shared with any in-flight executions.
    pub plan: Arc<CompiledPlan>,
}

/// Hit/miss tallies for one structural fingerprint, across every
/// `(schedule, exec)` variant it was looked up under.
///
/// A fingerprint with many lookups is *hot* — repeat traffic —
/// regardless of whether those lookups hit or missed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FingerprintStats {
    /// Structural pipeline fingerprint.
    pub fingerprint: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no reusable plan.
    pub misses: u64,
}

impl FingerprintStats {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Distinct fingerprints tracked in the stats table. Bounding it keeps a
/// fingerprint-churning tenant from growing the table without limit; at
/// the cap, *new* fingerprints simply go untracked (existing tallies keep
/// counting) — hot fingerprints by definition recur, so they are tracked
/// long before the table fills.
const MAX_TRACKED_FINGERPRINTS: usize = 64;

/// A bounded least-recently-used map from [`PlanKey`] to [`CachedPlan`].
///
/// Recency is a monotone tick bumped on every hit/insert; eviction scans
/// for the minimum. That is O(capacity), which is fine at plan-cache sizes
/// (tens of entries, each worth milliseconds of planning).
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    evictions: u64,
    map: HashMap<PlanKey, (u64, CachedPlan)>,
    stats: HashMap<u64, FingerprintStats>,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans. Capacity 0
    /// disables caching entirely (every `get` misses, `insert` is a no-op).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            evictions: 0,
            map: HashMap::new(),
            stats: HashMap::new(),
        }
    }

    /// Looks up `key`, marking the entry most-recently used on hit.
    pub fn get(&mut self, key: &PlanKey) -> Option<CachedPlan> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(used, entry)| {
            *used = tick;
            entry.clone()
        })
    }

    /// Looks up `key` and applies the id-layout guard: the plan is
    /// returned only when the entry's [`CachedPlan::layout`] matches the
    /// caller's [`kfuse_ir::Pipeline::binding_fingerprint`]. A structural
    /// match with a different layout is a miss — the caller recompiles
    /// rather than binding its images to the wrong slots.
    ///
    /// Every lookup also tallies into the per-fingerprint [`FingerprintStats`]
    /// (including guarded misses — they are misses from the caller's view).
    pub fn lookup(&mut self, key: &PlanKey, layout: u64) -> Option<CachedPlan> {
        let found = self.get(key).filter(|entry| entry.layout == layout);
        if self.stats.len() < MAX_TRACKED_FINGERPRINTS || self.stats.contains_key(&key.fingerprint)
        {
            let s = self
                .stats
                .entry(key.fingerprint)
                .or_insert_with(|| FingerprintStats {
                    fingerprint: key.fingerprint,
                    ..FingerprintStats::default()
                });
            if found.is_some() {
                s.hits += 1;
            } else {
                s.misses += 1;
            }
        }
        found
    }

    /// Per-fingerprint lookup tallies, most-looked-up first (fingerprint
    /// as the tie-break, so the order is deterministic).
    pub fn fingerprint_stats(&self) -> Vec<FingerprintStats> {
        let mut out: Vec<FingerprintStats> = self.stats.values().copied().collect();
        out.sort_by(|a, b| {
            b.lookups()
                .cmp(&a.lookups())
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        out
    }

    /// Inserts (or replaces) the plan for `key`, evicting the
    /// least-recently-used entry if the cache is full.
    ///
    /// Symmetric with the layout guard in [`Self::lookup`]: re-inserting
    /// under an occupied key keeps the latest entry, and when the displaced
    /// entry's [`CachedPlan::layout`] differs the replacement is counted as
    /// an eviction — that is the cross-tenant thrash signature (same
    /// structure, different id layouts, one slot), and it must show up in
    /// the metrics rather than silently discarding compiled plans.
    /// Idempotent re-inserts (same key, same layout) are not counted.
    pub fn insert(&mut self, key: PlanKey, entry: CachedPlan) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        match self.map.get_mut(&key) {
            Some((used, existing)) => {
                if existing.layout != entry.layout {
                    self.evictions += 1;
                }
                *used = self.tick;
                *existing = entry;
            }
            None => {
                if self.map.len() >= self.capacity {
                    if let Some(oldest) = self
                        .map
                        .iter()
                        .min_by_key(|(_, (used, _))| *used)
                        .map(|(k, _)| *k)
                    {
                        self.map.remove(&oldest);
                        self.evictions += 1;
                    }
                }
                self.map.insert(key, (self.tick, entry));
            }
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of plans this cache holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative count of displaced entries: LRU evictions to make room,
    /// plus same-key replacements whose layout hash differed (see
    /// [`Self::insert`]). Idempotent re-inserts and capacity-0 drops are
    /// not counted.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::{BorderMode, Expr, ImageDesc, Kernel, Pipeline};

    fn key(fp: u64) -> PlanKey {
        PlanKey {
            fingerprint: fp,
            schedule: Schedule::Optimized,
            exec: FastConfig::default(),
        }
    }

    fn entry() -> CachedPlan {
        let mut p = Pipeline::new("p");
        let input = p.add_input(ImageDesc::new("in", 2, 2, 1));
        let out = p.add_image(ImageDesc::new("out", 2, 2, 1));
        p.add_kernel(Kernel::simple(
            "id",
            vec![input],
            out,
            vec![BorderMode::Clamp],
            vec![Expr::load(0)],
            vec![],
        ));
        p.mark_output(out);
        CachedPlan {
            layout: p.binding_fingerprint(),
            plan: Arc::new(CompiledPlan::compile(&p).unwrap()),
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        c.insert(key(1), entry());
        c.insert(key(2), entry());
        // Touch 1 so 2 becomes the LRU entry.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), entry());
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(2)).is_none());
        assert!(c.get(&key(3)).is_some());
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut c = PlanCache::new(2);
        c.insert(key(1), entry());
        c.insert(key(2), entry());
        c.insert(key(2), entry()); // replace, not a new entry
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(1)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PlanCache::new(0);
        c.insert(key(1), entry());
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn eviction_order_is_strict_lru_and_counted() {
        let mut c = PlanCache::new(3);
        c.insert(key(1), entry());
        c.insert(key(2), entry());
        c.insert(key(3), entry());
        assert_eq!(c.evictions(), 0);
        // Recency order is now 1 < 2 < 3; refresh 1 so 2 is the oldest.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(4), entry()); // evicts 2
        c.insert(key(5), entry()); // evicts 3 (next-oldest)
        assert!(c.get(&key(2)).is_none());
        assert!(c.get(&key(3)).is_none());
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(4)).is_some());
        assert!(c.get(&key(5)).is_some());
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.capacity(), 3);
    }

    #[test]
    fn lookup_rejects_mismatched_layout() {
        let mut c = PlanCache::new(4);
        let e = entry();
        let layout = e.layout;
        c.insert(key(1), e);
        // Same structural key, different id layout: the guard refuses the
        // plan rather than binding foreign images to cached slots.
        assert!(c.lookup(&key(1), layout.wrapping_add(1)).is_none());
        assert!(c.lookup(&key(1), layout).is_some());
        // The entry survives a guarded miss — it is a reuse refusal, not
        // an invalidation.
        assert_eq!(c.len(), 1);
    }

    /// Double-insert under one key: a same-layout re-insert is idempotent
    /// and uncounted; a different-layout re-insert replaces the entry and
    /// bumps the eviction counter (pre-fix it replaced silently), keeping
    /// `insert` symmetric with the layout-guarded `lookup`.
    #[test]
    fn double_insert_is_layout_aware() {
        let mut c = PlanCache::new(4);
        let e = entry();
        let layout = e.layout;
        let plan = Arc::clone(&e.plan);
        c.insert(key(1), e.clone());
        c.insert(key(1), e);
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 0);

        // Same key, different layout: latest wins, displacement counted.
        let foreign = CachedPlan {
            layout: layout.wrapping_add(1),
            plan,
        };
        c.insert(key(1), foreign);
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 1);
        assert!(c.lookup(&key(1), layout).is_none());
        assert!(c.lookup(&key(1), layout.wrapping_add(1)).is_some());

        // Replacing back bumps again: the thrash stays visible.
        c.insert(key(1), entry());
        assert_eq!(c.evictions(), 2);
        assert!(c.lookup(&key(1), layout).is_some());
    }

    #[test]
    fn fingerprint_stats_tally_hits_and_misses() {
        let mut c = PlanCache::new(4);
        let e = entry();
        let layout = e.layout;
        // Miss, insert, hit, hit for fingerprint 1; one miss for 2.
        assert!(c.lookup(&key(1), layout).is_none());
        c.insert(key(1), e);
        assert!(c.lookup(&key(1), layout).is_some());
        assert!(c.lookup(&key(1), layout).is_some());
        // A guarded (layout-mismatch) lookup counts as a miss too.
        assert!(c.lookup(&key(1), layout.wrapping_add(1)).is_none());
        assert!(c.lookup(&key(2), layout).is_none());
        let stats = c.fingerprint_stats();
        assert_eq!(stats.len(), 2);
        // Sorted by total lookups: fingerprint 1 (4 lookups) first.
        assert_eq!(stats[0].fingerprint, 1);
        assert_eq!(stats[0].hits, 2);
        assert_eq!(stats[0].misses, 2);
        assert_eq!(stats[0].lookups(), 4);
        assert_eq!(stats[1].fingerprint, 2);
        assert_eq!(stats[1].misses, 1);
        // Raw `get` does not tally: only layout-guarded lookups are
        // request-path traffic.
        c.get(&key(1));
        assert_eq!(c.fingerprint_stats()[0].lookups(), 4);
    }

    #[test]
    fn fingerprint_stats_table_is_bounded() {
        let mut c = PlanCache::new(2);
        for fp in 0..(super::MAX_TRACKED_FINGERPRINTS as u64 + 10) {
            c.lookup(&key(fp), 0);
        }
        assert_eq!(c.fingerprint_stats().len(), super::MAX_TRACKED_FINGERPRINTS);
        // Tracked fingerprints keep counting past the cap.
        c.lookup(&key(3), 0);
        let s = c
            .fingerprint_stats()
            .into_iter()
            .find(|s| s.fingerprint == 3)
            .unwrap();
        assert_eq!(s.lookups(), 2);
    }

    #[test]
    fn schedule_and_config_distinguish_keys() {
        let base = key(7);
        let other_schedule = PlanKey {
            schedule: Schedule::Baseline,
            ..base
        };
        let other_exec = PlanKey {
            exec: FastConfig {
                strip_rows: Some(32),
                ..FastConfig::default()
            },
            ..base
        };
        let mut c = PlanCache::new(8);
        c.insert(base, entry());
        assert!(c.get(&other_schedule).is_none());
        assert!(c.get(&other_exec).is_none());
        assert!(c.get(&base).is_some());
    }
}
