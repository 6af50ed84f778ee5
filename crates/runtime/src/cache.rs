//! The hierarchy cache: retained Galerkin setup with audited, drift-
//! bounded invalidation.
//!
//! The FP64 Galerkin triple-product chain (§4 lines 1–3) dominates
//! setup cost; the per-level scale-and-truncate that follows (lines
//! 4–14, Theorem 4.1) is cheap. A long-running daemon therefore keeps
//! one [`Retained`] chain per problem class and geometry and serves each
//! request through the reuse engine ([`fp16mg_core::reuse`]): the
//! incoming operator's audit is measured against the retained baseline
//! and [`Reuse::decide`] picks rescale or rebuild — reported here as
//! [`CacheEventKind::RescaledHit`] (after which an identical follow-up
//! is a fingerprint hit, [`CacheEventKind::Hit`]) and
//! [`CacheEventKind::DriftInvalidated`].
//!
//! What is the cache's own: the keying (per-class, reusing the breaker
//! registry's convention, so cache, breaker, and admission speak the same
//! class vocabulary), the lane-hash fingerprint that short-circuits
//! bit-equal operators before any audit runs, LRU and byte eviction, the
//! governor charges around the engine's actions, and the typed
//! [`CacheEvent`] trail, ring-bounded at [`EVENT_LOG_CAP`].

use std::collections::BTreeMap;

use fp16mg_core::{Mg, MgConfig, Retained, Reuse, ScaleStrategy, SetupError};
use fp16mg_fp::LaneHash;
use fp16mg_sgdia::audit::{OperatorDrift, RangeAudit};
use fp16mg_sgdia::{Layout, SgDia};

use crate::mem::{MemCharge, MemGovernor};
use crate::ring::Ring;

/// Cache tuning.
#[derive(Clone, Debug, Default)]
pub struct CacheConfig {
    /// Byte budget for retained chains (`None` = unbounded). Before an
    /// insert, least-recently-used entries are evicted until the new
    /// chain fits; an insert whose charge still fails is served
    /// *uncached* — a typed degrade, never an abort.
    pub byte_budget: Option<u64>,
}

/// Maximum retained entries (least-recently-used eviction beyond).
pub const CAPACITY: usize = 8;

/// Ring capacity of the typed event trail.
pub const EVENT_LOG_CAP: usize = 256;

/// What the cache decided for one acquire (or eviction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEventKind {
    /// Served from the cached chain unchanged: the operator is
    /// fingerprint-equal to its finest one (or a rescale's byte charge
    /// was refused, see [`HierarchyCache::acquire`]).
    Hit,
    /// Served after re-scaling the finest level from the drifted
    /// operator; the coarse Galerkin tail was reused.
    RescaledHit,
    /// Drift exceeded the rescale bound (or was structural): the entry
    /// was torn down and rebuilt from the incoming operator.
    DriftInvalidated,
    /// No usable entry existed; a fresh chain was built and cached.
    Rebuilt,
    /// An entry was evicted to make room (LRU).
    Evicted,
    /// An entry was evicted for *bytes*: the byte budget needed room.
    MemEvicted,
    /// The hierarchy was served but its chain was not retained: the
    /// cache-insert charge was refused (byte budget or injected fault).
    /// A degrade, not a failure — the caller still gets its solve.
    Uncached,
}

impl CacheEventKind {
    /// Short display label (trail vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            CacheEventKind::Hit => "hit",
            CacheEventKind::RescaledHit => "rescaled-hit",
            CacheEventKind::DriftInvalidated => "drift-invalidated",
            CacheEventKind::Rebuilt => "rebuilt",
            CacheEventKind::Evicted => "evicted",
            CacheEventKind::MemEvicted => "mem-evicted",
            CacheEventKind::Uncached => "uncached",
        }
    }
}

impl core::fmt::Display for CacheEventKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One typed cache decision, in the ring-bounded trail.
#[derive(Clone, Debug)]
pub struct CacheEvent {
    /// What happened.
    pub kind: CacheEventKind,
    /// The problem class the decision was about.
    pub class: String,
    /// The measured drift, when an audit ran (absent for fingerprint
    /// hits, cold builds, and evictions).
    pub drift: Option<OperatorDrift>,
}

/// Cache key: the breaker registry's class string plus the operator
/// geometry, so one class solving two grid sizes gets two entries
/// instead of thrash.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Problem class (the breaker/admission keying).
    pub class: String,
    /// Finest grid dims.
    pub dims: (usize, usize, usize),
    /// Components per cell.
    pub components: usize,
    /// Stencil taps.
    pub taps: usize,
}

impl CacheKey {
    /// The key of `class` solving `a`.
    pub fn of(class: &str, a: &SgDia<f64>) -> Self {
        let g = a.grid();
        CacheKey {
            class: class.to_string(),
            dims: (g.nx, g.ny, g.nz),
            components: g.components,
            taps: a.pattern().len(),
        }
    }
}

/// Aggregate decision counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plain hits (fingerprint-equal, or a refused rescale charge).
    pub hits: u64,
    /// Rescale-in-place hits.
    pub rescaled_hits: u64,
    /// Drift invalidations (each followed by a rebuild of the entry).
    pub drift_invalidations: u64,
    /// Cold builds (no usable entry).
    pub rebuilds: u64,
    /// LRU evictions.
    pub evictions: u64,
}

/// Checkpointable description of one entry — everything except the
/// matrices themselves. A restored entry is *cold* (its first acquire
/// rebuilds the chain) but keeps its identity and counters, so cache
/// effectiveness statistics survive a restart honestly.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntryMeta {
    /// The entry's key.
    pub key: CacheKey,
    /// Lane-hash fingerprint of the finest operator's raw bits.
    pub fingerprint: u64,
    /// Times this entry served a plain hit.
    pub hits: u64,
    /// Times this entry served a rescaled hit.
    pub rescaled_hits: u64,
    /// Times this entry was (re)built.
    pub builds: u64,
}

/// What a warm entry retains, and the receipt for its bytes.
#[derive(Debug)]
struct Warm {
    retained: Retained,
    /// The configuration the chain was built under; any other is a miss.
    config: MgConfig,
    /// The governor receipt for the chain's bytes. Dropping it credits
    /// them back — double-charging is impossible by construction.
    charge: MemCharge,
}

/// One cache slot: identity and counters, and the retained setup while
/// the slot is warm. Cold after a snapshot restore (metadata only), a
/// refused retention or a failed rescale, until the next rebuild.
#[derive(Debug, Default)]
struct CacheEntry {
    warm: Option<Warm>,
    fingerprint: u64,
    last_used: u64,
    hits: u64,
    rescaled_hits: u64,
    builds: u64,
}

/// The per-class, drift-audited hierarchy cache.
#[derive(Debug)]
pub struct HierarchyCache {
    cfg: CacheConfig,
    entries: BTreeMap<CacheKey, CacheEntry>,
    events: Ring<CacheEvent>,
    stats: CacheStats,
    /// Byte accounting for retained chains (`"cache-insert"` /
    /// `"rescale"` charge classes). Unlimited unless the cache was
    /// built with [`HierarchyCache::with_governor`].
    governor: MemGovernor,
    /// Evictions forced by bytes rather than entry count (also counted
    /// in `stats.evictions`).
    mem_evictions: u64,
    /// Serves whose chain retention was refused (charge failed).
    uncached: u64,
    tick: u64,
}

impl HierarchyCache {
    /// An empty cache with private (unlimited) byte accounting.
    pub fn new(cfg: CacheConfig) -> Self {
        Self::with_governor(cfg, MemGovernor::unlimited())
    }

    /// An empty cache charging its retained bytes against `governor` —
    /// the shape a daemon uses so cache bytes and hierarchy bytes share
    /// one budget.
    pub fn with_governor(cfg: CacheConfig, governor: MemGovernor) -> Self {
        HierarchyCache {
            cfg,
            entries: BTreeMap::new(),
            events: Ring::new(EVENT_LOG_CAP),
            stats: CacheStats::default(),
            governor,
            mem_evictions: 0,
            uncached: 0,
            tick: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Aggregate decision counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Bytes currently retained by warm entries' chains.
    pub fn cache_bytes(&self) -> u64 {
        self.entries.values().filter_map(|e| e.warm.as_ref()).map(|w| w.charge.bytes()).sum()
    }

    /// Evictions forced by byte pressure (subset of `stats().evictions`).
    pub fn mem_evictions(&self) -> u64 {
        self.mem_evictions
    }

    /// Serves whose chain retention was refused by the byte accounting
    /// (the `uncached` degrade rung).
    pub fn uncached_serves(&self) -> u64 {
        self.uncached
    }

    /// The most recent typed decisions (ring-bounded).
    pub fn events(&self) -> &[CacheEvent] {
        &self.events
    }

    /// Produces a hierarchy for `class` solving `matrix` under `config`,
    /// reusing the retained Galerkin chain when the audited drift allows,
    /// and returns the typed decision alongside.
    ///
    /// `ScaleThenSetup` configs are served by a full build without
    /// touching the cache (their chains are single-use; see
    /// [`fp16mg_core::GalerkinChain::build`]) — recorded as a rebuild,
    /// never retained.
    ///
    /// # Errors
    /// Propagates [`SetupError`] from whichever build path ran. A failed
    /// hit or rebuild leaves the previous entry untouched; a failed
    /// rescale leaves it cold (see [`Retained::adopt_finest`]), so the
    /// next acquire rebuilds.
    pub fn acquire(
        &mut self,
        class: &str,
        matrix: &SgDia<f64>,
        config: &MgConfig,
    ) -> Result<(Mg<f32>, CacheEventKind), SetupError> {
        self.tick += 1;
        if config.scale == ScaleStrategy::ScaleThenSetup {
            let mg = Mg::<f32>::setup(matrix, config)?;
            self.record(CacheEventKind::Rebuilt, class, None);
            return Ok((mg, CacheEventKind::Rebuilt));
        }
        let key = CacheKey::of(class, matrix);
        let fingerprint = fingerprint(matrix);

        // Fast path: a warm entry with a matching config.
        if let Some(entry) = self.entries.get(&key) {
            if let Some(warm) = entry.warm.as_ref().filter(|w| w.config == *config) {
                if fingerprint == entry.fingerprint {
                    return self.serve_hit(&key, config, None);
                }
                let now = Retained::audit(matrix);
                let d = warm.retained.drift(&now);
                return match Reuse::decide(&d) {
                    Reuse::Rescale => {
                        self.serve_rescaled(&key, matrix, config, fingerprint, now, d)
                    }
                    Reuse::Rebuild => {
                        self.build_into(key, matrix, config, fingerprint, now, Some(d))
                    }
                };
            }
        }
        // Cold (no entry, config changed, or metadata-only after a
        // restore): build fresh. A config change or restored entry is a
        // rebuild of an existing slot; a brand-new key may evict.
        if !self.entries.contains_key(&key) {
            self.evict_for_room();
        }
        self.build_into(key, matrix, config, fingerprint, Retained::audit(matrix), None)
    }

    /// Serves a plain hit from the warm entry at `key`.
    fn serve_hit(
        &mut self,
        key: &CacheKey,
        config: &MgConfig,
        d: Option<OperatorDrift>,
    ) -> Result<(Mg<f32>, CacheEventKind), SetupError> {
        let entry = self.entries.get_mut(key).expect("hit entry exists");
        let mg = entry.warm.as_ref().expect("hit entry is warm").retained.hierarchy(config)?;
        entry.hits += 1;
        entry.last_used = self.tick;
        self.stats.hits += 1;
        self.record(CacheEventKind::Hit, &key.class, d);
        Ok((mg, CacheEventKind::Hit))
    }

    /// Serves a rescaled hit: `matrix` becomes the retained chain's finest
    /// operator, baseline and fingerprint (so an identical follow-up
    /// operator fingerprint-hits) and the coarse tail is reused.
    fn serve_rescaled(
        &mut self,
        key: &CacheKey,
        matrix: &SgDia<f64>,
        config: &MgConfig,
        fingerprint: u64,
        now: RangeAudit,
        d: OperatorDrift,
    ) -> Result<(Mg<f32>, CacheEventKind), SetupError> {
        // The rescale copies the operator into the chain in place; its
        // assembly holds a transient carried copy of the coarse tail
        // (`W_l A_l W_l`, fewer bytes than the finest operator). Charge a
        // finest operator's bytes before doing the work, and hold the
        // receipt so the transient bytes stay tracked until return.
        // A refused charge degrades to serving the *stale* chain as a
        // plain hit: its tail is not carried to the new diagonal (the
        // drift is within the rescale bound), zero new bytes, and the
        // outer Krylov iteration still runs on the caller's exact matrix.
        let Ok(_rescale_charge) = self.governor.try_charge("rescale", matrix.value_bytes() as u64)
        else {
            return self.serve_hit(key, config, Some(d));
        };
        let entry = self.entries.get_mut(key).expect("rescale entry exists");
        let retained = &mut entry.warm.as_mut().expect("rescale entry is warm").retained;
        let mg = match retained
            .adopt_finest(matrix, now, config)
            .and_then(|()| retained.hierarchy(config))
        {
            Ok(mg) => mg,
            Err(e) => {
                entry.warm = None;
                return Err(e);
            }
        };
        entry.fingerprint = fingerprint;
        entry.rescaled_hits += 1;
        entry.last_used = self.tick;
        self.stats.rescaled_hits += 1;
        self.record(CacheEventKind::RescaledHit, &key.class, Some(d));
        Ok((mg, CacheEventKind::RescaledHit))
    }

    /// Builds a fresh chain + hierarchy for `matrix` (audited as `now`)
    /// and installs it at `key`, preserving the previous entry's counters
    /// if one existed. With a measured drift this is a drift
    /// invalidation; without one it is a plain rebuild (cold entry,
    /// changed config, restored metadata).
    fn build_into(
        &mut self,
        key: CacheKey,
        matrix: &SgDia<f64>,
        config: &MgConfig,
        fingerprint: u64,
        now: RangeAudit,
        d: Option<OperatorDrift>,
    ) -> Result<(Mg<f32>, CacheEventKind), SetupError> {
        let retained = Retained::build(matrix, now, config)?;
        let mg = retained.hierarchy(config)?;
        let kind = if d.is_some() {
            self.stats.drift_invalidations += 1;
            CacheEventKind::DriftInvalidated
        } else {
            self.stats.rebuilds += 1;
            CacheEventKind::Rebuilt
        };
        // Retention is fallible: release the bytes of whatever chain the
        // slot held (it is being replaced either way), make room under
        // the byte budget, and charge the new chain. A refused charge
        // degrades to an uncached serve — the caller still gets its
        // hierarchy, the slot just goes away.
        let bytes = retained.chain().value_bytes() as u64;
        if let Some(old) = self.entries.get_mut(&key) {
            old.warm = None;
        }
        self.evict_for_bytes(bytes);
        let Ok(charge) = self.governor.try_charge("cache-insert", bytes) else {
            self.entries.remove(&key);
            self.uncached += 1;
            self.record(CacheEventKind::Uncached, &key.class, d);
            return Ok((mg, CacheEventKind::Uncached));
        };
        self.record(kind, &key.class, d);
        let entry = self.entries.entry(key).or_default();
        entry.warm = Some(Warm { retained, config: config.clone(), charge });
        entry.fingerprint = fingerprint;
        entry.last_used = self.tick;
        entry.builds += 1;
        Ok((mg, kind))
    }

    /// Evicts least-recently-used entries until a new key fits.
    fn evict_for_room(&mut self) {
        while self.entries.len() >= CAPACITY {
            self.evict_lru(CacheEventKind::Evicted);
        }
    }

    /// Evicts LRU entries until `incoming_bytes` more would fit within
    /// the byte budget (no-op when unbounded).
    fn evict_for_bytes(&mut self, incoming_bytes: u64) {
        let Some(budget) = self.cfg.byte_budget else { return };
        while !self.entries.is_empty() && self.cache_bytes().saturating_add(incoming_bytes) > budget
        {
            self.evict_lru(CacheEventKind::MemEvicted);
        }
    }

    /// Removes the least-recently-used entry, recording `kind`
    /// (`Evicted` for count pressure, `MemEvicted` for byte pressure).
    /// Dropping the entry drops its charge receipt, so the governor's
    /// accounting credits back exactly once.
    fn evict_lru(&mut self, kind: CacheEventKind) {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
            .expect("non-empty cache has an LRU entry");
        self.entries.remove(&victim);
        self.stats.evictions += 1;
        if kind == CacheEventKind::MemEvicted {
            self.mem_evictions += 1;
        }
        self.record(kind, &victim.class, None);
    }

    fn record(&mut self, kind: CacheEventKind, class: &str, drift: Option<OperatorDrift>) {
        self.events.push(CacheEvent { kind, class: class.to_string(), drift });
    }

    /// Checkpointable metadata of every entry, in key order.
    pub fn metadata(&self) -> Vec<CacheEntryMeta> {
        self.entries
            .iter()
            .map(|(key, e)| CacheEntryMeta {
                key: key.clone(),
                fingerprint: e.fingerprint,
                hits: e.hits,
                rescaled_hits: e.rescaled_hits,
                builds: e.builds,
            })
            .collect()
    }

    /// Restores metadata-only (cold) entries from a snapshot. Existing
    /// warm entries of the same key are left untouched — a restore
    /// never discards real cached work.
    pub fn restore_metadata(&mut self, metas: &[CacheEntryMeta]) {
        for m in metas {
            self.entries.entry(m.key.clone()).or_insert_with(|| CacheEntry {
                fingerprint: m.fingerprint,
                hits: m.hits,
                rescaled_hits: m.rescaled_hits,
                builds: m.builds,
                ..CacheEntry::default()
            });
        }
    }

    /// Restores the aggregate counters from a snapshot.
    pub fn restore_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
    }
}

/// The lane hash ([`LaneHash`]) of the raw bit patterns of every stored
/// entry, cell-major within each tap (layout-independent, like the ABFT
/// sentinels): bit-identical operators have equal fingerprints, and
/// operators that differ in one entry never do. SOA data *is* that order
/// and is read as the one slice it is.
pub fn fingerprint(a: &SgDia<f64>) -> u64 {
    let mut h = LaneHash::new::<f64>();
    match a.layout() {
        Layout::Soa => h.write_slice(a.data()),
        Layout::Aos => {
            for tap in 0..a.pattern().len() {
                (0..a.grid().cells()).for_each(|cell| h.write_value(a.get(cell, tap)));
            }
        }
    }
    h.finish()
}
