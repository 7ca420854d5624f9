//! Cache statistics.
//!
//! Two granularities matter in this system:
//!
//! - **chunk-level** hits/misses, recorded by the cache itself on every
//!   `get`;
//! - **object-level** full/partial hits (the paper's Figure 7 metric: a
//!   request is a *total hit* if every chunk came from the cache, a
//!   *partial hit* if at least one did), recorded by whoever assembles
//!   whole objects via [`CacheStats::record_object_read`].

use agar_obs::{Counter, Labels, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Counters describing cache effectiveness.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct CacheStats {
    chunk_hits: u64,
    chunk_misses: u64,
    insertions: u64,
    evictions: u64,
    rejected_inserts: u64,
    object_total_hits: u64,
    object_partial_hits: u64,
    object_misses: u64,
    coalesced_fetches: u64,
    batched_requests: u64,
    lease_grants: u64,
    lease_contentions: u64,
    targeted_invalidations: u64,
    decode_plan_hits: u64,
    systematic_fast_reads: u64,
    hedged_requests: u64,
    hedge_wins: u64,
    hedges_cancelled: u64,
    disk_hits: u64,
    tier_promotions: u64,
    tier_demotions: u64,
    disk_evictions: u64,
}

impl CacheStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        CacheStats::default()
    }

    pub(crate) fn record_chunk_hit(&mut self) {
        self.chunk_hits += 1;
    }

    pub(crate) fn record_chunk_miss(&mut self) {
        self.chunk_misses += 1;
    }

    pub(crate) fn record_insertion(&mut self) {
        self.insertions += 1;
    }

    pub(crate) fn record_eviction(&mut self) {
        self.evictions += 1;
    }

    pub(crate) fn record_rejected_insert(&mut self) {
        self.rejected_inserts += 1;
    }

    /// Records an object-level read outcome: `cached_chunks` of the
    /// `needed_chunks` required chunks came from the cache.
    ///
    /// Matches the paper's hit-ratio definition: all chunks cached is a
    /// total hit, at least one cached is a partial hit, none is a miss.
    pub fn record_object_read(&mut self, cached_chunks: usize, needed_chunks: usize) {
        if needed_chunks > 0 && cached_chunks >= needed_chunks {
            self.object_total_hits += 1;
        } else if cached_chunks > 0 {
            self.object_partial_hits += 1;
        } else {
            self.object_misses += 1;
        }
    }

    /// Chunk-level hits.
    pub fn chunk_hits(&self) -> u64 {
        self.chunk_hits
    }

    /// Chunk-level misses.
    pub fn chunk_misses(&self) -> u64 {
        self.chunk_misses
    }

    /// Successful insertions.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Entries evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Insertions rejected (entry larger than the whole cache, or vetoed
    /// by an admission policy).
    pub fn rejected_inserts(&self) -> u64 {
        self.rejected_inserts
    }

    /// Object reads where every needed chunk was cached.
    pub fn object_total_hits(&self) -> u64 {
        self.object_total_hits
    }

    /// Object reads where some but not all needed chunks were cached.
    pub fn object_partial_hits(&self) -> u64 {
        self.object_partial_hits
    }

    /// Object reads served entirely from the backend.
    pub fn object_misses(&self) -> u64 {
        self.object_misses
    }

    /// Backend fetches served by an in-flight duplicate instead of a
    /// round trip of their own (single-flight coalescing).
    pub fn coalesced_fetches(&self) -> u64 {
        self.coalesced_fetches
    }

    /// Batched backend round trips issued (one per region group).
    pub fn batched_requests(&self) -> u64 {
        self.batched_requests
    }

    /// Per-object write leases granted.
    pub fn lease_grants(&self) -> u64 {
        self.lease_grants
    }

    /// Writes that waited behind another writer's lease on the same
    /// object.
    pub fn lease_contentions(&self) -> u64 {
        self.lease_contentions
    }

    /// Targeted invalidations sent on lease release (only to members
    /// whose caches held chunks of the written object).
    pub fn targeted_invalidations(&self) -> u64 {
        self.targeted_invalidations
    }

    /// Records one degraded decode that reused a cached decode plan
    /// (same erasure pattern as an earlier read: no matrix inversion).
    pub fn record_decode_plan_hit(&mut self) {
        self.decode_plan_hits += 1;
    }

    /// Records one object read served by the systematic fast path
    /// (all k data shards present: zero GF multiplies, at most one
    /// object-sized allocation).
    pub fn record_systematic_fast_read(&mut self) {
        self.systematic_fast_reads += 1;
    }

    /// Degraded decodes that skipped the Gaussian inversion because the
    /// erasure pattern's decode plan was already cached.
    pub fn decode_plan_hits(&self) -> u64 {
        self.decode_plan_hits
    }

    /// Object reads that took the zero-GF systematic fast path.
    pub fn systematic_fast_reads(&self) -> u64 {
        self.systematic_fast_reads
    }

    /// Hedge (speculative duplicate) backend requests issued.
    pub fn hedged_requests(&self) -> u64 {
        self.hedged_requests
    }

    /// Hedges that beat a primary into the first-k set and were bound
    /// into the decode.
    pub fn hedge_wins(&self) -> u64 {
        self.hedge_wins
    }

    /// Straggler responses discarded because the read was already
    /// satisfied by k faster arrivals.
    pub fn hedges_cancelled(&self) -> u64 {
        self.hedges_cancelled
    }

    /// Chunk lookups served by the disk tier after a RAM miss.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits
    }

    /// Chunks promoted disk → RAM.
    pub fn tier_promotions(&self) -> u64 {
        self.tier_promotions
    }

    /// RAM eviction victims demoted to disk instead of dropped.
    pub fn tier_demotions(&self) -> u64 {
        self.tier_demotions
    }

    /// Entries evicted from the disk tier for capacity.
    pub fn disk_evictions(&self) -> u64 {
        self.disk_evictions
    }

    /// Total object reads recorded.
    pub fn object_reads(&self) -> u64 {
        self.object_total_hits + self.object_partial_hits + self.object_misses
    }

    /// Chunk-level hit ratio in `[0, 1]`; 0 if nothing recorded.
    pub fn chunk_hit_ratio(&self) -> f64 {
        let total = self.chunk_hits + self.chunk_misses;
        if total == 0 {
            0.0
        } else {
            self.chunk_hits as f64 / total as f64
        }
    }

    /// The paper's Figure 7 metric: (total + partial hits) / requests.
    pub fn object_hit_ratio(&self) -> f64 {
        let total = self.object_reads();
        if total == 0 {
            0.0
        } else {
            (self.object_total_hits + self.object_partial_hits) as f64 / total as f64
        }
    }

    /// The counters accumulated since an earlier snapshot (saturating;
    /// used for per-batch statistics on a long-lived cache).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            chunk_hits: self.chunk_hits.saturating_sub(earlier.chunk_hits),
            chunk_misses: self.chunk_misses.saturating_sub(earlier.chunk_misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            rejected_inserts: self
                .rejected_inserts
                .saturating_sub(earlier.rejected_inserts),
            object_total_hits: self
                .object_total_hits
                .saturating_sub(earlier.object_total_hits),
            object_partial_hits: self
                .object_partial_hits
                .saturating_sub(earlier.object_partial_hits),
            object_misses: self.object_misses.saturating_sub(earlier.object_misses),
            coalesced_fetches: self
                .coalesced_fetches
                .saturating_sub(earlier.coalesced_fetches),
            batched_requests: self
                .batched_requests
                .saturating_sub(earlier.batched_requests),
            lease_grants: self.lease_grants.saturating_sub(earlier.lease_grants),
            lease_contentions: self
                .lease_contentions
                .saturating_sub(earlier.lease_contentions),
            targeted_invalidations: self
                .targeted_invalidations
                .saturating_sub(earlier.targeted_invalidations),
            decode_plan_hits: self
                .decode_plan_hits
                .saturating_sub(earlier.decode_plan_hits),
            systematic_fast_reads: self
                .systematic_fast_reads
                .saturating_sub(earlier.systematic_fast_reads),
            hedged_requests: self.hedged_requests.saturating_sub(earlier.hedged_requests),
            hedge_wins: self.hedge_wins.saturating_sub(earlier.hedge_wins),
            hedges_cancelled: self
                .hedges_cancelled
                .saturating_sub(earlier.hedges_cancelled),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            tier_promotions: self.tier_promotions.saturating_sub(earlier.tier_promotions),
            tier_demotions: self.tier_demotions.saturating_sub(earlier.tier_demotions),
            disk_evictions: self.disk_evictions.saturating_sub(earlier.disk_evictions),
        }
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.chunk_hits += other.chunk_hits;
        self.chunk_misses += other.chunk_misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.rejected_inserts += other.rejected_inserts;
        self.object_total_hits += other.object_total_hits;
        self.object_partial_hits += other.object_partial_hits;
        self.object_misses += other.object_misses;
        self.coalesced_fetches += other.coalesced_fetches;
        self.batched_requests += other.batched_requests;
        self.lease_grants += other.lease_grants;
        self.lease_contentions += other.lease_contentions;
        self.targeted_invalidations += other.targeted_invalidations;
        self.decode_plan_hits += other.decode_plan_hits;
        self.systematic_fast_reads += other.systematic_fast_reads;
        self.hedged_requests += other.hedged_requests;
        self.hedge_wins += other.hedge_wins;
        self.hedges_cancelled += other.hedges_cancelled;
        self.disk_hits += other.disk_hits;
        self.tier_promotions += other.tier_promotions;
        self.tier_demotions += other.tier_demotions;
        self.disk_evictions += other.disk_evictions;
    }
}

/// Lock-free cache counters for concurrently shared caches.
///
/// Mirrors [`CacheStats`] field for field, but every counter is a
/// registry [`Counter`] (a shared relaxed atomic) so many reader
/// threads can record outcomes without any lock (the sharded cache
/// records hits, misses and object-level reads here), and so the same
/// cells can be late-bound into a [`MetricsRegistry`] via
/// [`AtomicCacheStats::register_with`] — the scrape endpoint and this
/// struct observe the same memory. [`AtomicCacheStats::snapshot`]
/// materialises a plain [`CacheStats`] for reporting.
///
/// # Snapshot semantics (non-atomic; fields may drift)
///
/// [`AtomicCacheStats::snapshot`] loads each field independently with
/// `Ordering::Relaxed` — there is no global lock and no seqlock, so
/// the copy is **not** a consistent cut of all 22 counters. While
/// writers are running, a snapshot may see counter A's increment from
/// an event but not counter B's from the *same* event (e.g. a chunk
/// hit recorded but the enclosing object read not yet classified).
///
/// What relaxed per-field loads *do* guarantee:
///
/// - each field individually is monotonic across snapshots (counters
///   only increase), so deltas via [`CacheStats::delta_since`] are
///   never negative;
/// - a field can never over-count: a snapshot observes at most the
///   increments that were actually issued before the load. In
///   particular `chunk_hits + chunk_misses` never exceeds the number
///   of lookups initiated (each lookup increments exactly one of the
///   two, after the lookup began) — pinned by the
///   `snapshot_never_overcounts_lookups_mid_hammer` test.
///
/// Reporting paths in this workspace only read quiescent stats or
/// tolerate cross-field drift of a few in-flight operations; anything
/// needing an exact cut must stop the writers first.
#[derive(Debug, Default)]
pub struct AtomicCacheStats {
    chunk_hits: Counter,
    chunk_misses: Counter,
    insertions: Counter,
    evictions: Counter,
    rejected_inserts: Counter,
    object_total_hits: Counter,
    object_partial_hits: Counter,
    object_misses: Counter,
    coalesced_fetches: Counter,
    batched_requests: Counter,
    lease_grants: Counter,
    lease_contentions: Counter,
    targeted_invalidations: Counter,
    decode_plan_hits: Counter,
    systematic_fast_reads: Counter,
    hedged_requests: Counter,
    hedge_wins: Counter,
    hedges_cancelled: Counter,
    disk_hits: Counter,
    tier_promotions: Counter,
    tier_demotions: Counter,
    disk_evictions: Counter,
}

impl AtomicCacheStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        AtomicCacheStats::default()
    }

    /// Records one chunk-level cache hit.
    pub fn record_chunk_hit(&self) {
        self.chunk_hits.inc();
    }

    /// Records one chunk-level cache miss.
    pub fn record_chunk_miss(&self) {
        self.chunk_misses.inc();
    }

    /// Records one successful insertion.
    pub fn record_insertion(&self) {
        self.insertions.inc();
    }

    /// Records one eviction.
    pub fn record_eviction(&self) {
        self.evictions.inc();
    }

    /// Records one rejected insertion.
    pub fn record_rejected_insert(&self) {
        self.rejected_inserts.inc();
    }

    /// Records an object-level read outcome; same classification as
    /// [`CacheStats::record_object_read`].
    pub fn record_object_read(&self, cached_chunks: usize, needed_chunks: usize) {
        if needed_chunks > 0 && cached_chunks >= needed_chunks {
            self.object_total_hits.inc();
        } else if cached_chunks > 0 {
            self.object_partial_hits.inc();
        } else {
            self.object_misses.inc();
        }
    }

    /// Records one single-flight-coalesced backend fetch.
    pub fn record_coalesced_fetch(&self) {
        self.coalesced_fetches.inc();
    }

    /// Records `n` batched (region-grouped) backend round trips.
    pub fn record_batched_requests(&self, n: u64) {
        self.batched_requests.add(n);
    }

    /// Records one granted per-object write lease.
    pub fn record_lease_grant(&self) {
        self.lease_grants.inc();
    }

    /// Records one write that waited behind another writer's lease.
    pub fn record_lease_contention(&self) {
        self.lease_contentions.inc();
    }

    /// Records `n` targeted cache invalidations.
    pub fn record_targeted_invalidations(&self, n: u64) {
        self.targeted_invalidations.add(n);
    }

    /// Records one degraded decode that reused a cached decode plan.
    pub fn record_decode_plan_hit(&self) {
        self.decode_plan_hits.inc();
    }

    /// Records one object read served by the systematic fast path.
    pub fn record_systematic_fast_read(&self) {
        self.systematic_fast_reads.inc();
    }

    /// Records `n` hedge (speculative duplicate) backend requests.
    pub fn record_hedged_requests(&self, n: u64) {
        self.hedged_requests.add(n);
    }

    /// Records one hedge bound into the decode's first-k set.
    pub fn record_hedge_win(&self) {
        self.hedge_wins.inc();
    }

    /// Records `n` straggler responses discarded after the read was
    /// already satisfied.
    pub fn record_hedges_cancelled(&self, n: u64) {
        self.hedges_cancelled.add(n);
    }

    /// Records one chunk lookup served by the disk tier.
    pub fn record_disk_hit(&self) {
        self.disk_hits.inc();
    }

    /// Records one chunk promoted disk → RAM.
    pub fn record_tier_promotion(&self) {
        self.tier_promotions.inc();
    }

    /// Records one RAM eviction victim demoted to the disk tier.
    pub fn record_tier_demotion(&self) {
        self.tier_demotions.inc();
    }

    /// Records `n` disk-tier capacity evictions.
    pub fn record_disk_evictions(&self, n: u64) {
        self.disk_evictions.add(n);
    }

    /// A point-in-time copy of the counters as plain [`CacheStats`].
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            chunk_hits: self.chunk_hits.get(),
            chunk_misses: self.chunk_misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            rejected_inserts: self.rejected_inserts.get(),
            object_total_hits: self.object_total_hits.get(),
            object_partial_hits: self.object_partial_hits.get(),
            object_misses: self.object_misses.get(),
            coalesced_fetches: self.coalesced_fetches.get(),
            batched_requests: self.batched_requests.get(),
            lease_grants: self.lease_grants.get(),
            lease_contentions: self.lease_contentions.get(),
            targeted_invalidations: self.targeted_invalidations.get(),
            decode_plan_hits: self.decode_plan_hits.get(),
            systematic_fast_reads: self.systematic_fast_reads.get(),
            hedged_requests: self.hedged_requests.get(),
            hedge_wins: self.hedge_wins.get(),
            hedges_cancelled: self.hedges_cancelled.get(),
            disk_hits: self.disk_hits.get(),
            tier_promotions: self.tier_promotions.get(),
            tier_demotions: self.tier_demotions.get(),
            disk_evictions: self.disk_evictions.get(),
        }
    }

    /// Late-binds every counter into `registry` under stable
    /// `agar_*` metric names, with `base` labels (typically region,
    /// scenario, policy) on each cell and semantic labels (`tier`,
    /// `result`) distinguishing sibling counters within a family.
    ///
    /// The registry holds clones of the *same* cells this struct
    /// records into, so counts accumulated before registration are
    /// kept and a scrape always reflects the live values.
    pub fn register_with(&self, registry: &MetricsRegistry, base: &Labels) {
        let with = |extra: &[(&'static str, &str)]| {
            let mut labels = base.clone();
            for (name, value) in extra {
                labels = labels.with(name, *value);
            }
            labels
        };
        type CellRow<'a> = (
            &'static str,
            &'static str,
            &'a [(&'static str, &'a str)],
            &'a Counter,
        );
        let cells: [CellRow<'_>; 22] = [
            (
                "agar_cache_chunk_hits_total",
                "Chunk lookups served from a cache tier.",
                &[("tier", "ram")],
                &self.chunk_hits,
            ),
            (
                "agar_cache_chunk_hits_total",
                "Chunk lookups served from a cache tier.",
                &[("tier", "disk")],
                &self.disk_hits,
            ),
            (
                "agar_cache_chunk_misses_total",
                "Chunk lookups that missed every cache tier.",
                &[],
                &self.chunk_misses,
            ),
            (
                "agar_cache_insertions_total",
                "Chunks admitted into the RAM tier.",
                &[],
                &self.insertions,
            ),
            (
                "agar_cache_evictions_total",
                "Chunks evicted from a cache tier for capacity.",
                &[("tier", "ram")],
                &self.evictions,
            ),
            (
                "agar_cache_evictions_total",
                "Chunks evicted from a cache tier for capacity.",
                &[("tier", "disk")],
                &self.disk_evictions,
            ),
            (
                "agar_cache_rejected_inserts_total",
                "Insertions vetoed by capacity or admission policy.",
                &[],
                &self.rejected_inserts,
            ),
            (
                "agar_object_reads_total",
                "Object reads classified by cache outcome (paper Fig. 7).",
                &[("result", "total_hit")],
                &self.object_total_hits,
            ),
            (
                "agar_object_reads_total",
                "Object reads classified by cache outcome (paper Fig. 7).",
                &[("result", "partial_hit")],
                &self.object_partial_hits,
            ),
            (
                "agar_object_reads_total",
                "Object reads classified by cache outcome (paper Fig. 7).",
                &[("result", "miss")],
                &self.object_misses,
            ),
            (
                "agar_fetch_coalesced_total",
                "Backend fetches served by an in-flight duplicate (single-flight).",
                &[],
                &self.coalesced_fetches,
            ),
            (
                "agar_fetch_batched_round_trips_total",
                "Region-grouped backend round trips issued.",
                &[],
                &self.batched_requests,
            ),
            (
                "agar_lease_grants_total",
                "Per-object write leases granted.",
                &[],
                &self.lease_grants,
            ),
            (
                "agar_lease_contentions_total",
                "Writes that waited behind another writer's lease.",
                &[],
                &self.lease_contentions,
            ),
            (
                "agar_invalidations_targeted_total",
                "Targeted cache invalidations sent on lease release.",
                &[],
                &self.targeted_invalidations,
            ),
            (
                "agar_decode_plan_hits_total",
                "Degraded decodes that reused a cached decode plan.",
                &[],
                &self.decode_plan_hits,
            ),
            (
                "agar_decode_systematic_fast_total",
                "Object reads decoded via the zero-GF systematic fast path.",
                &[],
                &self.systematic_fast_reads,
            ),
            (
                "agar_hedge_requests_total",
                "Speculative duplicate chunk requests issued.",
                &[],
                &self.hedged_requests,
            ),
            (
                "agar_hedge_wins_total",
                "Hedges that bound into the first-k decode set.",
                &[],
                &self.hedge_wins,
            ),
            (
                "agar_hedge_cancelled_total",
                "Straggler responses discarded after k arrivals.",
                &[],
                &self.hedges_cancelled,
            ),
            (
                "agar_tier_promotions_total",
                "Chunks promoted disk → RAM on a disk-tier hit.",
                &[],
                &self.tier_promotions,
            ),
            (
                "agar_tier_demotions_total",
                "RAM eviction victims demoted to the disk tier.",
                &[],
                &self.tier_demotions,
            ),
        ];
        for (name, help, extra, cell) in cells {
            registry.register_counter(name, help, with(extra), cell);
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chunks {}/{} hits ({:.1}%), objects {} total + {} partial / {} reads ({:.1}%), {} evictions",
            self.chunk_hits,
            self.chunk_hits + self.chunk_misses,
            self.chunk_hit_ratio() * 100.0,
            self.object_total_hits,
            self.object_partial_hits,
            self.object_reads(),
            self.object_hit_ratio() * 100.0,
            self.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ratio() {
        let mut s = CacheStats::new();
        assert_eq!(s.chunk_hit_ratio(), 0.0);
        s.record_chunk_hit();
        s.record_chunk_hit();
        s.record_chunk_miss();
        assert!((s.chunk_hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.chunk_hits(), 2);
        assert_eq!(s.chunk_misses(), 1);
    }

    #[test]
    fn object_hit_classification() {
        let mut s = CacheStats::new();
        s.record_object_read(9, 9); // total
        s.record_object_read(3, 9); // partial
        s.record_object_read(0, 9); // miss
        assert_eq!(s.object_total_hits(), 1);
        assert_eq!(s.object_partial_hits(), 1);
        assert_eq!(s.object_misses(), 1);
        assert_eq!(s.object_reads(), 3);
        assert!((s.object_hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_needed_chunks_is_a_miss_not_a_hit() {
        let mut s = CacheStats::new();
        s.record_object_read(0, 0);
        assert_eq!(s.object_misses(), 1);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = CacheStats::new();
        a.record_chunk_hit();
        a.record_insertion();
        a.record_object_read(1, 2);
        let mut b = CacheStats::new();
        b.record_chunk_miss();
        b.record_eviction();
        b.record_rejected_insert();
        b.record_object_read(2, 2);
        a.merge(&b);
        assert_eq!(a.chunk_hits(), 1);
        assert_eq!(a.chunk_misses(), 1);
        assert_eq!(a.insertions(), 1);
        assert_eq!(a.evictions(), 1);
        assert_eq!(a.rejected_inserts(), 1);
        assert_eq!(a.object_total_hits(), 1);
        assert_eq!(a.object_partial_hits(), 1);
    }

    #[test]
    fn fetch_coordination_counters_roundtrip() {
        let atomic = AtomicCacheStats::new();
        atomic.record_coalesced_fetch();
        atomic.record_coalesced_fetch();
        atomic.record_batched_requests(3);
        let snap = atomic.snapshot();
        assert_eq!(snap.coalesced_fetches(), 2);
        assert_eq!(snap.batched_requests(), 3);

        let other = AtomicCacheStats::new();
        other.record_coalesced_fetch();
        other.record_batched_requests(1);
        let mut merged = other.snapshot();
        merged.merge(&snap);
        assert_eq!(merged.coalesced_fetches(), 3);
        assert_eq!(merged.batched_requests(), 4);

        let delta = merged.delta_since(&snap);
        assert_eq!(delta.coalesced_fetches(), 1);
        assert_eq!(delta.batched_requests(), 1);
    }

    #[test]
    fn lease_counters_roundtrip() {
        let atomic = AtomicCacheStats::new();
        atomic.record_lease_grant();
        atomic.record_lease_grant();
        atomic.record_lease_contention();
        atomic.record_targeted_invalidations(4);
        let snap = atomic.snapshot();
        assert_eq!(snap.lease_grants(), 2);
        assert_eq!(snap.lease_contentions(), 1);
        assert_eq!(snap.targeted_invalidations(), 4);

        let other = AtomicCacheStats::new();
        other.record_lease_grant();
        other.record_lease_contention();
        other.record_targeted_invalidations(1);
        let mut merged = other.snapshot();
        merged.merge(&snap);
        assert_eq!(merged.lease_grants(), 3);
        assert_eq!(merged.lease_contentions(), 2);
        assert_eq!(merged.targeted_invalidations(), 5);

        let delta = merged.delta_since(&snap);
        assert_eq!(delta.lease_grants(), 1);
        assert_eq!(delta.lease_contentions(), 1);
        assert_eq!(delta.targeted_invalidations(), 1);
    }

    #[test]
    fn decode_path_counters_roundtrip() {
        let atomic = AtomicCacheStats::new();
        atomic.record_decode_plan_hit();
        atomic.record_systematic_fast_read();
        atomic.record_systematic_fast_read();
        let snap = atomic.snapshot();
        assert_eq!(snap.decode_plan_hits(), 1);
        assert_eq!(snap.systematic_fast_reads(), 2);

        let mut merged = CacheStats::new();
        merged.record_decode_plan_hit();
        merged.record_systematic_fast_read();
        merged.merge(&snap);
        assert_eq!(merged.decode_plan_hits(), 2);
        assert_eq!(merged.systematic_fast_reads(), 3);

        let delta = merged.delta_since(&snap);
        assert_eq!(delta.decode_plan_hits(), 1);
        assert_eq!(delta.systematic_fast_reads(), 1);
    }

    #[test]
    fn hedge_counters_roundtrip() {
        let atomic = AtomicCacheStats::new();
        atomic.record_hedged_requests(2);
        atomic.record_hedge_win();
        atomic.record_hedges_cancelled(1);
        let snap = atomic.snapshot();
        assert_eq!(snap.hedged_requests(), 2);
        assert_eq!(snap.hedge_wins(), 1);
        assert_eq!(snap.hedges_cancelled(), 1);

        let other = AtomicCacheStats::new();
        other.record_hedged_requests(3);
        other.record_hedge_win();
        other.record_hedges_cancelled(2);
        let mut merged = other.snapshot();
        merged.merge(&snap);
        assert_eq!(merged.hedged_requests(), 5);
        assert_eq!(merged.hedge_wins(), 2);
        assert_eq!(merged.hedges_cancelled(), 3);

        let delta = merged.delta_since(&snap);
        assert_eq!(delta.hedged_requests(), 3);
        assert_eq!(delta.hedge_wins(), 1);
        assert_eq!(delta.hedges_cancelled(), 2);
    }

    #[test]
    fn tier_counters_roundtrip() {
        let atomic = AtomicCacheStats::new();
        atomic.record_disk_hit();
        atomic.record_disk_hit();
        atomic.record_tier_promotion();
        atomic.record_tier_demotion();
        atomic.record_tier_demotion();
        atomic.record_tier_demotion();
        atomic.record_disk_evictions(4);
        let snap = atomic.snapshot();
        assert_eq!(snap.disk_hits(), 2);
        assert_eq!(snap.tier_promotions(), 1);
        assert_eq!(snap.tier_demotions(), 3);
        assert_eq!(snap.disk_evictions(), 4);

        let other = AtomicCacheStats::new();
        other.record_disk_hit();
        other.record_tier_promotion();
        other.record_tier_demotion();
        other.record_disk_evictions(2);
        let mut merged = other.snapshot();
        merged.merge(&snap);
        assert_eq!(merged.disk_hits(), 3);
        assert_eq!(merged.tier_promotions(), 2);
        assert_eq!(merged.tier_demotions(), 4);
        assert_eq!(merged.disk_evictions(), 6);

        let delta = merged.delta_since(&snap);
        assert_eq!(delta.disk_hits(), 1);
        assert_eq!(delta.tier_promotions(), 1);
        assert_eq!(delta.tier_demotions(), 1);
        assert_eq!(delta.disk_evictions(), 2);
    }

    #[test]
    fn register_with_exposes_live_cells() {
        let atomic = AtomicCacheStats::new();
        atomic.record_chunk_hit(); // before registration: kept
        let registry = MetricsRegistry::new();
        atomic.register_with(&registry, &Labels::new().with("region", "Frankfurt"));
        atomic.record_chunk_hit(); // after registration: same cell
        atomic.record_disk_hit();
        atomic.record_object_read(9, 9);
        let text = registry.render_prometheus();
        assert!(
            text.contains("agar_cache_chunk_hits_total{region=\"Frankfurt\",tier=\"ram\"} 2"),
            "{text}"
        );
        assert!(text.contains("agar_cache_chunk_hits_total{region=\"Frankfurt\",tier=\"disk\"} 1"));
        assert!(
            text.contains("agar_object_reads_total{region=\"Frankfurt\",result=\"total_hit\"} 1")
        );
        // Re-registration with the same labels is idempotent.
        atomic.register_with(&registry, &Labels::new().with("region", "Frankfurt"));
        assert_eq!(registry.len(), 22);
    }

    /// Pins the documented snapshot invariant: because each lookup
    /// increments exactly one of `chunk_hits`/`chunk_misses` *after*
    /// the lookup was counted as initiated, a concurrent snapshot may
    /// lag but can never observe `hits + misses` exceeding the
    /// initiated-lookup count, despite every load being `Relaxed` and
    /// per-field.
    #[test]
    fn snapshot_never_overcounts_lookups_mid_hammer() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        let stats = AtomicCacheStats::new();
        let lookups = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let stats = &stats;
                let lookups = &lookups;
                let stop = &stop;
                scope.spawn(move || {
                    let mut i = worker;
                    while !stop.load(Ordering::Relaxed) {
                        // A lookup is "initiated" strictly before its
                        // outcome is recorded.
                        lookups.fetch_add(1, Ordering::SeqCst);
                        if i % 3 == 0 {
                            stats.record_chunk_miss();
                        } else {
                            stats.record_chunk_hit();
                        }
                        i += 1;
                    }
                });
            }
            for _ in 0..200 {
                let snap = stats.snapshot();
                // Load the floor *after* the snapshot (fence keeps the
                // relaxed snapshot loads from sinking past it): every
                // outcome the snapshot saw had already bumped
                // `lookups`.
                std::sync::atomic::fence(Ordering::SeqCst);
                let initiated = lookups.load(Ordering::SeqCst);
                assert!(
                    snap.chunk_hits() + snap.chunk_misses() <= initiated,
                    "snapshot overcounted: {} + {} > {initiated}",
                    snap.chunk_hits(),
                    snap.chunk_misses()
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Quiescent: the counts reconcile exactly.
        let final_snap = stats.snapshot();
        assert_eq!(
            final_snap.chunk_hits() + final_snap.chunk_misses(),
            lookups.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn display_is_informative() {
        let mut s = CacheStats::new();
        s.record_chunk_hit();
        s.record_object_read(2, 2);
        let text = s.to_string();
        assert!(text.contains("chunks 1/1"));
        assert!(text.contains("objects 1 total"));
    }
}
