//! The cache-policy zoo: eviction/admission lifted out of
//! [`crate::fleet::FleetCache`] behind one trait.
//!
//! Satellite caches are tiny, duty-cycled, and expensive to refill from the
//! ground, so *what* a satellite admits and evicts matters far more than on
//! terrestrial CDNs. This module defines:
//!
//! - [`CachePolicy`] — the fleet-shaped trait every policy implements:
//!   lookups, TTL purges, exact eviction reporting (the traffic engine
//!   maintains eager per-content holder lists, so every departure must be
//!   surfaced), per-policy [`CacheStats`] under the unified
//!   evicted/expired/invalidated taxonomy;
//! - [`PolicyKind`] — the selector wired through `TrafficConfig`,
//!   `Scenario`, and the serve protocol's `cache` mutation op;
//! - [`PolicyFleet`] — an enum over the four concrete fleets. The traffic
//!   hot path dispatches through a `match` (static dispatch per arm, no
//!   vtable), which keeps the PR 6 throughput contract.
//!
//! All four implementations are flat-SoA intrusive structures over the
//! shared `EntryArena` and are pinned decision-for-decision
//! to naive map/VecDeque references in `tests/policy_oracle.rs`.

use crate::catalog::ContentId;
use crate::fleet::FleetCache;
use crate::s3fifo::S3FifoFleet;
use crate::sieve::SieveFleet;
use crate::tinylfu::TinyLfuFleet;
use spacecdn_geo::{SimDuration, SimTime};

/// Hit/miss counters shared by all policies.
///
/// The departure taxonomy is unified across every policy: an entry leaves
/// a cache for exactly one of three reasons — **evicted** under capacity
/// pressure (including admission-filter rejections that drop a window
/// candidate), **expired** when its TTL lapsed before any probe touched
/// it, or **invalidated** by an explicit `remove`/`clear_sat`. For policies that track all counters the books
/// balance: `hits + misses == gets` and
/// `evictions + expirations + invalidations == inserts - len`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the object.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Total lookups (incremented independently of hit/miss so the
    /// `hits + misses == gets` reconciliation is a real check).
    pub gets: u64,
    /// New entries admitted (refreshes of an existing entry excluded).
    pub inserts: u64,
    /// Objects evicted to make room.
    pub evictions: u64,
    /// Objects dropped because their TTL lapsed (any purge path).
    pub expirations: u64,
    /// Objects dropped by explicit `remove` or `clear_sat`.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when no lookups happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// All departures: `evictions + expirations + invalidations`.
    pub fn departures(&self) -> u64 {
        self.evictions + self.expirations + self.invalidations
    }
}

/// Which eviction/admission policy a cache fleet runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// LRU with TTL expiry — the PR 6 baseline ([`FleetCache`]).
    #[default]
    LruTtl,
    /// SIEVE: FIFO queue with a visited bit and a lazily sweeping hand.
    Sieve,
    /// S3-FIFO: small probationary FIFO + main FIFO + ghost queue.
    S3Fifo,
    /// Window-TinyLFU: tiny LRU window + SLRU main, admission decided by a
    /// count-min frequency sketch.
    TinyLfu,
}

impl PolicyKind {
    /// Every policy, in canonical (report/sweep) order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::LruTtl,
        PolicyKind::Sieve,
        PolicyKind::S3Fifo,
        PolicyKind::TinyLfu,
    ];

    /// Canonical wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::LruTtl => "lru",
            PolicyKind::Sieve => "sieve",
            PolicyKind::S3Fifo => "s3fifo",
            PolicyKind::TinyLfu => "tinylfu",
        }
    }

    /// Parse a wire name (canonical names plus common aliases).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "lru" | "lru+ttl" | "lru_ttl" | "lruttl" => Some(PolicyKind::LruTtl),
            "sieve" => Some(PolicyKind::Sieve),
            "s3fifo" | "s3-fifo" => Some(PolicyKind::S3Fifo),
            "tinylfu" | "w-tinylfu" | "wtinylfu" | "tiny-lfu" => Some(PolicyKind::TinyLfu),
            _ => None,
        }
    }

    /// The `SPACECDN_POLICY` environment knob (default: `lru`).
    ///
    /// # Panics
    /// Panics on an unrecognized policy name — a silently ignored knob
    /// would un-pin every downstream report.
    pub fn from_env() -> PolicyKind {
        match std::env::var("SPACECDN_POLICY") {
            Ok(s) if !s.is_empty() => PolicyKind::parse(&s)
                .unwrap_or_else(|| panic!("SPACECDN_POLICY: unknown policy {s:?}")),
            _ => PolicyKind::default(),
        }
    }
}

/// A whole constellation's caches behind one eviction/admission policy.
///
/// The shape mirrors [`FleetCache`]: satellites are dense `u32` slots, one
/// byte capacity and one TTL fleet-wide, a monotone fleet-global clock.
/// Implementations must report **every** departure — eviction victims
/// through `insert_collect`'s `evicted` vector, duty-cycle drops through
/// `clear_sat`'s `dropped` vector — because the traffic engine prunes its
/// per-content holder lists eagerly and a silent drop would desynchronize
/// them (caught by a `debug_assert` on the serve path).
pub trait CachePolicy {
    /// Canonical policy name (matches [`PolicyKind::name`]).
    fn name(&self) -> &'static str;

    /// Advance the clock (monotonically; moving backwards is clamped).
    fn set_now(&mut self, now: SimTime);

    /// The current clock.
    fn now(&self) -> SimTime;

    /// Number of satellite slots.
    fn sat_count(&self) -> usize;

    /// Per-satellite byte capacity.
    fn capacity_bytes_per_sat(&self) -> u64;

    /// The freshness lifetime applied to every insert.
    fn ttl(&self) -> SimDuration;

    /// Objects cached on one satellite (expired-but-untouched included).
    fn len_of(&self, sat: u32) -> usize;

    /// Bytes cached on one satellite.
    fn used_bytes_of(&self, sat: u32) -> u64;

    /// Objects cached fleet-wide.
    fn len(&self) -> usize;

    /// True when no satellite caches anything.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fleet-wide counters under the unified taxonomy.
    fn stats(&self) -> CacheStats;

    /// Look up an object: a fresh hit updates the policy's recency or
    /// frequency state; an expired entry is purged and counted as a miss.
    fn get(&mut self, sat: u32, content: ContentId) -> bool;

    /// Presence without side effects (counters and policy state untouched).
    fn contains(&self, sat: u32, content: ContentId) -> bool;

    /// Freshness check that reclaims: an entry found expired is purged and
    /// counted; a live entry is left untouched.
    fn is_fresh(&mut self, sat: u32, content: ContentId) -> bool;

    /// Drop `(sat, content)` if present *and* its TTL has lapsed, counting
    /// an expiration; a live or absent entry is untouched.
    fn expire_if_due(&mut self, sat: u32, content: ContentId) -> bool;

    /// Insert an object, evicting per policy as needed; returns false
    /// (caching nothing) when the object exceeds the satellite capacity.
    /// Re-inserting a live object refreshes policy state and expiry but
    /// keeps the originally stored size. Every entry dropped by the
    /// operation — victims, and under admission policies possibly the
    /// inserted object itself — is appended to `evicted`.
    fn insert_collect(
        &mut self,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) -> bool;

    /// Remove an object if present (fresh or expired), booking an
    /// invalidation; returns whether it was there.
    fn remove(&mut self, sat: u32, content: ContentId) -> bool;

    /// Wipe one satellite's cache (each drop books an invalidation),
    /// appending every dropped content id to `dropped`; returns how many.
    fn clear_sat(&mut self, sat: u32, dropped: &mut Vec<ContentId>) -> u64;

    /// Satellites currently holding at least one object, as
    /// `(sat, entries, bytes)` in slot order, appended to `out`.
    fn occupied_into(&self, out: &mut Vec<(u32, u32, u64)>);
}

impl CachePolicy for FleetCache {
    fn name(&self) -> &'static str {
        "lru"
    }
    fn set_now(&mut self, now: SimTime) {
        FleetCache::set_now(self, now)
    }
    fn now(&self) -> SimTime {
        FleetCache::now(self)
    }
    fn sat_count(&self) -> usize {
        FleetCache::sat_count(self)
    }
    fn capacity_bytes_per_sat(&self) -> u64 {
        FleetCache::capacity_bytes_per_sat(self)
    }
    fn ttl(&self) -> SimDuration {
        FleetCache::ttl(self)
    }
    fn len_of(&self, sat: u32) -> usize {
        FleetCache::len_of(self, sat)
    }
    fn used_bytes_of(&self, sat: u32) -> u64 {
        FleetCache::used_bytes_of(self, sat)
    }
    fn len(&self) -> usize {
        FleetCache::len(self)
    }
    fn stats(&self) -> CacheStats {
        FleetCache::stats(self)
    }
    fn get(&mut self, sat: u32, content: ContentId) -> bool {
        FleetCache::get(self, sat, content)
    }
    fn contains(&self, sat: u32, content: ContentId) -> bool {
        FleetCache::contains(self, sat, content)
    }
    fn is_fresh(&mut self, sat: u32, content: ContentId) -> bool {
        FleetCache::is_fresh(self, sat, content)
    }
    fn expire_if_due(&mut self, sat: u32, content: ContentId) -> bool {
        FleetCache::expire_if_due(self, sat, content)
    }
    fn insert_collect(
        &mut self,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) -> bool {
        FleetCache::insert_collect(self, sat, content, size, evicted)
    }
    fn remove(&mut self, sat: u32, content: ContentId) -> bool {
        FleetCache::remove(self, sat, content)
    }
    fn clear_sat(&mut self, sat: u32, dropped: &mut Vec<ContentId>) -> u64 {
        FleetCache::clear_sat(self, sat, dropped)
    }
    fn occupied_into(&self, out: &mut Vec<(u32, u32, u64)>) {
        out.extend(self.occupied());
    }
}

/// Static-dispatch wrapper over the four concrete policy fleets.
///
/// The traffic engine stores one of these per shard; every hot-path call
/// goes through a four-arm `match` that monomorphizes per policy instead of
/// an indirect call.
pub enum PolicyFleet {
    /// LRU+TTL baseline.
    LruTtl(FleetCache),
    /// SIEVE.
    Sieve(SieveFleet),
    /// S3-FIFO.
    S3Fifo(S3FifoFleet),
    /// Window-TinyLFU.
    TinyLfu(TinyLfuFleet),
}

macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            PolicyFleet::LruTtl($p) => $body,
            PolicyFleet::Sieve($p) => $body,
            PolicyFleet::S3Fifo($p) => $body,
            PolicyFleet::TinyLfu($p) => $body,
        }
    };
}

impl PolicyFleet {
    /// Build a fleet of `sats` empty caches running `kind`, each with
    /// `capacity_bytes` and entries expiring `ttl` after insertion.
    ///
    /// # Panics
    /// Panics on a zero TTL — that cache could never serve anything.
    pub fn new(kind: PolicyKind, sats: usize, capacity_bytes: u64, ttl: SimDuration) -> Self {
        match kind {
            PolicyKind::LruTtl => PolicyFleet::LruTtl(FleetCache::new(sats, capacity_bytes, ttl)),
            PolicyKind::Sieve => PolicyFleet::Sieve(SieveFleet::new(sats, capacity_bytes, ttl)),
            PolicyKind::S3Fifo => PolicyFleet::S3Fifo(S3FifoFleet::new(sats, capacity_bytes, ttl)),
            PolicyKind::TinyLfu => {
                PolicyFleet::TinyLfu(TinyLfuFleet::new(sats, capacity_bytes, ttl))
            }
        }
    }

    /// Which policy this fleet runs.
    pub fn kind(&self) -> PolicyKind {
        match self {
            PolicyFleet::LruTtl(_) => PolicyKind::LruTtl,
            PolicyFleet::Sieve(_) => PolicyKind::Sieve,
            PolicyFleet::S3Fifo(_) => PolicyKind::S3Fifo,
            PolicyFleet::TinyLfu(_) => PolicyKind::TinyLfu,
        }
    }

    /// See [`CachePolicy::set_now`].
    #[inline]
    pub fn set_now(&mut self, now: SimTime) {
        dispatch!(self, p => p.set_now(now))
    }

    /// See [`CachePolicy::now`].
    #[inline]
    pub fn now(&self) -> SimTime {
        dispatch!(self, p => p.now())
    }

    /// See [`CachePolicy::sat_count`].
    pub fn sat_count(&self) -> usize {
        dispatch!(self, p => p.sat_count())
    }

    /// See [`CachePolicy::capacity_bytes_per_sat`].
    pub fn capacity_bytes_per_sat(&self) -> u64 {
        dispatch!(self, p => p.capacity_bytes_per_sat())
    }

    /// See [`CachePolicy::ttl`].
    pub fn ttl(&self) -> SimDuration {
        dispatch!(self, p => p.ttl())
    }

    /// See [`CachePolicy::len_of`].
    #[inline]
    pub fn len_of(&self, sat: u32) -> usize {
        dispatch!(self, p => p.len_of(sat))
    }

    /// See [`CachePolicy::used_bytes_of`].
    #[inline]
    pub fn used_bytes_of(&self, sat: u32) -> u64 {
        dispatch!(self, p => p.used_bytes_of(sat))
    }

    /// See [`CachePolicy::len`].
    pub fn len(&self) -> usize {
        dispatch!(self, p => p.len())
    }

    /// True when no satellite caches anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// See [`CachePolicy::stats`].
    pub fn stats(&self) -> CacheStats {
        dispatch!(self, p => p.stats())
    }

    /// Entries dropped because their TTL lapsed — `stats().expirations`.
    pub fn expired_purges(&self) -> u64 {
        self.stats().expirations
    }

    /// See [`CachePolicy::get`].
    #[inline]
    pub fn get(&mut self, sat: u32, content: ContentId) -> bool {
        dispatch!(self, p => p.get(sat, content))
    }

    /// See [`CachePolicy::contains`].
    #[inline]
    pub fn contains(&self, sat: u32, content: ContentId) -> bool {
        dispatch!(self, p => p.contains(sat, content))
    }

    /// See [`CachePolicy::is_fresh`].
    #[inline]
    pub fn is_fresh(&mut self, sat: u32, content: ContentId) -> bool {
        dispatch!(self, p => p.is_fresh(sat, content))
    }

    /// See [`CachePolicy::expire_if_due`].
    #[inline]
    pub fn expire_if_due(&mut self, sat: u32, content: ContentId) -> bool {
        dispatch!(self, p => p.expire_if_due(sat, content))
    }

    /// See [`CachePolicy::insert_collect`].
    #[inline]
    pub fn insert_collect(
        &mut self,
        sat: u32,
        content: ContentId,
        size: u64,
        evicted: &mut Vec<ContentId>,
    ) -> bool {
        dispatch!(self, p => p.insert_collect(sat, content, size, evicted))
    }

    /// [`CachePolicy::insert_collect`] without victim reporting.
    pub fn insert(&mut self, sat: u32, content: ContentId, size: u64) -> bool {
        let mut sink = Vec::new();
        self.insert_collect(sat, content, size, &mut sink)
    }

    /// See [`CachePolicy::remove`].
    pub fn remove(&mut self, sat: u32, content: ContentId) -> bool {
        dispatch!(self, p => p.remove(sat, content))
    }

    /// See [`CachePolicy::clear_sat`].
    pub fn clear_sat(&mut self, sat: u32, dropped: &mut Vec<ContentId>) -> u64 {
        dispatch!(self, p => p.clear_sat(sat, dropped))
    }

    /// See [`CachePolicy::occupied_into`].
    pub fn occupied_into(&self, out: &mut Vec<(u32, u32, u64)>) {
        dispatch!(self, p => p.occupied_into(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_math() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("W-TinyLFU"), Some(PolicyKind::TinyLfu));
        assert_eq!(PolicyKind::parse("lru+ttl"), Some(PolicyKind::LruTtl));
        assert_eq!(PolicyKind::parse("nope"), None);
        assert_eq!(PolicyKind::default(), PolicyKind::LruTtl);
    }

    #[test]
    fn fleet_constructs_and_reports_every_kind() {
        for kind in PolicyKind::ALL {
            let mut f = PolicyFleet::new(kind, 2, 1_000, SimDuration::from_secs(60));
            assert_eq!(f.kind(), kind);
            assert_eq!(dispatch!(&f, p => p.name()), kind.name());
            assert_eq!(f.sat_count(), 2);
            assert_eq!(f.capacity_bytes_per_sat(), 1_000);
            assert!(f.is_empty());
            assert!(f.insert(0, ContentId(1), 100));
            assert!(f.get(0, ContentId(1)), "{}: fresh hit", kind.name());
            assert!(
                !f.get(1, ContentId(1)),
                "{}: satellite isolation",
                kind.name()
            );
            assert_eq!(f.len_of(0), 1);
            assert_eq!(f.used_bytes_of(0), 100);
            assert_eq!(f.len(), 1);
            let s = f.stats();
            assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
            assert_eq!(s.gets, s.hits + s.misses);
            let mut occ = Vec::new();
            f.occupied_into(&mut occ);
            assert_eq!(occ, vec![(0, 1, 100)]);
            assert!(f.remove(0, ContentId(1)));
            assert_eq!(f.stats().invalidations, 1);
            assert!(f.is_empty());
        }
    }

    #[test]
    fn ttl_expiry_is_uniform_across_policies() {
        for kind in PolicyKind::ALL {
            let mut f = PolicyFleet::new(kind, 1, 1_000, SimDuration::from_secs(60));
            f.insert(0, ContentId(1), 100);
            f.insert(0, ContentId(2), 100);
            f.set_now(SimTime::from_secs(60));
            assert!(!f.contains(0, ContentId(1)), "{}", kind.name());
            assert!(!f.is_fresh(0, ContentId(1)), "{}", kind.name());
            assert!(f.expire_if_due(0, ContentId(2)), "{}", kind.name());
            assert_eq!(f.expired_purges(), 2, "{}", kind.name());
            assert_eq!(f.stats().expirations, 2);
            assert_eq!(f.len_of(0), 0);
            // Books balance after expiry.
            let s = f.stats();
            assert_eq!(s.departures(), s.inserts - f.len() as u64);
        }
    }

    #[test]
    fn clear_sat_reports_every_drop_for_every_policy() {
        for kind in PolicyKind::ALL {
            let mut f = PolicyFleet::new(kind, 2, 10_000, SimDuration::from_secs(60));
            for n in 0..8u64 {
                f.insert(0, ContentId(n), 100);
            }
            f.insert(1, ContentId(99), 100);
            let mut dropped = Vec::new();
            assert_eq!(f.clear_sat(0, &mut dropped), 8, "{}", kind.name());
            dropped.sort();
            assert_eq!(dropped, (0..8).map(ContentId).collect::<Vec<_>>());
            assert_eq!(f.len_of(0), 0);
            assert_eq!(f.len_of(1), 1, "other satellites untouched");
            assert_eq!(f.stats().invalidations, 8);
        }
    }

    #[test]
    fn eviction_reporting_is_exact_for_every_policy() {
        // Tiny caches force churn; every departure must be reported so the
        // engine's holder lists stay correct. Verify via set reconciliation:
        // inserted - (reported departures) == final contents.
        for kind in PolicyKind::ALL {
            let mut f = PolicyFleet::new(kind, 1, 300, SimDuration::from_secs(600));
            let mut live: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
            let mut evicted = Vec::new();
            for n in 0..40u64 {
                evicted.clear();
                if f.insert_collect(0, ContentId(n), 100, &mut evicted) {
                    live.insert(n);
                }
                for v in &evicted {
                    assert!(live.remove(&v.0), "{}: unknown victim {v:?}", kind.name());
                }
                // Re-touch a survivor to churn recency/frequency state.
                if let Some(&keep) = live.iter().next() {
                    f.get(0, ContentId(keep));
                }
            }
            assert_eq!(f.len_of(0), live.len(), "{}", kind.name());
            for &n in &live {
                assert!(f.contains(0, ContentId(n)), "{}: {n} lost", kind.name());
            }
            let s = f.stats();
            assert_eq!(
                s.departures(),
                s.inserts - f.len() as u64,
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn env_knob_rejects_garbage() {
        // Exercise the parse-failure path directly (env mutation in tests
        // races other threads, so call the parser the knob uses).
        PolicyKind::parse("warble")
            .unwrap_or_else(|| panic!("SPACECDN_POLICY: unknown policy \"warble\""));
    }
}
