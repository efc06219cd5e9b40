//! Content bubbles: geography-aware prefetch and eviction (§5).
//!
//! Content popularity is regional; satellite positions are predictable.
//! A satellite approaching Argentina should already hold the Boca-vs-River
//! highlights and should have evicted the NFL clips it served over the US.
//! This module implements that policy — per-satellite LRU caches refreshed
//! with the destination region's hot set as satellites cross region
//! boundaries — and a static-placement baseline for comparison.
//!
//! The satellite caches are one [`FleetCache`] with a slot per satellite,
//! run as plain LRU: the clock never advances, so entries never expire.

use spacecdn_content::catalog::{Catalog, ContentId, RegionTag};
use spacecdn_content::fleet::FleetCache;
use spacecdn_content::popularity::RegionalPopularity;
use spacecdn_geo::{Geodetic, Km, SimTime};
use spacecdn_orbit::{Constellation, SatIndex};

/// A geographic demand region for bubble purposes.
#[derive(Debug, Clone, Copy)]
pub struct BubbleRegion {
    /// Popularity tag of the region.
    pub tag: RegionTag,
    /// Centre of the region's footprint.
    pub center: Geodetic,
    /// Footprint radius.
    pub radius: Km,
}

/// Per-satellite caches managed by the bubble policy.
pub struct BubbleWorld {
    regions: Vec<BubbleRegion>,
    caches: FleetCache,
}

impl BubbleWorld {
    /// Create per-satellite caches of `capacity_bytes` each.
    pub fn new(sat_count: usize, capacity_bytes: u64, regions: Vec<BubbleRegion>) -> Self {
        BubbleWorld {
            regions,
            caches: FleetCache::new(sat_count, capacity_bytes, FleetCache::UNEXPIRING_TTL),
        }
    }

    /// The region whose footprint contains a ground point (first match).
    pub fn region_of(&self, point: Geodetic) -> Option<&BubbleRegion> {
        self.regions
            .iter()
            .find(|r| point.great_circle_distance(r.center).0 <= r.radius.0)
    }

    /// Prefetch step: for every satellite over a region, install that
    /// region's hottest objects (popularity order) until the cache is full.
    /// LRU eviction automatically drops the previous region's leftovers.
    /// Returns the number of objects inserted.
    pub fn prefetch(
        &mut self,
        constellation: &Constellation,
        t: SimTime,
        catalog: &Catalog,
        popularity: &RegionalPopularity,
        hot_set_size: usize,
    ) -> usize {
        let mut inserted = 0;
        for sat in constellation.sat_indices() {
            let sub = constellation.position(sat, t);
            let sub_ground = Geodetic::ground(sub.lat_deg, sub.lon_deg);
            let Some(tag) = self.region_of(sub_ground).map(|r| r.tag) else {
                continue;
            };
            let cache = &mut self.caches;
            for &id in popularity.hot_set(tag, hot_set_size) {
                let Some(obj) = catalog.get(id) else { continue };
                if cache.used_bytes_of(sat.0) + obj.size_bytes > cache.capacity_bytes_per_sat()
                    && !cache.contains(sat.0, id)
                {
                    // Respect the hot-set priority order: once the cache is
                    // full of hotter items, stop rather than churn.
                    break;
                }
                let fresh = !cache.contains(sat.0, id);
                if cache.insert(sat.0, id, obj.size_bytes) && fresh {
                    inserted += 1;
                }
            }
        }
        inserted
    }

    /// Serve a request at `sat` for `id`; returns hit/miss and updates
    /// recency. On a miss the object is installed (pull-through caching).
    pub fn serve(&mut self, sat: SatIndex, id: ContentId, catalog: &Catalog) -> bool {
        if self.caches.get(sat.0, id) {
            true
        } else {
            if let Some(obj) = catalog.get(id) {
                self.caches.insert(sat.0, id, obj.size_bytes);
            }
            false
        }
    }

    /// Serve without pull-through: a hit updates recency, a miss changes
    /// nothing. Placement-comparison experiments use this so eviction
    /// pollution doesn't confound the placement policy under test.
    pub fn serve_no_fill(&mut self, sat: SatIndex, id: ContentId) -> bool {
        self.caches.get(sat.0, id)
    }

    /// Aggregate hit ratio across all satellite caches.
    pub fn hit_ratio(&self) -> f64 {
        self.caches.stats().hit_ratio()
    }

    /// Whether satellite `sat` holds `id` (no recency or counter side
    /// effects).
    pub fn contains(&self, sat: SatIndex, id: ContentId) -> bool {
        self.caches.contains(sat.0, id)
    }
}

/// Static baseline: every satellite holds the same *global* top-k set,
/// never adapting to geography. Returns aggregate hit ratio over the given
/// request trace `(sat, region, id)`.
pub fn static_placement_hit_ratio(
    sat_count: usize,
    capacity_bytes: u64,
    catalog: &Catalog,
    global_hot: &[ContentId],
    requests: &[(SatIndex, ContentId)],
) -> f64 {
    let mut caches = FleetCache::new(sat_count, capacity_bytes, FleetCache::UNEXPIRING_TTL);
    for sat in 0..sat_count as u32 {
        for &id in global_hot {
            let Some(obj) = catalog.get(id) else { continue };
            if caches.used_bytes_of(sat) + obj.size_bytes > capacity_bytes {
                break;
            }
            caches.insert(sat, id, obj.size_bytes);
        }
    }
    let mut hits = 0u64;
    for &(sat, id) in requests {
        if caches.get(sat.0, id) {
            hits += 1;
        }
    }
    if requests.is_empty() {
        0.0
    } else {
        hits as f64 / requests.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacecdn_geo::DetRng;
    use spacecdn_orbit::shell::shells;

    fn regions() -> Vec<BubbleRegion> {
        vec![
            BubbleRegion {
                tag: RegionTag(0),
                center: Geodetic::ground(50.0, 10.0), // Europe
                radius: Km(2000.0),
            },
            BubbleRegion {
                tag: RegionTag(1),
                center: Geodetic::ground(-15.0, -55.0), // South America
                radius: Km(2500.0),
            },
        ]
    }

    fn setup() -> (Constellation, Catalog, RegionalPopularity, BubbleWorld) {
        let constellation = Constellation::new(shells::starlink_shell1());
        let mut rng = DetRng::new(5, "bubbles");
        let tags = [RegionTag(0), RegionTag(1)];
        let catalog = Catalog::generate(2000, &tags, 0.6, &mut rng);
        let pop = RegionalPopularity::build(&catalog, 2, 0.9, 8.0, &mut rng);
        let world = BubbleWorld::new(constellation.len(), 2_000_000_000, regions());
        (constellation, catalog, pop, world)
    }

    #[test]
    fn region_lookup() {
        let (_, _, _, world) = setup();
        assert_eq!(
            world.region_of(Geodetic::ground(48.1, 11.6)).unwrap().tag,
            RegionTag(0)
        );
        assert_eq!(
            world.region_of(Geodetic::ground(-23.5, -46.6)).unwrap().tag,
            RegionTag(1)
        );
        assert!(world.region_of(Geodetic::ground(0.0, 140.0)).is_none());
    }

    #[test]
    fn prefetch_fills_satellites_over_regions() {
        let (c, catalog, pop, mut world) = setup();
        world.prefetch(&c, SimTime::EPOCH, &catalog, &pop, 200);
        // Find a satellite over Europe and check it holds Europe-hot items.
        let (sat, _) = c.nearest_satellite(Geodetic::ground(50.0, 10.0), SimTime::EPOCH);
        let hot = pop.hot_set(RegionTag(0), 10);
        let held = hot.iter().filter(|id| world.contains(sat, **id)).count();
        assert!(held >= 8, "overhead satellite holds {held}/10 of hot set");
    }

    #[test]
    fn bubble_beats_static_on_regional_demand() {
        let (c, catalog, pop, mut world) = setup();
        let mut rng = DetRng::new(6, "bubble-req");

        // Requests from users under each region, served by their overhead
        // satellite. Prefetch runs before serving (as the design intends).
        world.prefetch(&c, SimTime::EPOCH, &catalog, &pop, 400);
        let mut requests = Vec::new();
        let users = [
            (Geodetic::ground(48.1, 11.6), RegionTag(0)),
            (Geodetic::ground(51.5, -0.1), RegionTag(0)),
            (Geodetic::ground(-23.5, -46.6), RegionTag(1)),
            (Geodetic::ground(-34.6, -58.4), RegionTag(1)),
        ];
        let mut bubble_hits = 0u64;
        let total = 4000;
        for i in 0..total {
            let (pos, tag) = users[i % users.len()];
            let (sat, _) = c.nearest_satellite(pos, SimTime::EPOCH);
            let id = pop.sample(tag, &mut rng);
            requests.push((sat, id));
            if world.serve(sat, id, &catalog) {
                bubble_hits += 1;
            }
        }
        let bubble_ratio = bubble_hits as f64 / total as f64;

        // Static baseline: same capacity, global (region-0-agnostic) top-k.
        // Build a "global" hot list by interleaving both regions' rankings.
        let global: Vec<ContentId> = pop
            .hot_set(RegionTag(0), 200)
            .iter()
            .zip(pop.hot_set(RegionTag(1), 200))
            .flat_map(|(a, b)| [*a, *b])
            .collect();
        let static_ratio =
            static_placement_hit_ratio(c.len(), 2_000_000_000, &catalog, &global, &requests);
        assert!(
            bubble_ratio > static_ratio,
            "bubble {bubble_ratio:.3} should beat static {static_ratio:.3}"
        );
        assert!(bubble_ratio > 0.5, "bubble hit ratio {bubble_ratio:.3}");
    }

    #[test]
    fn serve_pull_through_caches_misses() {
        let (_, catalog, _, mut world) = setup();
        let id = ContentId(7);
        let sat = SatIndex(3);
        assert!(!world.serve(sat, id, &catalog), "first access misses");
        assert!(world.serve(sat, id, &catalog), "second access hits");
    }

    #[test]
    fn hit_ratio_zero_when_idle() {
        let (_, _, _, world) = setup();
        assert_eq!(world.hit_ratio(), 0.0);
    }
}
