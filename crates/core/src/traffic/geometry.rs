//! A burst's read-only (epoch, source) geometry, built before the shards.

use crate::retrieval::{neighbor_probe_cost, space_segment_cost};
use spacecdn_engine::par_map;
use spacecdn_geo::propagation::{propagation_delay, Medium};
use spacecdn_geo::{Geodetic, Km, Latency};
use spacecdn_lsn::{AccessModel, FallbackCut, IslGraph, RoutingBall};
use spacecdn_orbit::SatIndex;
use std::sync::Arc;

/// Everything a source's requests share within one topology epoch, on
/// every shard, besides its candidate costs (those live in the epoch's
/// [`CandidateTable`]): resolved once per burst before the shards start,
/// then read by all of them.
pub(super) struct BatchGeo {
    /// Per shell, the cooperative-lookup targets: the overhead
    /// satellite's live +Grid neighbors as (global slot, full probe RTT =
    /// user link + two-way edge propagation, no switching charge). Empty
    /// unless the placement spec enables `coop` and the shell has an
    /// overhead satellite. At most four entries, scanned linearly.
    pub(super) neighbors: Vec<Vec<(u32, Latency)>>,
    /// Pull-through target: the overhead slot with the smallest slant
    /// range across shells (`None` in a total dead zone).
    pub(super) fill: Option<u32>,
}

impl BatchGeo {
    /// Assemble source `si`'s geometry from one epoch's per-shell graphs
    /// and their [`resolve_overheads`] rows.
    pub(super) fn new(
        graphs: &[Arc<IslGraph>],
        overheads: &[Vec<Option<Overhead>>],
        si: usize,
        shell_offsets: &[u32],
        coop: bool,
    ) -> BatchGeo {
        let mut fill: Option<(u32, f64)> = None;
        let neighbors = graphs
            .iter()
            .zip(overheads)
            .zip(shell_offsets)
            .map(|((graph, row), &off)| {
                let Some(o) = row[si].as_ref() else {
                    return Vec::new();
                };
                if fill.is_none_or(|(_, s)| o.slant.0 < s) {
                    fill = Some((off + o.sat.0, o.slant.0));
                }
                if !coop {
                    return Vec::new();
                }
                // Cooperative probe targets: the CSR row already excludes
                // dead neighbors and failed links, so every entry is a
                // live one-hop fetch.
                let user_prop = propagation_delay(o.slant, Medium::Vacuum).round_trip();
                let (row, kms) = graph.neighbor_row(o.sat.0);
                row.iter()
                    .zip(kms)
                    .map(|(&nb, &km)| (off + nb, user_prop + neighbor_probe_cost(km)))
                    .collect()
            })
            .collect();
        BatchGeo {
            neighbors,
            fill: fill.map(|(slot, _)| slot),
        }
    }
}

/// One 64-slot word of a [`CandidateTable`] bitset.
#[derive(Clone, Copy, Default)]
struct SlotWord {
    /// Bit `g % 64` is set iff global slot `g` is reachable.
    bits: u64,
    /// Position in the table's cost list of this word's first reachable
    /// slot: the entries of every earlier source, plus the set bits of
    /// this source's earlier words.
    base: usize,
}

/// Every source's serving-candidate costs in one epoch, priced once per
/// burst and read by every shard. Per source, a bitset over the burst's
/// global slots marks the reachable ones, and the cost list holds one
/// `(base RTT, hops)` entry per reachable slot, in slot order; a slot's
/// entry sits at its word's `base` plus the set bits below it.
///
/// The entries are the rung-independent costs of the Figure 6 ladder: the
/// overhead satellite at its user link's round trip and zero hops, any
/// other satellite at `user_prop + space_segment_cost(km, route hops)`
/// with its BFS hop level, both read from the members of the source's
/// [`RoutingBall`] in that shell. A slot is reachable iff it is a member
/// (the ball is cut at the source's ground fallback); a shell without an
/// overhead satellite contributes nothing.
pub(super) struct CandidateTable {
    /// Bitset words per source.
    stride: usize,
    /// `source × stride + g / 64` → the word holding slot `g`.
    words: Vec<SlotWord>,
    /// `(base RTT, hops)` of every reachable slot, source-major.
    costs: Vec<(Latency, u32)>,
}

impl CandidateTable {
    /// Price every source's candidates on one epoch's per-shell graphs
    /// from their [`resolve_overheads`] rows.
    pub(super) fn build(
        graphs: &[Arc<IslGraph>],
        overheads: &[Vec<Option<Overhead>>],
        sources: usize,
        shell_offsets: &[u32],
        access: &AccessModel,
    ) -> CandidateTable {
        // Every source homed on one satellite reads that satellite's ball,
        // so each home's members are priced once, in slot order, as
        // (global slot, hops, space-segment cost); a source then adds its
        // own user link. The overhead satellite's segment is zero, and
        // `user_prop + 0` is `user_prop` exactly.
        let mut homes: Vec<(usize, SatIndex, usize)> = overheads
            .iter()
            .enumerate()
            .flat_map(|(k, row)| {
                row.iter()
                    .enumerate()
                    .filter_map(move |(si, o)| Some((k, o.as_ref()?.sat, si)))
            })
            .collect();
        homes.sort_unstable();
        homes.dedup_by_key(|&mut (k, sat, _)| (k, sat));
        let mut spans = Vec::with_capacity(homes.len() + 1);
        let mut members: Vec<(u32, u32, Latency)> = Vec::new();
        for &(k, sat, si) in &homes {
            spans.push(members.len());
            let ball = &overheads[k][si]
                .as_ref()
                .expect("a home is an overhead")
                .tables;
            let off = shell_offsets[k];
            // The home itself, in its slot-order place, whether or not
            // the cut kept it in its own ball.
            let mut home = Some((off + sat.0, 0, Latency::ZERO));
            ball.for_each_member(|m| {
                if m.sat >= sat {
                    members.extend(home.take());
                }
                if m.sat != sat {
                    let segment = space_segment_cost(access, m.km, m.route_hops);
                    members.push((off + m.sat.0, m.hops, segment));
                }
            });
            members.extend(home);
        }
        spans.push(members.len());
        let home_of = |k: usize, o: &Overhead| {
            let h = homes
                .binary_search_by_key(&(k, o.sat), |&(k, sat, _)| (k, sat))
                .expect("every overhead satellite is a home");
            &members[spans[h]..spans[h + 1]]
        };

        let total_sats = graphs.iter().map(|g| g.len()).sum::<usize>();
        let stride = total_sats.div_ceil(64);
        let mut words = vec![SlotWord::default(); sources * stride];
        let reachable = overheads
            .iter()
            .enumerate()
            .flat_map(|(k, row)| row.iter().flatten().map(move |o| home_of(k, o).len()))
            .sum();
        let mut costs = Vec::with_capacity(reachable);
        for si in 0..sources {
            let row = &mut words[si * stride..(si + 1) * stride];
            let mut base = costs.len();
            for (k, per_shell) in overheads.iter().enumerate() {
                let Some(o) = per_shell[si].as_ref() else {
                    continue;
                };
                let user_prop = propagation_delay(o.slant, Medium::Vacuum).round_trip();
                for &(g, hops, segment) in home_of(k, o) {
                    row[g as usize / 64].bits |= 1 << (g % 64);
                    costs.push((user_prop + segment, hops));
                }
            }
            for w in row {
                w.base = base;
                base += w.bits.count_ones() as usize;
            }
        }
        CandidateTable {
            stride,
            words,
            costs,
        }
    }

    /// `(base RTT, hops)` of global slot `g` as a candidate for source
    /// `si`, or `None` when it cannot serve that source.
    #[inline]
    pub(super) fn get(&self, si: usize, g: u32) -> Option<(Latency, u32)> {
        let word = self.words[si * self.stride + (g / 64) as usize];
        let bit = 1u64 << (g % 64);
        (word.bits & bit != 0)
            .then(|| self.costs[word.base + (word.bits & (bit - 1)).count_ones() as usize])
    }
}

/// One epoch's share of a burst's geometry: every source's [`BatchGeo`]
/// and the epoch's [`CandidateTable`].
pub(super) struct EpochGeo {
    pub(super) batches: Vec<BatchGeo>,
    pub(super) candidates: CandidateTable,
}

/// A ground point's overhead satellite on one snapshot — the servable
/// satellite nearest in slant range — with the routing tables rooted at
/// it.
pub struct Overhead {
    /// The overhead satellite (shell-local index).
    pub sat: SatIndex,
    /// Slant range from the ground point to it.
    pub slant: Km,
    /// Routing tables from it out to the requested radius, cut at the
    /// ground fallback of the users homed on it, shared with the graph's
    /// routing cache.
    pub tables: RoutingBall,
}

/// The [`Overhead`] of every ground point in `users` on every graph in
/// `graphs`, as `[graph][user]` (`None` where no satellite is servable),
/// with tables exact out to `radius` hops
/// ([`IslGraph::routing_tables_within`]; `u32::MAX` covers each source's
/// whole component).
///
/// `fallback(g, u)` is the ground-fallback RTT user `u`'s fetches on
/// graph `g` are served against (an infinite one keeps whole balls). A
/// fetch is served from space only when `base + jitter ≤ fallback`, where
/// the jitter is positive and `base ≥ user_prop + rt(km)` (every cost past
/// the user link's propagation round trip and the ISL path's is
/// non-negative, and a cooperative probe over an edge costs at least the
/// Dijkstra km to its neighbor). So each table's walk also stops once
/// `user_prop + rt(km)` of the next satellite to settle exceeds the
/// fallback ([`IslGraph::routing_tables_cut`]): nothing it drops could
/// ever serve, and every per-rung best, tie and decision stays the same.
/// A table serves every user homed on its satellite, so its cut takes
/// their smallest `user_prop` and largest fallback.
///
/// One [`IslGraph::nearest_alive`] pass per graph, then one [`par_map`]
/// task per *distinct* (graph, overhead satellite) pair, in graph-major
/// order. A table build costs far more than a search and users cluster
/// on few satellites, so per-satellite tasks keep every worker busy where
/// one task per graph left them waiting on the largest graph. Tables come
/// from (and stay in) each graph's routing cache, so they are bitwise the
/// tables an on-demand lookup with the same cut returns.
pub fn resolve_overheads(
    graphs: &[&IslGraph],
    users: &[Geodetic],
    radius: u32,
    fallback: impl Fn(usize, usize) -> Latency,
) -> Vec<Vec<Option<Overhead>>> {
    let nearest: Vec<Vec<Option<(SatIndex, Km)>>> = par_map(graphs, |_, g| {
        users.iter().map(|&user| g.nearest_alive(user)).collect()
    });
    // Sorted by (graph, satellite), so a binary search finds each task.
    let tasks: Vec<(usize, SatIndex)> = nearest
        .iter()
        .enumerate()
        .flat_map(|(gi, row)| {
            let mut sats: Vec<SatIndex> = row.iter().flatten().map(|&(sat, _)| sat).collect();
            sats.sort_unstable();
            sats.dedup();
            sats.into_iter().map(move |sat| (gi, sat))
        })
        .collect();
    let task_of = |gi: usize, sat: SatIndex| {
        tasks
            .binary_search(&(gi, sat))
            .expect("every overhead satellite has a task")
    };
    // Each task's cut: the smallest user-link round trip and the largest
    // fallback among the users homed on it.
    let mut cuts = vec![
        FallbackCut {
            user_prop: Latency(f64::INFINITY),
            fallback: Latency::ZERO,
        };
        tasks.len()
    ];
    for (gi, row) in nearest.iter().enumerate() {
        for (ui, hit) in row.iter().enumerate() {
            let Some((sat, slant)) = *hit else {
                continue;
            };
            let cut = &mut cuts[task_of(gi, sat)];
            let user_prop = propagation_delay(slant, Medium::Vacuum).round_trip();
            if user_prop < cut.user_prop {
                cut.user_prop = user_prop;
            }
            let fallback = fallback(gi, ui);
            if fallback > cut.fallback {
                cut.fallback = fallback;
            }
        }
    }
    let tables = par_map(&tasks, |t, &(gi, sat)| {
        graphs[gi].routing_tables_cut(sat, radius, cuts[t])
    });
    nearest
        .into_iter()
        .enumerate()
        .map(|(gi, row)| {
            row.into_iter()
                .map(|hit| {
                    let (sat, slant) = hit?;
                    Some(Overhead {
                        sat,
                        slant,
                        tables: tables[task_of(gi, sat)].clone(),
                    })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::tests::test_sources;
    use spacecdn_geo::{DetRng, SimTime};
    use spacecdn_orbit::shell::shells;
    use spacecdn_orbit::Constellation;

    #[test]
    fn resolve_overheads_matches_on_demand_lookups() {
        use spacecdn_lsn::{FaultPlan, SourceTables};
        // Madrid twice: duplicate users share one overhead task.
        let mut users: Vec<Geodetic> = test_sources(1).iter().map(|s| s.position).collect();
        users.push(users[0]);
        let uncut = |_, _| Latency(f64::INFINITY);
        let check = |graphs: &[&IslGraph]| {
            let resolved = resolve_overheads(graphs, &users, 10, uncut);
            // Whole-component balls for the same users, replacing the
            // radius-10 ones in each graph's cache.
            let full = resolve_overheads(graphs, &users, u32::MAX, uncut);
            assert_eq!(resolved.len(), graphs.len());
            for ((graph, row), full_row) in graphs.iter().zip(&resolved).zip(&full) {
                assert_eq!(row.len(), users.len());
                for ((&user, got), got_full) in users.iter().zip(row).zip(full_row) {
                    match (graph.nearest_alive(user), got) {
                        (Some((sat, slant)), Some(o)) => {
                            assert_eq!(o.sat, sat);
                            assert_eq!(o.slant.0.to_bits(), slant.0.to_bits());
                            let want = RoutingBall::compute(graph, sat, 10, None);
                            let full = SourceTables::compute(graph, sat);
                            let o_full = got_full.as_ref().expect("same overhead");
                            for s in (0..graph.len() as u32).map(SatIndex) {
                                assert_eq!(o.tables.hops(s), want.hops(s));
                                assert_eq!(o.tables.km(s), want.km(s));
                                assert_eq!(o_full.tables.hops(s), full.hops[s.as_usize()]);
                                assert_eq!(o_full.tables.km(s), full.km[s.as_usize()]);
                            }
                        }
                        (None, None) => {}
                        (want, got) => panic!(
                            "overhead mismatch: want {want:?}, got {:?}",
                            got.as_ref().map(|o| o.sat)
                        ),
                    }
                }
                if let (Some(first), Some(dup)) = (&row[0], &row[users.len() - 1]) {
                    assert!(RoutingBall::ptr_eq(&first.tables, &dup.tables));
                }
            }
            resolved
        };

        // Pristine, faulted, and a graph where no satellite can serve
        // ground, so every user is in a dead zone.
        let c = Constellation::new(shells::starlink_shell1());
        let pristine = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let mut faults = FaultPlan::none();
        faults.fail_random_sats(c.len(), 0.2, &mut DetRng::new(3, "overheads"));
        let faulted = IslGraph::build(&c, SimTime::from_secs(97), &faults);
        let mut dark = FaultPlan::none();
        for sat in c.sat_indices() {
            dark.fail_gsl(sat);
        }
        let dark = IslGraph::build(&c, SimTime::EPOCH, &dark);
        let resolved = check(&[&pristine, &faulted, &dark]);
        assert!(resolved[0].iter().all(Option::is_some));
        assert!(resolved[2].iter().all(Option::is_none));

        // The 64-satellite test shell.
        let small = Constellation::new(shells::test_shell());
        let small = IslGraph::build(&small, SimTime::EPOCH, &FaultPlan::none());
        check(&[&small]);
    }

    #[test]
    fn fallback_cut_keeps_every_entry_that_could_serve() {
        use spacecdn_lsn::{FaultPlan, SourceTables};
        // Users spread over two continents, three of them homed together
        // (Madrid and two points beside it) with different fallbacks, so
        // one task's cut merges users; fallbacks from 25 ms up cut walks
        // hard.
        let mut users: Vec<Geodetic> = test_sources(1).iter().map(|s| s.position).collect();
        users.push(Geodetic::ground(40.41, -3.71));
        users.push(Geodetic::ground(40.39, -3.69));
        let fallback_of = |ui: usize| Latency::from_ms(25.0 + 17.0 * ui as f64);
        let c = Constellation::new(shells::starlink_shell1());
        let mut faults = FaultPlan::none();
        faults.fail_random_sats(c.len(), 0.1, &mut DetRng::new(5, "cut"));
        let mut dropped = 0usize;
        for (t, plan) in [(0u64, FaultPlan::none()), (211, faults)] {
            let graph = IslGraph::build(&c, SimTime::from_secs(t), &plan);
            let resolved = resolve_overheads(&[&graph], &users, 10, |_, ui| fallback_of(ui));
            for (ui, o) in resolved[0].iter().enumerate() {
                let o = o.as_ref().expect("Shell 1 covers every user");
                let user_prop = propagation_delay(o.slant, Medium::Vacuum).round_trip();
                let full = SourceTables::compute(&graph, o.sat);
                for s in (0..graph.len() as u32).map(SatIndex) {
                    let (km, route) = full.km[s.as_usize()];
                    let h = full.hops[s.as_usize()];
                    if h > 10 {
                        assert_eq!(o.tables.hops(s), u32::MAX);
                        continue;
                    }
                    let floor = user_prop + propagation_delay(Km(km), Medium::Vacuum).round_trip();
                    if o.tables.hops(s) == u32::MAX {
                        // Dropped: could never beat this user's fallback.
                        assert!(floor > fallback_of(ui), "user {ui} lost sat {s:?}");
                        assert_eq!(o.tables.km(s), (f64::INFINITY, u32::MAX));
                        dropped += 1;
                    } else {
                        assert_eq!(o.tables.hops(s), h);
                        assert_eq!(o.tables.km(s).0.to_bits(), km.to_bits());
                        assert_eq!(o.tables.km(s).1, route);
                    }
                }
            }
        }
        assert!(dropped > 0, "no fallback cut ever fired");
    }

    #[test]
    fn candidate_tables_match_ball_reads() {
        use spacecdn_lsn::FaultPlan;
        // The deleted per-shard cost cache's reads, kept as the reference:
        // the overhead satellite at its user link, any other satellite
        // priced from its shell's ball, unreachable outside it.
        fn reference(
            row: &[Vec<Option<Overhead>>],
            si: usize,
            shell: usize,
            local: SatIndex,
            access: &AccessModel,
        ) -> Option<(Latency, u32)> {
            let o = row[shell][si].as_ref()?;
            let user_prop = propagation_delay(o.slant, Medium::Vacuum).round_trip();
            if local == o.sat {
                return Some((user_prop, 0));
            }
            let h = o.tables.hops(local);
            let (dist_km, route_hops) = o.tables.km(local);
            (h != u32::MAX && dist_km.is_finite()).then(|| {
                (
                    user_prop + space_segment_cost(access, dist_km, route_hops),
                    h,
                )
            })
        }

        let access = AccessModel::default();
        let mut users: Vec<Geodetic> = test_sources(1).iter().map(|s| s.position).collect();
        users.push(Geodetic::ground(40.41, -3.71));
        users.push(Geodetic::ground(-60.0, 10.0));
        // Fallbacks from 25 ms up cut the walks hard; an infinite one
        // keeps the whole ball, as on a burst's final live graph.
        let cut = |_: usize, ui: usize| Latency::from_ms(25.0 + 17.0 * ui as f64);
        let uncut = |_: usize, _: usize| Latency(f64::INFINITY);
        let shell1 = Constellation::new(shells::starlink_shell1());
        let mut faults = FaultPlan::none();
        faults.fail_random_sats(shell1.len(), 0.1, &mut DetRng::new(5, "cut"));
        let small = Constellation::new(shells::test_shell());
        // Two epochs of two shells each: Shell 1 with dead satellites
        // (global slots first) and the 64-satellite test shell (last).
        let epochs: Vec<Vec<Arc<IslGraph>>> = [0u64, 157]
            .iter()
            .map(|&t| {
                vec![
                    Arc::new(IslGraph::build(&shell1, SimTime::from_secs(t), &faults)),
                    Arc::new(IslGraph::build(
                        &small,
                        SimTime::from_secs(t),
                        &FaultPlan::none(),
                    )),
                ]
            })
            .collect();
        let offsets = [0, shell1.len() as u32];
        let (mut reachable, mut unreachable) = (0usize, 0usize);
        for (graphs, fallback) in epochs
            .iter()
            .zip([&cut as &dyn Fn(usize, usize) -> Latency, &uncut])
        {
            for radius in [1, 10] {
                let refs: Vec<&IslGraph> = graphs.iter().map(|g| &**g).collect();
                let row = resolve_overheads(&refs, &users, radius, fallback);
                let table = CandidateTable::build(graphs, &row, users.len(), &offsets, &access);
                for si in 0..users.len() {
                    for (shell, graph) in graphs.iter().enumerate() {
                        for local in (0..graph.len() as u32).map(SatIndex) {
                            let g = offsets[shell] + local.0;
                            let want = reference(&row, si, shell, local, &access);
                            let got = table.get(si, g);
                            assert_eq!(
                                got.map(|(rtt, h)| (rtt.ms().to_bits(), h)),
                                want.map(|(rtt, h)| (rtt.ms().to_bits(), h)),
                                "source {si}, slot {g}, radius {radius}"
                            );
                            match got {
                                Some(_) => reachable += 1,
                                None => unreachable += 1,
                            }
                        }
                    }
                }
            }
        }
        assert!(
            reachable > 0 && unreachable > 0,
            "{reachable} / {unreachable}"
        );
    }
}
