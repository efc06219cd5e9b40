//! Micro-benchmarks of the ISL routing substrate: snapshot construction,
//! Dijkstra, hop-bounded BFS — the inner loops of every experiment.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spacecdn_geo::{Geodetic, SimTime};
use spacecdn_lsn::{
    bfs_nearest, dijkstra, dijkstra_distances, dijkstra_distances_into, hop_distances,
    hop_distances_into, hop_distances_many, set_routing_cache_override, FaultPlan, IslEdge,
    IslGraph, RoutingBall,
};
use spacecdn_orbit::shell::shells;
use spacecdn_orbit::{Constellation, SatIndex};

/// Pre-CSR reference: single-source Dijkstra over nested `Vec<Vec<IslEdge>>`
/// adjacency with an `f64` `partial_cmp` heap and per-call output allocs —
/// the baseline `routing_bench` compares against (see that bin for the
/// faithful transcription; this copy keeps the criterion suite
/// self-contained).
fn nested_dijkstra(adjacency: &[Vec<IslEdge>], src: SatIndex) -> Vec<(f64, u32)> {
    use std::cmp::Ordering;
    #[derive(PartialEq)]
    struct Item {
        cost: f64,
        sat: u32,
    }
    impl Eq for Item {}
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .cost
                .partial_cmp(&self.cost)
                .expect("finite")
                .then_with(|| other.sat.cmp(&self.sat))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut out = vec![(f64::INFINITY, u32::MAX); adjacency.len()];
    let mut heap = std::collections::BinaryHeap::new();
    out[src.as_usize()] = (0.0, 0);
    heap.push(Item {
        cost: 0.0,
        sat: src.0,
    });
    while let Some(Item { cost, sat }) = heap.pop() {
        if cost > out[sat as usize].0 {
            continue;
        }
        let hops = out[sat as usize].1;
        for edge in &adjacency[sat as usize] {
            let next = cost + edge.length.0;
            if next < out[edge.to.as_usize()].0 {
                out[edge.to.as_usize()] = (next, hops + 1);
                heap.push(Item {
                    cost: next,
                    sat: edge.to.0,
                });
            }
        }
    }
    out
}

fn bench_routing(c: &mut Criterion) {
    let constellation = Constellation::new(shells::starlink_shell1());
    let graph = IslGraph::build(&constellation, SimTime::EPOCH, &FaultPlan::none());
    let src = constellation.sat_at(10, 5);
    let dst = constellation.sat_at(46, 16);

    c.bench_function("isl_graph_build_shell1", |b| {
        b.iter(|| {
            IslGraph::build(
                black_box(&constellation),
                SimTime::from_secs(137),
                &FaultPlan::none(),
            )
        })
    });

    c.bench_function("dijkstra_point_to_point", |b| {
        b.iter(|| dijkstra(black_box(&graph), src, dst))
    });

    c.bench_function("dijkstra_single_source_all", |b| {
        b.iter(|| dijkstra_distances(black_box(&graph), src))
    });

    // CSR vs the pre-CSR nested data plane, same source, same outputs.
    let nested: Vec<Vec<IslEdge>> = (0..graph.len())
        .map(|i| graph.neighbors(SatIndex(i as u32)).iter().collect())
        .collect();
    c.bench_function("dijkstra_single_source_nested_baseline", |b| {
        b.iter(|| nested_dijkstra(black_box(&nested), src))
    });
    c.bench_function("dijkstra_single_source_into_recycled", |b| {
        let mut buf = Vec::new();
        b.iter(|| dijkstra_distances_into(black_box(&graph), src, &mut buf))
    });

    c.bench_function("bfs_hop_distances_all", |b| {
        b.iter(|| hop_distances(black_box(&graph), src))
    });
    c.bench_function("bfs_hop_distances_into_recycled", |b| {
        let mut buf = Vec::new();
        b.iter(|| hop_distances_into(black_box(&graph), src, &mut buf))
    });

    let batch: Vec<SatIndex> = (0..16).map(|i| SatIndex(i * 97)).collect();
    c.bench_function("bfs_hop_distances_many_16", |b| {
        b.iter(|| hop_distances_many(black_box(&graph), &batch))
    });

    c.bench_function("bfs_nearest_within_10", |b| {
        b.iter(|| bfs_nearest(black_box(&graph), src, 10, |s| s == dst || s == SatIndex(3)))
    });

    // Cached vs uncached 10-hop ball lookups: `routing_tables_within`
    // memoizes per (snapshot, source), so steady-state hits are a map
    // probe + Arc clone vs a bounded BFS + Dijkstra walk.
    c.bench_function("routing_ball_10_uncached", |b| {
        b.iter(|| RoutingBall::compute(black_box(&graph), src, 10, None))
    });
    c.bench_function("routing_ball_10_cached", |b| {
        graph.routing_tables_within(src, 10); // warm the entry once
        b.iter(|| graph.routing_tables_within(black_box(src), 10))
    });

    // Spatial-index vs linear nearest-alive queries over a ground grid.
    let queries: Vec<_> = (-60..=60)
        .step_by(30)
        .flat_map(|lat| {
            (-180..180)
                .step_by(45)
                .map(move |lon| Geodetic::ground(lat as f64, lon as f64))
        })
        .collect();
    c.bench_function("nearest_alive_linear_scan", |b| {
        b.iter(|| {
            queries
                .iter()
                .filter_map(|&g| graph.nearest_alive_linear(black_box(g)))
                .count()
        })
    });
    c.bench_function("nearest_alive_spatial_index", |b| {
        set_routing_cache_override(Some(true));
        b.iter(|| {
            queries
                .iter()
                .filter_map(|&g| graph.nearest_alive(black_box(g)))
                .count()
        });
        set_routing_cache_override(None);
    });
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
