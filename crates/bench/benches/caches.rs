//! Micro-benchmarks of the cache policies under Zipf-shaped churn.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spacecdn_content::catalog::ContentId;
use spacecdn_content::policy::{PolicyFleet, PolicyKind};
use spacecdn_content::popularity::ZipfSampler;
use spacecdn_geo::{DetRng, SimDuration};

fn churn(cache: &mut PolicyFleet, ops: &[(ContentId, u64, bool)]) {
    for &(id, size, is_insert) in ops {
        if is_insert {
            cache.insert(0, id, size);
        } else {
            cache.get(0, id);
        }
    }
}

fn bench_caches(c: &mut Criterion) {
    // Pre-generate a deterministic Zipf-ish op mix.
    let zipf = ZipfSampler::new(10_000, 0.9);
    let mut rng = DetRng::new(7, "cache-bench");
    let ops: Vec<(ContentId, u64, bool)> = (0..10_000)
        .map(|_| {
            let id = ContentId(zipf.sample(&mut rng) as u64);
            (id, 50_000 + rng.index(500_000) as u64, rng.chance(0.4))
        })
        .collect();

    // One satellite slot per policy; the clock never advances, so the TTL
    // never fires and only eviction/admission is measured.
    for kind in PolicyKind::ALL {
        c.bench_function(&format!("{}_10k_ops_zipf", kind.name()), |b| {
            b.iter(|| {
                let mut cache =
                    PolicyFleet::new(kind, 1, 200_000_000, SimDuration::from_secs(3600));
                churn(black_box(&mut cache), &ops);
                cache.len()
            })
        });
    }
}

criterion_group!(benches, bench_caches);
criterion_main!(benches);
