//! Streaming-arrival equivalence: the lazy [`ArrivalStream`] must
//! produce the *exact* event sequence — times (to the nanosecond),
//! source indices, object ranks, and RNG stream consumption order — of a
//! materialized reference generator that builds the whole schedule up
//! front. This is the contract that let the traffic engine drop its
//! per-shard event queues: if the lazy stream drifted by a single draw,
//! every downstream number would silently change.

use proptest::prelude::*;
use spacecdn_content::popularity::ZipfSampler;
use spacecdn_core::traffic::{Arrival, ArrivalStream};
use spacecdn_des::stream::EventStream;
use spacecdn_geo::{DetRng, SimDuration, SimTime};

/// The reference generator: materialize every arrival eagerly with the
/// same primitive draws in the same pinned order (gap, source roll,
/// rank), clamping to the horizon. Returns the events and the RNG as it
/// stands after the full sequence.
#[allow(clippy::too_many_arguments)]
fn materialized_reference(
    seed: u64,
    shard: usize,
    weight_cdf: &[u64],
    sampler: &ZipfSampler,
    horizon: SimTime,
    quota: u64,
) -> (Vec<(SimTime, Arrival)>, DetRng) {
    let mut rng = DetRng::new(seed, &format!("traffic/arrivals/{shard}"));
    let mean = horizon.as_secs_f64() / quota.max(1) as f64;
    let mut events = Vec::with_capacity(quota as usize);
    let mut prev = SimTime::EPOCH;
    let total = *weight_cdf.last().expect("non-empty sources") as usize;
    for _ in 0..quota {
        let gap = SimDuration::from_secs_f64(rng.exponential(mean));
        let at = (prev + gap).min(horizon);
        prev = at;
        let roll = rng.index(total) as u64;
        let source = weight_cdf.partition_point(|&c| c <= roll) as u32;
        let rank = sampler.sample(&mut rng) as u32;
        events.push((at, Arrival { source, rank }));
    }
    (events, rng)
}

fn weight_cdf(weights: &[u32]) -> Vec<u64> {
    weights
        .iter()
        .scan(0u64, |acc, &w| {
            *acc += u64::from(w);
            Some(*acc)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lazy stream ≡ materialized reference over shards × epochs × seeds:
    /// identical (time, source, rank) triples bit-for-bit, identical
    /// event count, and — witnessed by a sentinel draw from both RNGs
    /// afterwards — identical RNG stream consumption.
    #[test]
    fn stream_matches_materialized_reference(
        seed in 0u64..1_000,
        shard in 0usize..9,
        epochs in 1usize..5,
        quota in 0u64..400,
        weights in prop::collection::vec(1u32..20, 1..6),
        catalog in 8usize..64,
    ) {
        let cdf = weight_cdf(&weights);
        let ranks: Vec<usize> = (0..catalog).collect();
        let sampler = ZipfSampler::over_ranks(&ranks, 0.9);
        let horizon = SimTime::EPOCH + SimDuration::from_secs(157).mul(epochs as u64);

        let (want, mut ref_rng) =
            materialized_reference(seed, shard, &cdf, &sampler, horizon, quota);

        let mut stream =
            ArrivalStream::starting_at(seed, shard, &cdf, &sampler, SimTime::EPOCH, horizon, quota);
        let mut got = Vec::new();
        while let Some(ev) = stream.next_event() {
            got.push(ev);
        }
        prop_assert_eq!(&got, &want);

        // Exhausted streams stay exhausted without consuming the RNG.
        prop_assert!(stream.next_event().is_none());

        // The sentinel: if the stream consumed one draw more or fewer
        // than the reference anywhere in the sequence, the next draw
        // from each RNG diverges.
        let mut stream_rng = stream.into_rng();
        prop_assert_eq!(stream_rng.index(1 << 30), ref_rng.index(1 << 30));
    }

    /// Start offset is a pure time translation: `starting_at(start, …)`
    /// yields exactly the EPOCH-anchored stream shifted by `start` —
    /// same gaps (integer-nanosecond arithmetic, so the shift is exact),
    /// same sources and ranks, same RNG consumption. This is what lets a
    /// long-lived serve session run bursts from its running clock and
    /// still replay byte-identically.
    #[test]
    fn start_offset_is_an_exact_time_shift(
        seed in 0u64..1_000,
        shard in 0usize..9,
        quota in 1u64..300,
        start_s in 1u64..100_000,
        weights in prop::collection::vec(1u32..20, 1..6),
    ) {
        let cdf = weight_cdf(&weights);
        let ranks: Vec<usize> = (0..32).collect();
        let sampler = ZipfSampler::over_ranks(&ranks, 0.9);
        let span = SimDuration::from_secs(314);
        let start = SimTime::EPOCH + SimDuration::from_secs(start_s);

        let mut anchored = ArrivalStream::starting_at(
            seed, shard, &cdf, &sampler, SimTime::EPOCH, SimTime::EPOCH + span, quota,
        );
        let mut shifted = ArrivalStream::starting_at(
            seed, shard, &cdf, &sampler, start, start + span, quota,
        );
        loop {
            match (anchored.next_event(), shifted.next_event()) {
                (None, None) => break,
                (Some((t0, a0)), Some((t1, a1))) => {
                    prop_assert_eq!(t1, start + t0.since(SimTime::EPOCH));
                    prop_assert_eq!(a0, a1);
                }
                (a, b) => prop_assert!(false, "length mismatch: {:?} vs {:?}", a, b),
            }
        }
    }

    /// Structural invariants the merge/drive loop relies on: times are
    /// non-decreasing, never before EPOCH, never past the horizon, and
    /// sources/ranks are in range.
    #[test]
    fn stream_yields_ordered_in_range_events(
        seed in 0u64..1_000,
        quota in 1u64..300,
        weights in prop::collection::vec(1u32..20, 1..6),
    ) {
        let cdf = weight_cdf(&weights);
        let ranks: Vec<usize> = (0..32).collect();
        let sampler = ZipfSampler::over_ranks(&ranks, 0.9);
        let horizon = SimTime::EPOCH + SimDuration::from_secs(314);

        let mut stream =
            ArrivalStream::starting_at(seed, 0, &cdf, &sampler, SimTime::EPOCH, horizon, quota);
        let mut prev = SimTime::EPOCH;
        let mut count = 0u64;
        while let Some((t, a)) = stream.next_event() {
            prop_assert!(t >= prev, "arrivals must be time-ordered");
            prop_assert!(t <= horizon, "arrivals must clamp to the horizon");
            prop_assert!((a.source as usize) < weights.len());
            prop_assert!((a.rank as usize) < 32);
            prev = t;
            count += 1;
        }
        prop_assert_eq!(count, quota, "every shard meets its quota exactly");
    }
}
