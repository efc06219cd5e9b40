//! Lazy per-shard Poisson arrivals.

use spacecdn_content::popularity::ZipfSampler;
use spacecdn_des::stream::EventStream;
use spacecdn_geo::{DetRng, SimDuration, SimTime};

/// One generated request: which source issued it and which shard-local
/// object rank it wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Index into the run's source list.
    pub source: u32,
    /// Shard-local popularity rank (index into the shard's id list).
    pub rank: u32,
}

/// Lazy Poisson arrival stream for one catalog shard.
///
/// Yields exactly `quota` arrivals with exponential inter-arrival gaps,
/// clamped to the horizon so every shard meets its quota. Per arrival the
/// RNG stream `traffic/arrivals/{shard}` is consumed in a pinned order —
/// inter-arrival gap, then source roll, then Zipf rank — which
/// `crates/core/tests/streaming.rs` proves identical to a materialized
/// reference generator (times, sources, ranks, and RNG consumption).
pub struct ArrivalStream<'a> {
    rng: DetRng,
    weight_cdf: &'a [u64],
    sampler: &'a ZipfSampler,
    horizon: SimTime,
    mean_interarrival_s: f64,
    prev: SimTime,
    issued: u64,
    quota: u64,
}

impl<'a> ArrivalStream<'a> {
    /// The arrival stream of shard `shard` under `seed`: `quota` requests
    /// spread over `(start, horizon]` with mean rate `quota / (horizon -
    /// start)`. The RNG stream and per-arrival draw order do not depend on
    /// `start`, so a stream starting at `start` is the `start`-shift of
    /// the one starting at [`SimTime::EPOCH`], gap for gap.
    #[allow(clippy::too_many_arguments)]
    pub fn starting_at(
        seed: u64,
        shard: usize,
        weight_cdf: &'a [u64],
        sampler: &'a ZipfSampler,
        start: SimTime,
        horizon: SimTime,
        quota: u64,
    ) -> Self {
        ArrivalStream {
            rng: DetRng::new(seed, &format!("traffic/arrivals/{shard}")),
            weight_cdf,
            sampler,
            horizon,
            mean_interarrival_s: horizon.since(start).as_secs_f64() / quota.max(1) as f64,
            prev: start,
            issued: 0,
            quota,
        }
    }

    /// The stream's RNG after the arrivals generated so far — lets the
    /// equivalence suite assert the exact consumption order.
    pub fn into_rng(self) -> DetRng {
        self.rng
    }
}

impl EventStream for ArrivalStream<'_> {
    type Event = Arrival;

    fn next_event(&mut self) -> Option<(SimTime, Arrival)> {
        if self.issued >= self.quota {
            return None;
        }
        self.issued += 1;
        let gap = SimDuration::from_secs_f64(self.rng.exponential(self.mean_interarrival_s));
        let at = (self.prev + gap).min(self.horizon);
        self.prev = at;
        let total = *self.weight_cdf.last().expect("non-empty sources");
        let roll = self.rng.index(total as usize) as u64;
        let source = self.weight_cdf.partition_point(|&c| c <= roll) as u32;
        let rank = self.sampler.sample(&mut self.rng) as u32;
        Some((at, Arrival { source, rank }))
    }
}
