//! The Figure 6 decision for the single fetch
//! ([`crate::retrieval::RetrievalRequest`]) and the traffic engine: the
//! cheapest copy of the first hop-budget rung that beats the ground, else
//! the ground. Callers [`offer`] candidates at a *base* RTT that leaves
//! out a term common to the whole fetch (user link, scheduling jitter) and
//! pass that term to [`first_within`], so per-rung winners depend on base
//! RTTs alone. No RNG draws and no telemetry happen here.

use spacecdn_geo::Latency;

/// One rung's best candidate so far, (base RTT, BFS hops, id); `None` if none.
pub(crate) type RungBest<T> = Option<(Latency, u32, T)>;

/// The cooperative rung's budget: the overhead satellite or a +Grid neighbor.
pub(crate) const NEIGHBOR_RUNG: &[u32] = &[1];

/// Panics unless `ladder` is non-empty and strictly ascending, as the
/// folds assume (each rung admits a superset of the one below).
pub(crate) fn check(ladder: &[u32]) {
    assert!(
        !ladder.is_empty() && ladder.windows(2).all(|w| w[0] < w[1]),
        "escalation ladder must be non-empty and ascending"
    );
}

/// Fold one candidate into `rungs`, one per hop budget of `ladder`, from
/// the first rung admitting `hops` upward. Bests never increase up the
/// ladder, so the first rung it does not strictly beat ends the cascade.
/// Strict `<` keeps the earliest candidate on a tie, so folding a prefix
/// and then its tail equals a per-rung minimum over the whole list.
pub(crate) fn offer<T: Copy>(
    ladder: &[u32],
    rungs: &mut [RungBest<T>],
    base: Latency,
    hops: u32,
    id: T,
) {
    debug_assert_eq!(ladder.len(), rungs.len(), "one best per rung");
    let Some(first) = ladder.iter().position(|&budget| hops <= budget) else {
        return;
    };
    for best in &mut rungs[first..] {
        match *best {
            Some((b, _, _)) if base >= b => break,
            _ => *best = Some((base, hops, id)),
        }
    }
}

/// The first rung whose best, at `base + extra`, is no dearer than the
/// `ground` fallback: (rung, that RTT, hops, id); `None` serves the
/// ground. A rung that loses is passed over, since a wider budget can
/// admit a kilometre-cheaper copy over the +Grid's long intra-plane hops.
pub(crate) fn first_within<T: Copy>(
    rungs: &[RungBest<T>],
    extra: Latency,
    ground: Latency,
) -> Option<(usize, Latency, u32, T)> {
    rungs.iter().enumerate().find_map(|(j, best)| {
        let (base, hops, id) = (*best)?;
        let rtt = base + extra;
        (rtt <= ground).then_some((j, rtt, hops, id))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Candidates as (base RTT, hops, list position), costs drawn from a
    /// few values so exact ties are common.
    fn arb_candidates() -> impl Strategy<Value = Vec<(Latency, u32, usize)>> {
        prop::collection::vec((0u32..6, 0u32..14), 0..40).prop_map(|cs| {
            cs.into_iter()
                .enumerate()
                .map(|(i, (cost, hops))| (Latency::from_ms(10.0 * f64::from(cost)), hops, i))
                .collect()
        })
    }

    /// A non-empty, strictly ascending ladder.
    fn arb_ladder() -> impl Strategy<Value = Vec<u32>> {
        prop::collection::vec(0u32..12, 1..6).prop_map(|mut l| {
            l.sort_unstable();
            l.dedup();
            l
        })
    }

    /// Each rung's minimum base RTT over the candidates it admits, the
    /// earliest one on ties.
    fn naive(ladder: &[u32], cands: &[(Latency, u32, usize)]) -> Vec<RungBest<usize>> {
        ladder
            .iter()
            .map(|&budget| {
                let mut best: RungBest<usize> = None;
                for &(base, hops, id) in cands {
                    if hops <= budget && best.is_none_or(|(b, _, _)| base < b) {
                        best = Some((base, hops, id));
                    }
                }
                best
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Folding a prefix, then the tail, equals the one-shot per-rung
        /// minimum: the engine memo's append-only folding.
        #[test]
        fn prefix_then_tail_equals_naive_minimum(
            cands in arb_candidates(),
            ladder in arb_ladder(),
            split in 0usize..41,
        ) {
            let split = split.min(cands.len());
            let mut rungs = vec![None; ladder.len()];
            for &(base, hops, id) in &cands[..split] {
                offer(&ladder, &mut rungs, base, hops, id);
            }
            prop_assert_eq!(&rungs, &naive(&ladder, &cands[..split]));
            for &(base, hops, id) in &cands[split..] {
                offer(&ladder, &mut rungs, base, hops, id);
            }
            prop_assert_eq!(&rungs, &naive(&ladder, &cands));
        }

        /// `first_within` is a linear scan of the rungs.
        #[test]
        fn first_within_is_a_linear_scan(
            cands in arb_candidates(),
            ladder in arb_ladder(),
            extra_ms in 0u32..30,
            ground_ms in 0u32..80,
        ) {
            let rungs = naive(&ladder, &cands);
            let (extra, ground) = (
                Latency::from_ms(f64::from(extra_ms)),
                Latency::from_ms(f64::from(ground_ms)),
            );
            let mut want = None;
            for (j, best) in rungs.iter().enumerate() {
                if let Some((base, hops, id)) = *best {
                    if base + extra <= ground {
                        want = Some((j, base + extra, hops, id));
                        break;
                    }
                }
            }
            prop_assert_eq!(first_within(&rungs, extra, ground), want);
        }

        /// An offer to the cooperative rung, stored ahead of the ladder's
        /// rungs as the engine stores them, never reaches a ladder rung.
        #[test]
        fn neighbor_rung_offer_stays_in_its_slice(
            cands in arb_candidates(),
            ladder in arb_ladder(),
        ) {
            // The rung's candidates: the overhead satellite or a neighbor.
            let probes: Vec<_> = cands.iter().map(|&(b, h, id)| (b, h.min(1), id)).collect();
            let mut bests = vec![None; 1 + ladder.len()];
            for &(base, hops, id) in &probes {
                offer(NEIGHBOR_RUNG, &mut bests[..1], base, hops, id);
            }
            prop_assert!(bests[1..].iter().all(Option::is_none));
            prop_assert_eq!(bests[0], naive(NEIGHBOR_RUNG, &probes)[0]);
        }
    }

    #[test]
    #[should_panic(expected = "escalation ladder must be non-empty and ascending")]
    fn check_rejects_an_empty_ladder() {
        check(&[]);
    }

    #[test]
    #[should_panic(expected = "escalation ladder must be non-empty and ascending")]
    fn check_rejects_a_repeated_rung() {
        check(&[1, 3, 3]);
    }
}
