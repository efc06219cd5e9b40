//! Recorded replay goldens: a committed session journal must replay to
//! the exact report bytes it produced when it was recorded.
//!
//! The daemon tests prove live == replay within one build; this pins the
//! bytes across builds, so an engine change that alters any decision a
//! session makes (overhead geometry, routing tables, cache or placement
//! state) fails here even when it stays self-consistent.

use std::path::Path;

/// A small two-shell starlink session (shells 0 and 2) over the
/// covered-cities source table: a satellite outage window, a SIEVE cache
/// swap, cooperative placement, a 2-epoch burst, a fetch, a clock
/// advance, a permanent ground-link outage, and a 3-epoch burst.
const STARLINK_MULTISHELL: &str = concat!(
    r#"{"ok":true,"report":{"session":"golden","seed":11,"clock_ns":315000000000,"bursts":2,"#,
    r#""mutations":5,"fetches":{"count":1,"space_hits":1,"degraded":0,"#,
    r#""rtt_ms_sum":35.37620445073927},"traffic":{"requests":6000,"overhead_hits":312,"#,
    r#""isl_hits":1790,"origin_fetches":3898,"dead_zones":0,"inserts":2330,"evictions":166,"#,
    r#""ttl_expiries":0,"invalidations":20,"served_bytes":1324335137,"#,
    r#""origin_bytes":7129708404,"pinned_hits":667,"neighbor_hits":384,"#,
    r#""decision_digest":8841183166232656509,"p50_ms":36.70060748179289,"#,
    r#""p90_ms":71.33260155380607,"p99_ms":148.50526816553617}}}"#
);

#[test]
fn starlink_multishell_journal_replays_to_recorded_report() {
    let journal =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/starlink_multishell.jsonl");
    let report = spacecdn_serve::journal::replay(&journal).expect("fixture replays");
    assert_eq!(report, STARLINK_MULTISHELL);
}
