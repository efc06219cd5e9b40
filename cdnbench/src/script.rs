//! Workloads and the protocol scripts they send.
//!
//! Every workload is a closed loop of *rounds*. A round opens a fresh
//! session, sends a fixed mix of protocol commands, checks the session's
//! report and drops it, so a session's retained state (every request's
//! latency sample) stays bounded however long the benchmark runs. All
//! inputs are drawn from the benchmark seed; the program only ever sees
//! the generated command lines.

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Large bursts of skewed demand over all four Starlink shells with
    /// big caches and cooperative placement: the hit path of the engine.
    TrafficHot,
    /// Flat demand over a large catalog with small caches, rotating
    /// eviction policies, fault windows and clock advances between
    /// bursts: evictions, invalidations and topology re-snapshots.
    TrafficChurn,
    /// Two concurrent clients on the small test shell sending many small
    /// commands: protocol, journal and socket cost per command.
    ServeSession,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "traffic-hot" => Some(Workload::TrafficHot),
            "traffic-churn" => Some(Workload::TrafficChurn),
            "serve-session" => Some(Workload::ServeSession),
            _ => None,
        }
    }

    /// Concurrent client connections, each driving its own sessions.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeSession => 2,
            Workload::TrafficHot | Workload::TrafficChurn => 1,
        }
    }

    /// The `create` command that opens a session of this workload.
    pub fn create_line(self, session: &str, seed: u64) -> String {
        let (constellation, shells, streams, catalog, alpha, cache_mb, duty) = match self {
            Workload::TrafficHot => ("starlink", "[0,1,2,3]", 8, 20_000, 1.1, 8_192, 1.0),
            Workload::TrafficChurn => ("starlink", "[0,1,2,3]", 8, 50_000, 0.7, 48, 0.7),
            Workload::ServeSession => ("test", "[0]", 2, 2_000, 0.9, 64, 1.0),
        };
        format!(
            concat!(
                r#"{{"op":"create","session":"{}","seed":{},"constellation":"{}","#,
                r#""shells":{},"streams":{},"catalog":{},"zipf_alpha":{},"#,
                r#""cache_mb":{},"duty":{},"copies_per_plane":1}}"#
            ),
            session, seed, constellation, shells, streams, catalog, alpha, cache_mb, duty
        )
    }

    /// The commands of round `round` for client `client`.
    pub fn round(self, seed: u64, client: usize, round: u64) -> Round {
        let session = format!("c{client}r{round}");
        let mut rng = Rng::new(seed ^ ((client as u64) << 48) ^ round.wrapping_mul(0x9E37_79B9));
        let mut b = RoundBuilder::new(&session);
        b.push(
            Kind::Create,
            self.create_line(&session, rng.next_u64() >> 11),
        );
        match self {
            Workload::TrafficHot => {
                b.command(
                    Kind::Mutate,
                    "place",
                    r#""spec":"perplane-2:budget-4000:cap-8:coop""#,
                );
                for _ in 0..3 {
                    b.traffic(HOT_BURST, 2, 60);
                    b.fetch(&mut rng);
                }
            }
            Workload::TrafficChurn => {
                // Cache sizes are fixed per policy so every round does the
                // same kind of work; the seed moves faults and fetches.
                for (policy, mib) in [
                    ("lru", 24u64),
                    ("sieve", 32),
                    ("s3fifo", 40),
                    ("tinylfu", 48),
                ] {
                    let bytes = mib << 20;
                    b.command(
                        Kind::Mutate,
                        "cache",
                        &format!(r#""bytes_per_sat":{bytes},"policy":"{policy}""#),
                    );
                    b.fault(&mut rng, 24, 1_584);
                    b.traffic(CHURN_BURST, 3, 40);
                    b.advance(60 + rng.below(60));
                    b.fetch(&mut rng);
                }
            }
            Workload::ServeSession => {
                for step in 0..5u64 {
                    for _ in 0..5 {
                        b.fetch(&mut rng);
                    }
                    b.traffic(SERVE_BURST, 1, 60);
                    match step {
                        0 => b.advance(10 + rng.below(110)),
                        1 => {
                            let duty = 0.5 + 0.5 * rng.unit();
                            b.command(Kind::Mutate, "duty", &format!(r#""fraction":{duty}"#));
                        }
                        2 => {
                            let policy =
                                ["lru", "sieve", "s3fifo", "tinylfu"][rng.below(4) as usize];
                            b.command(
                                Kind::Mutate,
                                "cache",
                                &format!(r#""bytes_per_sat":{},"policy":"{policy}""#, 64u64 << 20),
                            );
                        }
                        3 => b.command(
                            Kind::Mutate,
                            "place",
                            r#""spec":"perplane-1:budget-200:coop""#,
                        ),
                        _ => b.fault(&mut rng, 4, 64),
                    }
                    b.push(Kind::Query, r#"{"op":"list"}"#.to_string());
                }
            }
        }
        b.finish()
    }
}

/// Requests per `traffic` command, per workload. Sized so the engine's
/// work, not per-command overhead, dominates the traffic workloads' rounds.
const HOT_BURST: u64 = 400_000;
const CHURN_BURST: u64 = 60_000;
const SERVE_BURST: u64 = 4_000;

/// What a command is, for response checking and per-layer accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Create,
    /// A traffic burst of this many requests.
    Traffic(u64),
    Fetch,
    /// A live mutation: advance, fault, duty, cache, place.
    Mutate,
    Report,
    /// A read-only registry query (`list`).
    Query,
    Drop,
}

/// One protocol line and its kind.
#[derive(Clone, Debug)]
pub struct Op {
    pub line: String,
    pub kind: Kind,
}

/// One round's commands plus the totals its report must show.
#[derive(Clone, Debug)]
pub struct Round {
    pub session: String,
    pub ops: Vec<Op>,
    pub bursts: u64,
    pub burst_requests: u64,
    pub fetches: u64,
}

impl Round {
    /// Simulated requests the round asks for: burst requests plus single
    /// fetches.
    pub fn requests(&self) -> u64 {
        self.burst_requests + self.fetches
    }
}

struct RoundBuilder {
    round: Round,
    /// Session clock in virtual seconds, tracked so fault windows land
    /// ahead of it.
    clock_s: u64,
}

/// Ground points the single fetches come from: populated places under
/// the shells' coverage.
const FETCH_SITES: [(f64, f64); 12] = [
    (-25.97, 32.58),
    (50.11, 8.68),
    (40.71, -74.01),
    (1.29, 103.85),
    (-33.87, 151.21),
    (19.08, 72.88),
    (-23.55, -46.63),
    (6.52, 3.38),
    (35.68, 139.69),
    (51.51, -0.13),
    (-1.29, 36.82),
    (34.05, -118.24),
];

impl RoundBuilder {
    fn new(session: &str) -> Self {
        RoundBuilder {
            round: Round {
                session: session.to_string(),
                ops: Vec::new(),
                bursts: 0,
                burst_requests: 0,
                fetches: 0,
            },
            clock_s: 0,
        }
    }

    fn push(&mut self, kind: Kind, line: String) {
        self.round.ops.push(Op { line, kind });
    }

    /// A session-addressed command with extra `fields` after the name.
    fn command(&mut self, kind: Kind, op: &str, fields: &str) {
        let line = format!(
            r#"{{"op":"{op}","session":"{}",{fields}}}"#,
            self.round.session
        );
        self.push(kind, line);
    }

    fn traffic(&mut self, requests: u64, epochs: u64, step_s: u64) {
        self.command(
            Kind::Traffic(requests),
            "traffic",
            &format!(r#""requests":{requests},"epochs":{epochs},"epoch_step_secs":{step_s}"#),
        );
        self.round.bursts += 1;
        self.round.burst_requests += requests;
        self.clock_s += epochs * step_s;
    }

    fn fetch(&mut self, rng: &mut Rng) {
        let (lat, lon) = FETCH_SITES[rng.below(FETCH_SITES.len() as u64) as usize];
        let lat = lat + rng.unit() - 0.5;
        let lon = lon + rng.unit() - 0.5;
        self.command(Kind::Fetch, "fetch", &format!(r#""lat":{lat},"lon":{lon}"#));
        self.round.fetches += 1;
    }

    fn advance(&mut self, secs: u64) {
        self.command(Kind::Mutate, "advance", &format!(r#""secs":{secs}"#));
        self.clock_s += secs;
    }

    /// An outage of `count` satellites (indices below `fleet`) opening
    /// shortly after the current clock and closing a few minutes later.
    fn fault(&mut self, rng: &mut Rng, count: usize, fleet: u64) {
        let sats: Vec<String> = (0..count).map(|_| rng.below(fleet).to_string()).collect();
        let from = self.clock_s + rng.below(120);
        let until = from + 60 + rng.below(540);
        self.command(
            Kind::Mutate,
            "fault",
            &format!(
                r#""sats":[{}],"from_secs":{from},"until_secs":{until},"gsl":false"#,
                sats.join(",")
            ),
        );
    }

    fn finish(mut self) -> Round {
        let session = self.round.session.clone();
        self.push(
            Kind::Report,
            format!(r#"{{"op":"report","session":"{session}"}}"#),
        );
        self.push(
            Kind::Drop,
            format!(r#"{{"op":"drop","session":"{session}"}}"#),
        );
        self.round
    }
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNG streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
