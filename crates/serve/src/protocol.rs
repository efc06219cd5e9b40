//! The line-delimited JSON protocol: command parsing and canonical
//! re-encoding.
//!
//! Every request is one JSON object per line with an `"op"` field; every
//! response is one JSON object per line with an `"ok"` field. Mutating
//! commands are re-encoded *canonically* (fixed key order, shortest
//! round-trip floats) before journaling, so a journal line is a pure
//! function of the parsed command — whatever whitespace or key order the
//! client used. Replay parses those canonical lines back through the same
//! [`Command::parse`], closing the loop: journal(parse(x)) is a fixed
//! point after one round trip.
//!
//! Grammar (see DESIGN.md §3.7 for the full table):
//!
//! ```text
//! {"op":"ping"}
//! {"op":"list"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! {"op":"create","session":S,"seed":N,"constellation":"test"|"starlink",
//!  "shells":[..],"streams":N,"catalog":N,"zipf_alpha":F,"cache_mb":N,
//!  "duty":F,"copies_per_plane":N}
//! {"op":"drop","session":S}
//! {"op":"advance","session":S,"secs":N}
//! {"op":"fetch","session":S,"lat":F,"lon":F}
//! {"op":"traffic","session":S,"requests":N,"epochs":N,"epoch_step_secs":N}
//! {"op":"fault","session":S,"sats":[..],"from_secs":N,"until_secs":N|null,
//!  "gsl":B}
//! {"op":"duty","session":S,"fraction":F}
//! {"op":"cache","session":S,"bytes_per_sat":N,
//!  "policy":"lru"|"sieve"|"s3fifo"|"tinylfu"|null}
//! {"op":"place","session":S,"spec":"perplane-2:budget-500:coop"|"off"|null}
//! {"op":"report","session":S}
//! ```

use serde_json::{parse_value, Value};

/// Session-creation parameters (all but `session` optional on the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct CreateArgs {
    /// Session name (registry key; also the journal file stem).
    pub session: String,
    /// Master seed for every deterministic stream the session owns.
    pub seed: u64,
    /// `"test"` (8×8 reduced shell) or `"starlink"` (2024 shells).
    pub constellation: String,
    /// Starlink 2024 shell indices (ignored for `"test"`).
    pub shells: Vec<u32>,
    /// Catalog shards per traffic burst (semantic parallelism grain).
    pub streams: u32,
    /// Catalog size in objects.
    pub catalog: u32,
    /// Zipf popularity exponent.
    pub zipf_alpha: f64,
    /// Per-satellite cache capacity in MiB.
    pub cache_mb: u32,
    /// Initial duty-cycle fraction.
    pub duty: f64,
    /// Content copies pre-placed per orbital plane (0 = none).
    pub copies_per_plane: u32,
}

impl Default for CreateArgs {
    fn default() -> Self {
        CreateArgs {
            session: String::new(),
            seed: 42,
            constellation: "test".to_string(),
            shells: vec![0],
            streams: 4,
            catalog: 2_000,
            zipf_alpha: 0.9,
            cache_mb: 64,
            duty: 1.0,
            copies_per_plane: 1,
        }
    }
}

/// A parsed protocol command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// Enumerate sessions.
    List,
    /// Telemetry snapshot (the shared `spacecdn-metrics-v1` serializer).
    Metrics,
    /// Drain sessions, flush journals, exit 0.
    Shutdown,
    /// Create a session.
    Create(CreateArgs),
    /// Drop a session.
    Drop {
        /// Session name.
        session: String,
    },
    /// Advance the session's virtual clock.
    Advance {
        /// Session name.
        session: String,
        /// Seconds of virtual time to move forward.
        secs: u64,
    },
    /// Resolve one retrieval at the current clock.
    Fetch {
        /// Session name.
        session: String,
        /// User latitude (degrees).
        lat: f64,
        /// User longitude (degrees).
        lon: f64,
    },
    /// Run a batched traffic burst from the current clock.
    Traffic {
        /// Session name.
        session: String,
        /// Requests in the burst.
        requests: u64,
        /// Topology epochs the burst spans.
        epochs: u32,
        /// Epoch spacing in seconds.
        epoch_step_secs: u64,
    },
    /// Inject outage windows into the live fault schedule.
    Fault {
        /// Session name.
        session: String,
        /// Satellites the outage hits.
        sats: Vec<u32>,
        /// Outage start (absolute virtual seconds).
        from_secs: u64,
        /// Outage end (absolute virtual seconds; `None` = permanent).
        until_secs: Option<u64>,
        /// Ground-link outage instead of a full satellite outage.
        gsl: bool,
    },
    /// Change the duty-cycle fraction for subsequent bursts.
    Duty {
        /// Session name.
        session: String,
        /// New active-cache fraction.
        fraction: f64,
    },
    /// Resize per-satellite caches and/or swap their eviction policy for
    /// subsequent bursts.
    Cache {
        /// Session name.
        session: String,
        /// New capacity in bytes.
        bytes_per_sat: u64,
        /// New eviction/admission policy (canonical
        /// [`spacecdn_core::traffic::PolicyKind`] name); `None` keeps the
        /// session's current policy.
        policy: Option<String>,
    },
    /// Swap (or disable) the replica-placement spec for subsequent bursts.
    Place {
        /// Session name.
        session: String,
        /// Canonical [`spacecdn_core::PlacementSpec`] name; `None` (or the
        /// wire spellings `"off"` / `null` / absent) disables pinned
        /// placement.
        spec: Option<String>,
    },
    /// The session's canonical final report.
    Report {
        /// Session name.
        session: String,
    },
}

impl Command {
    /// Does this command change daemon or session state (and therefore
    /// belong in a journal)?
    pub fn is_mutating(&self) -> bool {
        matches!(
            self,
            Command::Create(..)
                | Command::Drop { .. }
                | Command::Advance { .. }
                | Command::Fetch { .. }
                | Command::Traffic { .. }
                | Command::Fault { .. }
                | Command::Duty { .. }
                | Command::Cache { .. }
                | Command::Place { .. }
        )
    }

    /// The session the command addresses, if any.
    pub fn session(&self) -> Option<&str> {
        match self {
            Command::Create(args) => Some(&args.session),
            Command::Drop { session }
            | Command::Advance { session, .. }
            | Command::Fetch { session, .. }
            | Command::Traffic { session, .. }
            | Command::Fault { session, .. }
            | Command::Duty { session, .. }
            | Command::Cache { session, .. }
            | Command::Place { session, .. }
            | Command::Report { session } => Some(session),
            _ => None,
        }
    }

    /// Parse one request line. Errors are human-readable strings the
    /// server echoes back as `{"ok":false,"error":...}`.
    pub fn parse(line: &str) -> Result<Command, String> {
        let value = parse_value(line).map_err(|e| format!("bad json: {e:?}"))?;
        let op = str_field(&value, "op")?;
        match op.as_str() {
            "ping" => Ok(Command::Ping),
            "list" => Ok(Command::List),
            "metrics" => Ok(Command::Metrics),
            "shutdown" => Ok(Command::Shutdown),
            "create" => {
                let d = CreateArgs::default();
                let args = CreateArgs {
                    session: str_field(&value, "session")?,
                    seed: field_or(&value, "seed", d.seed, u64_field)?,
                    constellation: field_or(&value, "constellation", d.constellation, str_field)?,
                    shells: field_or(&value, "shells", d.shells, u32s_field)?,
                    streams: field_or(&value, "streams", d.streams, u32_field)?,
                    catalog: field_or(&value, "catalog", d.catalog, u32_field)?,
                    zipf_alpha: field_or(&value, "zipf_alpha", d.zipf_alpha, f64_field)?,
                    cache_mb: field_or(&value, "cache_mb", d.cache_mb, u32_field)?,
                    duty: field_or(&value, "duty", d.duty, f64_field)?,
                    copies_per_plane: field_or(
                        &value,
                        "copies_per_plane",
                        d.copies_per_plane,
                        u32_field,
                    )?,
                };
                if !(args.zipf_alpha.is_finite() && args.zipf_alpha >= 0.0) {
                    return Err(format!(
                        "zipf_alpha must be finite and non-negative, got {}",
                        args.zipf_alpha
                    ));
                }
                if !(0.0..=1.0).contains(&args.duty) {
                    return Err(format!("duty must be in [0, 1], got {}", args.duty));
                }
                if args.catalog < args.streams.max(1) {
                    return Err(format!(
                        "catalog must hold at least one object per stream, got catalog {} for {} streams",
                        args.catalog, args.streams
                    ));
                }
                Ok(Command::Create(args))
            }
            "drop" => Ok(Command::Drop {
                session: str_field(&value, "session")?,
            }),
            "advance" => Ok(Command::Advance {
                session: str_field(&value, "session")?,
                secs: u64_field(&value, "secs")?,
            }),
            "fetch" => {
                let (lat, lon) = (f64_field(&value, "lat")?, f64_field(&value, "lon")?);
                if !((-90.0..=90.0).contains(&lat) && (-180.0..=180.0).contains(&lon)) {
                    return Err(format!(
                        "lat must be in [-90, 90] and lon in [-180, 180], got {lat}, {lon}"
                    ));
                }
                Ok(Command::Fetch {
                    session: str_field(&value, "session")?,
                    lat,
                    lon,
                })
            }
            "traffic" => Ok(Command::Traffic {
                session: str_field(&value, "session")?,
                requests: u64_field(&value, "requests")?,
                epochs: field_or(&value, "epochs", 1, u32_field)?,
                epoch_step_secs: field_or(&value, "epoch_step_secs", 157, u64_field)?,
            }),
            "fault" => Ok(Command::Fault {
                session: str_field(&value, "session")?,
                sats: u32s_field(&value, "sats")?,
                from_secs: u64_field(&value, "from_secs")?,
                until_secs: nullable(&value, "until_secs", u64_field)?,
                gsl: field_or(&value, "gsl", false, bool_field)?,
            }),
            "duty" => Ok(Command::Duty {
                session: str_field(&value, "session")?,
                fraction: f64_field(&value, "fraction")?,
            }),
            "cache" => {
                let policy = match nullable(&value, "policy", str_field)? {
                    Some(name) => Some(
                        spacecdn_core::traffic::PolicyKind::parse(&name)
                            .ok_or_else(|| format!("unknown cache policy {name:?}"))?
                            .name()
                            .to_string(),
                    ),
                    None => None,
                };
                Ok(Command::Cache {
                    session: str_field(&value, "session")?,
                    bytes_per_sat: u64_field(&value, "bytes_per_sat")?,
                    policy,
                })
            }
            "place" => {
                let spec = match nullable(&value, "spec", str_field)? {
                    Some(name) if name == "off" => None,
                    Some(name) => Some(
                        spacecdn_core::PlacementSpec::parse(&name)
                            .ok_or_else(|| format!("unparseable placement spec {name:?}"))?
                            .name(),
                    ),
                    None => None,
                };
                Ok(Command::Place {
                    session: str_field(&value, "session")?,
                    spec,
                })
            }
            "report" => Ok(Command::Report {
                session: str_field(&value, "session")?,
            }),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Canonical single-line encoding: fixed key order, every field
    /// explicit. `parse(canonical(c)) == c` for every command, and
    /// `canonical` is injective over commands, so journals are stable.
    pub fn canonical(&self) -> String {
        match self {
            Command::Ping => r#"{"op":"ping"}"#.to_string(),
            Command::List => r#"{"op":"list"}"#.to_string(),
            Command::Metrics => r#"{"op":"metrics"}"#.to_string(),
            Command::Shutdown => r#"{"op":"shutdown"}"#.to_string(),
            Command::Create(a) => format!(
                concat!(
                    r#"{{"op":"create","session":{},"seed":{},"constellation":{},"#,
                    r#""shells":{},"streams":{},"catalog":{},"zipf_alpha":{},"#,
                    r#""cache_mb":{},"duty":{},"copies_per_plane":{}}}"#
                ),
                json_str(&a.session),
                a.seed,
                json_str(&a.constellation),
                json_u32s(&a.shells),
                a.streams,
                a.catalog,
                json_f64(a.zipf_alpha),
                a.cache_mb,
                json_f64(a.duty),
                a.copies_per_plane,
            ),
            Command::Drop { session } => {
                format!(r#"{{"op":"drop","session":{}}}"#, json_str(session))
            }
            Command::Advance { session, secs } => format!(
                r#"{{"op":"advance","session":{},"secs":{}}}"#,
                json_str(session),
                secs
            ),
            Command::Fetch { session, lat, lon } => format!(
                r#"{{"op":"fetch","session":{},"lat":{},"lon":{}}}"#,
                json_str(session),
                json_f64(*lat),
                json_f64(*lon)
            ),
            Command::Traffic {
                session,
                requests,
                epochs,
                epoch_step_secs,
            } => format!(
                r#"{{"op":"traffic","session":{},"requests":{},"epochs":{},"epoch_step_secs":{}}}"#,
                json_str(session),
                requests,
                epochs,
                epoch_step_secs
            ),
            Command::Fault {
                session,
                sats,
                from_secs,
                until_secs,
                gsl,
            } => format!(
                r#"{{"op":"fault","session":{},"sats":{},"from_secs":{},"until_secs":{},"gsl":{}}}"#,
                json_str(session),
                json_u32s(sats),
                from_secs,
                until_secs.map_or("null".to_string(), |u| u.to_string()),
                gsl
            ),
            Command::Duty { session, fraction } => format!(
                r#"{{"op":"duty","session":{},"fraction":{}}}"#,
                json_str(session),
                json_f64(*fraction)
            ),
            Command::Cache {
                session,
                bytes_per_sat,
                policy,
            } => format!(
                r#"{{"op":"cache","session":{},"bytes_per_sat":{},"policy":{}}}"#,
                json_str(session),
                bytes_per_sat,
                match policy {
                    Some(name) => json_str(name),
                    None => "null".to_string(),
                }
            ),
            Command::Place { session, spec } => format!(
                r#"{{"op":"place","session":{},"spec":{}}}"#,
                json_str(session),
                match spec {
                    Some(name) => json_str(name),
                    None => "null".to_string(),
                }
            ),
            Command::Report { session } => {
                format!(r#"{{"op":"report","session":{}}}"#, json_str(session))
            }
        }
    }
}

/// Escape `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Canonical float rendering: Rust's shortest round-trip `{:?}`, which is
/// deterministic and parses back to the identical bit pattern.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_u32s(xs: &[u32]) -> String {
    let mut out = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_string());
    }
    out.push(']');
    out
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::String(s)) => Ok(s.clone()),
        Some(other) => Err(format!("field {key:?} must be a string, got {other:?}")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::Number(n)) => match n {
            serde_json::Number::UInt(u) => Ok(*u),
            serde_json::Number::Int(i) if *i >= 0 => Ok(*i as u64),
            serde_json::Number::Float(f) if *f >= 0.0 && f.fract() == 0.0 => Ok(*f as u64),
            other => Err(format!(
                "field {key:?} must be a non-negative integer, got {other:?}"
            )),
        },
        Some(other) => Err(format!("field {key:?} must be a number, got {other:?}")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn u32_field(v: &Value, key: &str) -> Result<u32, String> {
    let n = u64_field(v, key)?;
    u32::try_from(n).map_err(|_| format!("field {key:?} must be at most {}, got {n}", u32::MAX))
}

/// `parse(v, key)` when `key` is present and `default` when it is absent:
/// a present field that does not parse is an error, never its default.
fn field_or<T>(
    v: &Value,
    key: &str,
    default: T,
    parse: fn(&Value, &str) -> Result<T, String>,
) -> Result<T, String> {
    match v.get(key) {
        Some(_) => parse(v, key),
        None => Ok(default),
    }
}

/// `Some(parse(v, key))` when `key` holds a value and `None` when it is
/// `null` or absent: a present field that does not parse is an error,
/// never `None`.
fn nullable<T>(
    v: &Value,
    key: &str,
    parse: fn(&Value, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(_) => parse(v, key).map(Some),
    }
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::Number(n)) => Ok(match n {
            serde_json::Number::UInt(u) => *u as f64,
            serde_json::Number::Int(i) => *i as f64,
            serde_json::Number::Float(f) => *f,
        }),
        Some(other) => Err(format!("field {key:?} must be a number, got {other:?}")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        Some(other) => Err(format!("field {key:?} must be a bool, got {other:?}")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn u32s_field(v: &Value, key: &str) -> Result<Vec<u32>, String> {
    match v.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| match item {
                Value::Number(serde_json::Number::UInt(u)) => {
                    u32::try_from(*u).map_err(|_| format!("{u} out of range in {key:?}"))
                }
                Value::Number(serde_json::Number::Int(i)) if *i >= 0 => {
                    u32::try_from(*i).map_err(|_| format!("{i} out of range in {key:?}"))
                }
                other => Err(format!("field {key:?} must hold integers, got {other:?}")),
            })
            .collect(),
        Some(other) => Err(format!("field {key:?} must be an array, got {other:?}")),
        None => Err(format!("missing field {key:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(cmd: &Command) {
        let line = cmd.canonical();
        let back = Command::parse(&line).expect("canonical line parses");
        assert_eq!(&back, cmd, "round trip through {line}");
        // Canonical encoding is a fixed point after one round trip.
        assert_eq!(back.canonical(), line);
    }

    #[test]
    fn every_command_round_trips_canonically() {
        roundtrip(&Command::Ping);
        roundtrip(&Command::List);
        roundtrip(&Command::Metrics);
        roundtrip(&Command::Shutdown);
        roundtrip(&Command::Create(CreateArgs {
            session: "s-1".into(),
            ..CreateArgs::default()
        }));
        roundtrip(&Command::Drop {
            session: "s".into(),
        });
        roundtrip(&Command::Advance {
            session: "s".into(),
            secs: 120,
        });
        roundtrip(&Command::Fetch {
            session: "s".into(),
            lat: -25.966,
            lon: 32.583,
        });
        roundtrip(&Command::Traffic {
            session: "s".into(),
            requests: 10_000,
            epochs: 2,
            epoch_step_secs: 157,
        });
        roundtrip(&Command::Fault {
            session: "s".into(),
            sats: vec![1, 5, 9],
            from_secs: 300,
            until_secs: Some(600),
            gsl: false,
        });
        roundtrip(&Command::Fault {
            session: "s".into(),
            sats: vec![],
            from_secs: 0,
            until_secs: None,
            gsl: true,
        });
        roundtrip(&Command::Duty {
            session: "s".into(),
            fraction: 0.3,
        });
        roundtrip(&Command::Cache {
            session: "s".into(),
            bytes_per_sat: 1 << 30,
            policy: None,
        });
        roundtrip(&Command::Cache {
            session: "s".into(),
            bytes_per_sat: 1 << 30,
            policy: Some("s3fifo".into()),
        });
        roundtrip(&Command::Place {
            session: "s".into(),
            spec: None,
        });
        roundtrip(&Command::Place {
            session: "s".into(),
            spec: Some("perplane-2:budget-500:cap-64:coop".into()),
        });
        roundtrip(&Command::Report {
            session: "s".into(),
        });
    }

    #[test]
    fn parse_tolerates_client_key_order_and_defaults() {
        let cmd = Command::parse(r#"{ "session": "a", "op": "create", "seed": 7 }"#).unwrap();
        match cmd {
            Command::Create(a) => {
                assert_eq!(a.session, "a");
                assert_eq!(a.seed, 7);
                assert_eq!(a.constellation, "test");
                assert_eq!(a.streams, 4);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Command::parse("not json").is_err());
        assert!(Command::parse(r#"{"op":"warp"}"#).is_err());
        assert!(Command::parse(r#"{"op":"advance","session":"a"}"#).is_err());
        assert!(Command::parse(r#"{"op":"fetch","session":"a","lat":"x","lon":0}"#).is_err());
    }

    #[test]
    fn cache_policy_is_validated_and_normalized() {
        // Aliases normalize to the canonical policy name at parse time, so
        // journals always store the canonical spelling.
        let cmd = Command::parse(
            r#"{"op":"cache","session":"s","bytes_per_sat":1024,"policy":"w-tinylfu"}"#,
        )
        .unwrap();
        match cmd {
            Command::Cache { policy, .. } => assert_eq!(policy.as_deref(), Some("tinylfu")),
            other => panic!("wrong parse: {other:?}"),
        }
        // Absent and explicit-null both mean "keep current policy".
        for line in [
            r#"{"op":"cache","session":"s","bytes_per_sat":1024}"#,
            r#"{"op":"cache","session":"s","bytes_per_sat":1024,"policy":null}"#,
        ] {
            match Command::parse(line).unwrap() {
                Command::Cache { policy, .. } => assert_eq!(policy, None),
                other => panic!("wrong parse: {other:?}"),
            }
        }
        assert!(Command::parse(
            r#"{"op":"cache","session":"s","bytes_per_sat":1024,"policy":"belady"}"#
        )
        .is_err());
    }

    #[test]
    fn place_spec_is_validated_and_normalized() {
        // Shorthand specs normalize to the canonical full name at parse
        // time, so journals always store the explicit spelling.
        let cmd =
            Command::parse(r#"{"op":"place","session":"s","spec":"perplane-2:coop"}"#).unwrap();
        match cmd {
            Command::Place { spec, .. } => {
                assert_eq!(spec.as_deref(), Some("perplane-2:budget-10000:cap-64:coop"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // "off", null, and absent all disable placement.
        for line in [
            r#"{"op":"place","session":"s","spec":"off"}"#,
            r#"{"op":"place","session":"s","spec":null}"#,
            r#"{"op":"place","session":"s"}"#,
        ] {
            match Command::parse(line).unwrap() {
                Command::Place { spec, .. } => assert_eq!(spec, None),
                other => panic!("wrong parse: {other:?}"),
            }
        }
        assert!(Command::parse(r#"{"op":"place","session":"s","spec":"hotspot-7"}"#).is_err());
        assert!(Command::Place {
            session: "s".into(),
            spec: None
        }
        .is_mutating());
    }

    #[test]
    fn mutating_classification_matches_journal_policy() {
        assert!(!Command::Ping.is_mutating());
        assert!(!Command::List.is_mutating());
        assert!(!Command::Metrics.is_mutating());
        assert!(!Command::Shutdown.is_mutating());
        assert!(!Command::Report {
            session: "s".into()
        }
        .is_mutating());
        assert!(Command::Create(CreateArgs::default()).is_mutating());
        assert!(Command::Advance {
            session: "s".into(),
            secs: 1
        }
        .is_mutating());
    }
}
