//! Correctness checks on the daemon's responses.

use crate::script::{Kind, Round};
use serde_json::Value;

/// A response must be `ok`, and a burst must report exactly the requests
/// it was asked for.
pub fn response(kind: Kind, resp: &str) -> Result<(), String> {
    if !resp.starts_with(r#"{"ok":true"#) {
        return Err(format!("rejected: {resp}"));
    }
    if let Kind::Traffic(n) = kind {
        if !resp.contains(&format!(r#""burst":{{"requests":{n},"#)) {
            return Err(format!("burst of {n} answered {resp}"));
        }
    }
    Ok(())
}

/// The `report` response of a whole round.
pub fn report_response(resp: &str, round: &Round) -> Result<(), String> {
    response(Kind::Report, resp)?;
    let value = serde_json::parse_value(resp).map_err(|e| format!("report json: {e:?}"))?;
    let report = value
        .get("report")
        .ok_or("report response without report")?;
    report_value(report, round)
}

/// A session report (the object `report` renders) must account for every
/// request the round sent: each burst request is served from space or
/// fetched from the origin, exactly once.
pub fn report_json(report: &str, round: &Round) -> Result<(), String> {
    let value = serde_json::parse_value(report).map_err(|e| format!("report json: {e:?}"))?;
    report_value(&value, round)
}

fn report_value(report: &Value, round: &Round) -> Result<(), String> {
    let num = |path: &[&str]| -> Result<u64, String> {
        let mut v = report;
        for key in path {
            v = v.get(key).ok_or_else(|| format!("report lacks {path:?}"))?;
        }
        match v {
            Value::Number(serde_json::Number::UInt(n)) => Ok(*n),
            other => Err(format!("report {path:?} is {other:?}")),
        }
    };
    let requests = num(&["traffic", "requests"])?;
    let served = num(&["traffic", "overhead_hits"])?
        + num(&["traffic", "isl_hits"])?
        + num(&["traffic", "origin_fetches"])?;
    let checks = [
        ("bursts", num(&["bursts"])?, round.bursts),
        ("traffic requests", requests, round.burst_requests),
        ("served + origin", served, requests),
        ("fetches", num(&["fetches", "count"])?, round.fetches),
    ];
    for (what, got, want) in checks {
        if got != want {
            return Err(format!(
                "session {}: {what} = {got}, expected {want}",
                round.session
            ));
        }
    }
    Ok(())
}
