//! The wire protocol: JSON-lines over TCP, one request or response
//! object per `\n`-terminated line.
//!
//! # Versioning (v1.3)
//!
//! Every request may carry an optional `"v"` field; every response
//! echoes `"v": "1.3"` ([`PROTOCOL_VERSION`]). The server accepts any
//! `1.x` version string (additive-change contract within a major
//! version) and rejects other majors with an error line. Unknown
//! *top-level* request fields are tolerated and ignored — a newer
//! client may send fields this server has never heard of and still get
//! served (forward compatibility). Keys inside `"constraints"` remain
//! strict: silently dropping a constraint the client thought it set is
//! the worst possible service behavior, so an unknown constraint key
//! is an error, not a shrug.
//!
//! Requests (`op` selects the operation):
//!
//! ```text
//! {"op": "submit", "design": "<netlist text>", "constraints": {…},
//!  "stream": true?, "priority": "high"|"normal"|"low"?, "client": "tag"?, "v": "1.3"?}
//! {"op": "submit_batch", "designs": ["<netlist text>", …], "constraints": {…},
//!  "priority": …?, "client": …?, "v": …?}
//! {"op": "status", "job": N}
//! {"op": "result", "job": N}          ← blocks until the job is terminal
//! {"op": "cancel", "job": N}
//! {"op": "stats"}
//! {"op": "trace"}                     ← drain buffered trace events
//! {"op": "shutdown"}
//! ```
//!
//! `design` carries the engine's own netlist text format
//! ([`milo_core::parse_netlist`]); `constraints` is an object with
//! optional `max_delay` / `max_area` / `max_power` numbers and a
//! `path_delays` array of `[port, ns]` pairs. A batch's constraints
//! apply to every member (mirroring the offline batch driver's
//! signature). Responses always carry `"ok"` and `"v"`; protocol
//! errors come back as `{"ok": false, …}` on the offending line
//! without killing the connection. Jobs submitted with
//! `"stream": true` additionally emit `{"event": …, "job": N, …}`
//! lines on the submitting connection as the flow progresses — clients
//! distinguish events from responses by the `event` key. (Event lines
//! are not responses and carry no `"v"`.)

use crate::json::{self, Value};
use milo_core::netlist::Netlist;
use milo_core::{parse_netlist, Constraints};
use milo_trace::{json_object, JsonWriter};

/// The protocol version every response announces. Within major
/// version 1 all changes are additive; requests carrying another major
/// are rejected.
pub const PROTOCOL_VERSION: &str = "1.3";

/// Most designs one `submit_batch` request may carry — a backstop
/// against a single request monopolizing the queue and the parser.
pub const MAX_BATCH: usize = 256;

/// A job's scheduling band. `Normal` is the default; `High` is for
/// interactive latency-sensitive work, `Low` for bulk backfill.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Interactive: served first (8 of every 13 scheduler picks).
    High,
    /// The default band (4 of every 13 picks when `High` is busy).
    #[default]
    Normal,
    /// Bulk: never starved, but yields to everyone else.
    Low,
}

impl Priority {
    /// Band index, `High` first — the scheduler's array order.
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses the wire spelling.
    ///
    /// # Errors
    ///
    /// Unknown spellings (a *known* field with a bad value is an
    /// error, unlike unknown fields).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!(
                "unknown priority {other:?} (expected \"high\", \"normal\", or \"low\")"
            )),
        }
    }
}

/// A parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Enqueue a synthesis job.
    Submit {
        /// The design to synthesize.
        netlist: Box<Netlist>,
        /// Its constraints.
        constraints: Constraints,
        /// Stream flow events back on this connection.
        stream: bool,
        /// Scheduling band.
        priority: Priority,
        /// Optional client identity tag (fairness is per-tag; untagged
        /// submissions are per-connection).
        client: Option<String>,
    },
    /// Enqueue N designs as one batch: arms share one database
    /// snapshot and fan out through the batch driver, but each member
    /// is its own job id for `status`/`result`/`cancel`.
    SubmitBatch {
        /// The member designs, in request order.
        netlists: Vec<Netlist>,
        /// Constraints applied to every member.
        constraints: Constraints,
        /// Scheduling band for the whole batch.
        priority: Priority,
        /// Optional client identity tag.
        client: Option<String>,
    },
    /// Poll a job's state.
    Status(u64),
    /// Block until a job is terminal, then fetch its payload.
    Result(u64),
    /// Cancel a queued job.
    Cancel(u64),
    /// Service counters.
    Stats,
    /// Drain the process's buffered trace events as a Chrome trace
    /// (`{"ok": true, "trace": {"traceEvents": […], …}}`). Empty
    /// unless tracing is enabled (`MILO_TRACE=1` in the server's
    /// environment); see `docs/OBSERVABILITY.md`.
    Trace,
    /// Stop the server.
    Shutdown,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    check_version(&v)?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing \"op\"")?;
    let job = |v: &Value| -> Result<u64, String> {
        v.get("job")
            .and_then(Value::as_u64)
            .ok_or_else(|| "missing or invalid \"job\" id".to_owned())
    };
    match op {
        "submit" => {
            let text = v
                .get("design")
                .and_then(Value::as_str)
                .ok_or("submit needs a \"design\" netlist text")?;
            let netlist = parse_netlist(text).map_err(|e| format!("design does not parse: {e}"))?;
            let stream = v.get("stream").and_then(Value::as_bool).unwrap_or(false);
            Ok(Request::Submit {
                netlist: Box::new(netlist),
                constraints: constraints_field(&v)?,
                stream,
                priority: priority_field(&v)?,
                client: client_field(&v)?,
            })
        }
        "submit_batch" => {
            let items = v
                .get("designs")
                .and_then(Value::as_array)
                .ok_or("submit_batch needs a \"designs\" array of netlist texts")?;
            if items.is_empty() {
                return Err("submit_batch needs at least one design".to_owned());
            }
            if items.len() > MAX_BATCH {
                return Err(format!(
                    "submit_batch carries {} designs; the limit is {MAX_BATCH}",
                    items.len()
                ));
            }
            let mut netlists = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let text = item
                    .as_str()
                    .ok_or_else(|| format!("\"designs\"[{i}] must be a netlist text string"))?;
                netlists.push(
                    parse_netlist(text)
                        .map_err(|e| format!("\"designs\"[{i}] does not parse: {e}"))?,
                );
            }
            Ok(Request::SubmitBatch {
                netlists,
                constraints: constraints_field(&v)?,
                priority: priority_field(&v)?,
                client: client_field(&v)?,
            })
        }
        "status" => Ok(Request::Status(job(&v)?)),
        "result" => Ok(Request::Result(job(&v)?)),
        "cancel" => Ok(Request::Cancel(job(&v)?)),
        "stats" => Ok(Request::Stats),
        "trace" => Ok(Request::Trace),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Validates the optional `"v"` field: absent (pre-1.1 client) or any
/// `1.x` string is accepted; anything else is rejected.
fn check_version(v: &Value) -> Result<(), String> {
    let Some(field) = v.get("v") else {
        return Ok(());
    };
    let s = field
        .as_str()
        .ok_or("\"v\" must be a version string like \"1.3\"")?;
    if s == "1" || s.starts_with("1.") {
        Ok(())
    } else {
        Err(format!(
            "unsupported protocol version {s:?} (this server speaks {PROTOCOL_VERSION})"
        ))
    }
}

fn constraints_field(v: &Value) -> Result<Constraints, String> {
    match v.get("constraints") {
        None => Ok(Constraints::none()),
        Some(c) => parse_constraints(c),
    }
}

fn priority_field(v: &Value) -> Result<Priority, String> {
    match v.get("priority") {
        None => Ok(Priority::Normal),
        Some(p) => Priority::parse(p.as_str().ok_or("\"priority\" must be a string")?),
    }
}

fn client_field(v: &Value) -> Result<Option<String>, String> {
    match v.get("client") {
        None => Ok(None),
        Some(c) => {
            let tag = c.as_str().ok_or("\"client\" must be a string tag")?;
            if tag.is_empty() || tag.len() > 128 {
                return Err("\"client\" must be 1–128 characters".to_owned());
            }
            Ok(Some(tag.to_owned()))
        }
    }
}

/// Parses a constraints object. Unknown keys are rejected — silently
/// dropping a constraint the client thought it set is the worst
/// possible service behavior.
pub fn parse_constraints(v: &Value) -> Result<Constraints, String> {
    let Value::Obj(members) = v else {
        return Err("\"constraints\" must be an object".to_owned());
    };
    let mut c = Constraints::none();
    let finite = |key: &str, v: &Value| -> Result<f64, String> {
        let n = v
            .as_f64()
            .filter(|n| n.is_finite())
            .ok_or_else(|| format!("\"{key}\" must be a finite number"))?;
        Ok(n)
    };
    for (key, val) in members {
        match key.as_str() {
            "max_delay" => c.max_delay = Some(finite(key, val)?),
            "max_area" => c.max_area = Some(finite(key, val)?),
            "max_power" => c.max_power = Some(finite(key, val)?),
            "path_delays" => {
                let items = val
                    .as_array()
                    .ok_or("\"path_delays\" must be an array of [port, ns] pairs")?;
                for item in items {
                    let pair = item.as_array().unwrap_or(&[]);
                    let (Some(port), Some(ns)) = (
                        pair.first().and_then(Value::as_str),
                        pair.get(1)
                            .and_then(Value::as_f64)
                            .filter(|n| n.is_finite()),
                    ) else {
                        return Err("\"path_delays\" entries must be [port, ns]".to_owned());
                    };
                    if pair.len() != 2 {
                        return Err("\"path_delays\" entries must be [port, ns]".to_owned());
                    }
                    c.path_delays.push((port.to_owned(), ns));
                }
            }
            other => return Err(format!("unknown constraints key {other:?}")),
        }
    }
    Ok(c)
}

/// Renders constraints as a protocol object (the client side of
/// [`parse_constraints`]). Floats take their shortest round-tripping
/// form, so values survive the wire exactly; a non-finite value goes
/// out as `null`, which the server rejects as not a finite number.
pub fn constraints_to_json(c: &Constraints) -> String {
    json_object(|w| write_constraints(w, c))
}

/// The members of [`constraints_to_json`]'s object.
pub(crate) fn write_constraints(w: &mut JsonWriter, c: &Constraints) {
    for (key, v) in [
        ("max_delay", c.max_delay),
        ("max_area", c.max_area),
        ("max_power", c.max_power),
    ] {
        if let Some(v) = v {
            w.field(key, v);
        }
    }
    if !c.path_delays.is_empty() {
        w.key("path_delays").array(|w| {
            for (port, ns) in &c.path_delays {
                w.array(|w| {
                    w.value(port).value(*ns);
                });
            }
        });
    }
}

/// `{"ok": false, "v": "1.3", "error": …}` — the universal failure
/// line.
pub fn error_line(message: &str) -> String {
    json_object(|w| {
        w.field("ok", false)
            .field("v", PROTOCOL_VERSION)
            .field("error", message);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESIGN: &str = "design demo\ninput a b\noutput y\ncomp and2 g1 A0=a A1=b Y=y\n";

    fn submit_line(constraints: &str) -> String {
        format!(
            "{{\"op\": \"submit\", \"design\": {}, \"constraints\": {constraints}}}",
            milo_core::json_string(DESIGN)
        )
    }

    #[test]
    fn parses_submit_with_constraints() {
        let line =
            submit_line(r#"{"max_delay": 4.5, "max_area": 50, "path_delays": [["y", 3.25]]}"#);
        let Request::Submit {
            netlist,
            constraints,
            stream,
            priority,
            client,
        } = parse_request(&line).expect("parses")
        else {
            panic!("not a submit");
        };
        assert_eq!(netlist.name, "demo");
        assert!(!stream);
        assert_eq!(priority, Priority::Normal, "default band");
        assert_eq!(client, None);
        assert_eq!(constraints.max_delay, Some(4.5));
        assert_eq!(constraints.max_area, Some(50.0));
        assert_eq!(constraints.required_for("y"), Some(3.25));
    }

    #[test]
    fn parses_priority_client_and_version() {
        let line = format!(
            "{{\"op\": \"submit\", \"v\": \"1.1\", \"design\": {}, \
             \"priority\": \"low\", \"client\": \"batch-farm\"}}",
            milo_core::json_string(DESIGN)
        );
        let Request::Submit {
            priority, client, ..
        } = parse_request(&line).expect("parses")
        else {
            panic!("not a submit");
        };
        assert_eq!(priority, Priority::Low);
        assert_eq!(client.as_deref(), Some("batch-farm"));
    }

    #[test]
    fn parses_trace_op() {
        assert!(matches!(
            parse_request("{\"op\": \"trace\"}"),
            Ok(Request::Trace)
        ));
    }

    /// The v1.1 version contract: pre-`v` requests and any `1.x` are
    /// accepted, other majors are refused, and round-tripping a request
    /// through the version check never alters its meaning.
    #[test]
    fn version_field_round_trip() {
        for ok in ["", ", \"v\": \"1\"", ", \"v\": \"1.0\"", ", \"v\": \"1.9\""] {
            let line = format!("{{\"op\": \"stats\"{ok}}}");
            assert!(
                matches!(parse_request(&line), Ok(Request::Stats)),
                "accepted and unchanged: {line}"
            );
        }
        for (bad, why) in [
            (", \"v\": \"2.0\"", "other major"),
            (", \"v\": \"0.9\"", "ancient major"),
            (", \"v\": 1.1", "non-string version"),
        ] {
            let line = format!("{{\"op\": \"stats\"{bad}}}");
            assert!(parse_request(&line).is_err(), "rejected: {why}");
        }
    }

    /// Forward compatibility: unknown top-level fields are ignored, on
    /// every op — a 1.4 client with new bells must still be served.
    #[test]
    fn unknown_top_level_fields_are_tolerated() {
        for line in [
            "{\"op\": \"stats\", \"shiny_new_field\": [1, 2, 3]}".to_owned(),
            "{\"op\": \"status\", \"job\": 4, \"deadline_ms\": 250}".to_owned(),
            format!(
                "{{\"op\": \"submit\", \"design\": {}, \"trace_id\": \"abc\", \
                 \"nested\": {{\"future\": true}}}}",
                milo_core::json_string(DESIGN)
            ),
        ] {
            assert!(
                parse_request(&line).is_ok(),
                "unknown fields must not reject: {line}"
            );
        }
        // …but unknown *constraint* keys still do (strictness is the
        // documented exception to tolerance).
        assert!(parse_request(&submit_line(r#"{"max_frobs": 3}"#)).is_err());
    }

    #[test]
    fn parses_submit_batch() {
        let line = format!(
            "{{\"op\": \"submit_batch\", \"designs\": [{}, {}], \
             \"constraints\": {{\"max_delay\": 6}}, \"priority\": \"high\"}}",
            milo_core::json_string(DESIGN),
            milo_core::json_string(
                "design second\ninput p q\noutput z\ncomp or2 g1 A0=p A1=q Y=z\n"
            )
        );
        let Request::SubmitBatch {
            netlists,
            constraints,
            priority,
            client,
        } = parse_request(&line).expect("parses")
        else {
            panic!("not a batch");
        };
        assert_eq!(netlists.len(), 2);
        assert_eq!(netlists[0].name, "demo");
        assert_eq!(netlists[1].name, "second");
        assert_eq!(constraints.max_delay, Some(6.0));
        assert_eq!(priority, Priority::High);
        assert_eq!(client, None);
    }

    #[test]
    fn rejects_bad_batches() {
        for (line, why) in [
            (
                "{\"op\": \"submit_batch\"}".to_owned(),
                "missing designs array",
            ),
            (
                "{\"op\": \"submit_batch\", \"designs\": []}".to_owned(),
                "empty batch",
            ),
            (
                "{\"op\": \"submit_batch\", \"designs\": [42]}".to_owned(),
                "non-string member",
            ),
            (
                format!(
                    "{{\"op\": \"submit_batch\", \"designs\": [{}, \"design x\\nbogus\"]}}",
                    milo_core::json_string(DESIGN)
                ),
                "unparseable member",
            ),
        ] {
            assert!(parse_request(&line).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn constraints_round_trip_through_the_wire_format() {
        let c = Constraints::none()
            .with_max_delay(4.5)
            .with_max_power(9.0)
            .with_path_delay("C0", 0.1); // 0.1 is not exact in binary — Display round-trips it
        let v = json::parse(&constraints_to_json(&c)).expect("client json parses");
        let back = parse_constraints(&v).expect("server accepts it");
        assert_eq!(back, c);
        assert_eq!(back.cache_summary(), c.cache_summary(), "bit-exact floats");
    }

    #[test]
    fn rejects_bad_requests() {
        for (line, why) in [
            ("not json", "malformed json"),
            ("{}", "missing op"),
            (r#"{"op": "frobnicate"}"#, "unknown op"),
            (r#"{"op": "status"}"#, "missing job id"),
            (r#"{"op": "status", "job": -1}"#, "negative job id"),
            (r#"{"op": "submit"}"#, "missing design"),
            (
                r#"{"op": "submit", "design": "design x\nbogus line"}"#,
                "unparseable design",
            ),
            (
                r#"{"op": "stats", "priority": "urgent"}"#,
                "bad value for a known field",
            ),
        ] {
            // `stats` ignores priority, so the last case asserts on
            // submit instead.
            if line.contains("urgent") {
                let submit = format!(
                    "{{\"op\": \"submit\", \"design\": {}, \"priority\": \"urgent\"}}",
                    milo_core::json_string(DESIGN)
                );
                assert!(parse_request(&submit).is_err(), "accepted: {why}");
                continue;
            }
            assert!(parse_request(line).is_err(), "accepted: {why}");
        }
        let bad_constraints = [
            r#"{"max_delay": "fast"}"#,
            r#"{"max_delay": 1e999}"#,
            r#"{"tightest": 1}"#,
            r#"{"path_delays": [["y"]]}"#,
            r#"{"path_delays": [["y", 1, 2]]}"#,
        ];
        for c in bad_constraints {
            assert!(
                parse_request(&submit_line(c)).is_err(),
                "accepted constraints: {c}"
            );
        }
    }

    #[test]
    fn error_line_is_json_and_versioned() {
        let line = error_line("bad \"stuff\"\nhere");
        let v = json::parse(&line).expect("error line parses");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("v").and_then(Value::as_str), Some(PROTOCOL_VERSION));
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("bad \"stuff\"\nhere")
        );
    }
}
