//! Loopback integration tests for the milo-serve daemon: the service's
//! determinism contract (per-job results byte-identical to the offline
//! batch driver), the result cache and its eviction under a byte
//! budget, priority/fairness scheduling, batch submission, the v1.3
//! protocol envelope, fault isolation, cancellation, connection
//! release, and protocol robustness — all over real TCP connections.

use milo_circuits::{abadd, fig19, pipelined_datapath, random_control, random_logic};
use milo_core::netlist::Netlist;
use milo_core::{
    emit_netlist, parse_netlist, Constraints, FaultInjector, FaultKind, FaultSpec, Flow, Milo,
};
use milo_serve::{spawn, Client, Priority, ServerConfig, SubmitOptions, Value, PROTOCOL_VERSION};
use milo_techmap::ecl_library;
use std::sync::Arc;

/// CI runs this suite a second time with `MILO_SERVE_CACHE_BYTES` set
/// to a tiny budget, which evicts entries between submissions. The
/// determinism contract (byte-identical results) must hold anyway and
/// is always asserted; only assertions about *whether the cache
/// answered* are skipped under an overridden budget.
fn tiny_budget() -> bool {
    std::env::var("MILO_SERVE_CACHE_BYTES").is_ok()
}

/// A design's wire text, plus the same design as the offline driver
/// will see it (the wire round-trip renames nets, so offline runs must
/// consume the parsed form, not the original).
fn wire(nl: &Netlist) -> (String, Netlist) {
    let text = emit_netlist(nl).expect("benchmark circuits emit cleanly");
    let parsed = parse_netlist(&text).expect("emitted text parses back");
    (text, parsed)
}

/// The offline ground truth: `synthesize_batch` over the parsed
/// designs, each result rendered to the same deterministic JSON the
/// server splices into responses.
fn offline_results(designs: &[Netlist], constraints: &Constraints) -> Vec<String> {
    let mut milo = Milo::new(ecl_library());
    milo.synthesize_batch(designs, constraints)
        .into_iter()
        .map(|r| r.expect("offline synthesis succeeds").result.to_json())
        .collect()
}

/// The pass names of a result response's flow report, in order.
fn flow_pass_names(response: &Value) -> Vec<String> {
    response
        .get("output")
        .and_then(|o| o.get("flow"))
        .and_then(|f| f.get("passes"))
        .and_then(Value::as_array)
        .expect("result carries a flow report")
        .iter()
        .map(|p| get_str(p, "name").to_owned())
        .collect()
}

fn get_str<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("<missing>")
}

fn stat_u64(stats: &Value, path: &[&str]) -> u64 {
    let mut v = stats;
    for key in path {
        v = v.get(key).unwrap_or(&Value::Null);
    }
    v.as_u64().unwrap_or(u64::MAX)
}

#[test]
fn concurrent_jobs_byte_match_the_offline_batch() {
    let originals = [
        fig19::circuit3(),
        abadd(),
        random_logic(80, 16, 7),
        pipelined_datapath(2, 4, 3),
        random_control(60, 8, 5),
    ];
    let constraints = Constraints::none().with_max_delay(6.0);
    let pairs: Vec<(String, Netlist)> = originals.iter().map(wire).collect();
    let parsed: Vec<Netlist> = pairs.iter().map(|(_, nl)| nl.clone()).collect();
    let expected = offline_results(&parsed, &constraints);

    let handle = spawn(ServerConfig::new(ecl_library()).with_workers(3)).expect("server binds");
    let addr = handle.addr();

    // One connection per job, all submitting at once: arrival order and
    // worker interleaving must not leak into the results.
    let responses: Vec<String> = std::thread::scope(|scope| {
        let threads: Vec<_> = pairs
            .iter()
            .map(|(text, _)| {
                let constraints = constraints.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connects");
                    let job = client
                        .submit_with(text, &constraints, &SubmitOptions::new())
                        .expect("submits");
                    client.result_raw(job).expect("gets a result")
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("no panic"))
            .collect()
    });

    for (i, (raw, want)) in responses.iter().zip(&expected).enumerate() {
        let v = milo_serve::parse_json(raw).expect("response parses");
        assert_eq!(get_str(&v, "state"), "done", "job {i}: {raw}");
        assert_eq!(get_str(&v, "cache"), "miss", "job {i} was a first run");
        assert!(
            raw.contains(want.as_str()),
            "job {i} ({}): served result is not byte-identical to the offline batch",
            parsed[i].name
        );
    }

    // Identical resubmission from a fresh connection: exact-tier hit,
    // same bytes.
    let mut client = Client::connect(addr).expect("connects");
    let job = client
        .submit_with(&pairs[0].0, &constraints, &SubmitOptions::new())
        .expect("resubmits");
    let raw = client.result_raw(job).expect("gets cached result");
    let v = milo_serve::parse_json(&raw).expect("response parses");
    assert!(
        raw.contains(expected[0].as_str()),
        "resubmission replays the same bytes"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stat_u64(&stats, &["jobs", "done"]), 6);
    assert_eq!(stat_u64(&stats, &["jobs", "failed"]), 0);
    if !tiny_budget() {
        assert_eq!(get_str(&v, "cache"), "hit");
        assert_eq!(stat_u64(&stats, &["cache", "hits"]), 1);
        assert_eq!(stat_u64(&stats, &["cache", "misses"]), 5);
    }
}

/// Every miss runs exactly `Flow::standard()`, with no service pass
/// spliced in, and a near-miss (same design, an area budget added) is a
/// plain miss that reruns every pass and byte-matches a full offline
/// run under its own constraints.
#[test]
fn misses_and_near_misses_run_exactly_the_standard_flow() {
    let (text, parsed) = wire(&fig19::circuit3());
    let loose = Constraints::none().with_max_delay(6.0);
    let with_area = Constraints::none().with_max_delay(6.0).with_max_area(500.0);
    let expected = offline_results(std::slice::from_ref(&parsed), &with_area);
    let standard = Flow::standard();
    let want: Vec<String> = standard
        .pass_names()
        .into_iter()
        .map(str::to_owned)
        .collect();

    let handle = spawn(ServerConfig::new(ecl_library()).with_workers(1)).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("connects");

    for (round, constraints) in [&loose, &with_area].into_iter().enumerate() {
        let job = client
            .submit_with(&text, constraints, &SubmitOptions::new())
            .expect("submits");
        let raw = client.result_raw(job).expect("result");
        let v = milo_serve::parse_json(&raw).expect("parses");
        assert_eq!(get_str(&v, "state"), "done", "round {round}: {raw}");
        assert_eq!(
            get_str(&v, "cache"),
            "miss",
            "round {round}: distinct constraints never share a cache entry"
        );
        assert_eq!(
            flow_pass_names(&v),
            want,
            "round {round}: a miss runs exactly the standard flow"
        );
        if round == 1 {
            assert!(
                raw.contains(expected[0].as_str()),
                "the near-miss is byte-identical to a full offline run under its constraints"
            );
        }
    }
    let stats = client.stats().expect("stats");
    for pass in &want {
        assert_eq!(
            stat_u64(&stats, &["histograms", "passes", pass, "count"]),
            2,
            "{pass} ran once per miss: {stats}"
        );
    }
}

/// A warm design store never changes an answer: one worker runs jobs
/// whose compiled designs overlap, each under the constraints its
/// predecessor did not use, and every answer is byte-identical to a
/// fresh offline run. The store holds compiler output only, exactly
/// what one offline instance holds after the same jobs, and each
/// executed job records one sample per phase.
#[test]
fn a_warm_store_answers_like_a_fresh_instance() {
    let jobs = [
        (pipelined_datapath(4, 8, 3), 25.0),
        (pipelined_datapath(4, 8, 3), 24.0),
        (abadd(), 6.0),
        (abadd(), 7.0),
    ];
    let handle = spawn(ServerConfig::new(ecl_library()).with_workers(1)).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("connects");
    let mut offline = Milo::new(ecl_library());
    for (i, (design, max_delay)) in jobs.iter().enumerate() {
        let (text, parsed) = wire(design);
        let constraints = Constraints::none().with_max_delay(*max_delay);
        let fresh = offline_results(std::slice::from_ref(&parsed), &constraints);
        for run in offline.synthesize_batch(std::slice::from_ref(&parsed), &constraints) {
            run.expect("offline synthesis succeeds");
        }
        let job = client
            .submit_with(&text, &constraints, &SubmitOptions::new())
            .expect("submits");
        let raw = client.result_raw(job).expect("result");
        let v = milo_serve::parse_json(&raw).expect("parses");
        assert_eq!(get_str(&v, "state"), "done", "job {i}: {raw}");
        assert_eq!(get_str(&v, "cache"), "miss", "job {i} is a first run");
        assert!(
            raw.contains(fresh[0].as_str()),
            "job {i} ({} at {max_delay} ns): a warm store changed the answer",
            parsed.name
        );
    }
    // An exact resubmission of the first job: a hit, which executes
    // nothing.
    let (design, max_delay) = &jobs[0];
    let job = client
        .submit_with(
            &wire(design).0,
            &Constraints::none().with_max_delay(*max_delay),
            &SubmitOptions::new(),
        )
        .expect("resubmits");
    client.result_raw(job).expect("result");

    let stats = client.stats().expect("stats");
    let store = stats
        .get("shard_sizes")
        .and_then(Value::as_array)
        .and_then(|s| s.first())
        .and_then(Value::as_u64);
    assert_eq!(
        store,
        Some(offline.database().len() as u64),
        "the store holds what one offline instance compiled: {stats}"
    );
    if !tiny_budget() {
        assert_eq!(
            stat_u64(&stats, &["histograms", "job_phases", "snapshot", "count"]),
            4,
            "one snapshot per executed job, none for the hit: {stats}"
        );
    }
}

/// With a budget sized to hold the results of every job submitted, the
/// oldest result is still resident when it is resubmitted: results are
/// the only thing charged to the budget. The test sets its own budget,
/// so an environment override does not change it.
#[test]
fn a_budget_that_holds_every_result_keeps_the_oldest_resident() {
    let originals = [
        fig19::circuit3(),
        abadd(),
        random_logic(60, 12, 3),
        pipelined_datapath(2, 3, 5),
    ];
    let constraints = Constraints::none().with_max_delay(6.0);
    let pairs: Vec<(String, Netlist)> = originals.iter().map(wire).collect();
    let parsed: Vec<Netlist> = pairs.iter().map(|(_, nl)| nl.clone()).collect();
    // Each resident entry is charged its served output JSON plus a
    // fixed bookkeeping overhead. The offline outputs have the same
    // length up to the digits of their wall times; 256 bytes per entry
    // covers both.
    let budget: usize = Milo::new(ecl_library())
        .synthesize_batch(&parsed, &constraints)
        .into_iter()
        .map(|r| r.expect("offline synthesis succeeds").to_json().len() + 256)
        .sum();

    let handle = spawn(
        ServerConfig::new(ecl_library())
            .with_workers(1)
            .with_cache_bytes(budget),
    )
    .expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("connects");
    for (text, _) in &pairs {
        let job = client
            .submit_with(text, &constraints, &SubmitOptions::new())
            .expect("submits");
        let raw = client.result_raw(job).expect("result");
        assert!(raw.contains("\"cache\": \"miss\""), "first run: {raw}");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stat_u64(&stats, &["cache", "evictions"]), 0, "{stats}");
    assert_eq!(
        stat_u64(&stats, &["cache", "exact_entries"]),
        pairs.len() as u64
    );

    let job = client
        .submit_with(&pairs[0].0, &constraints, &SubmitOptions::new())
        .expect("resubmits the oldest");
    let raw = client.result_raw(job).expect("result");
    assert_eq!(
        get_str(&milo_serve::parse_json(&raw).expect("parses"), "cache"),
        "hit",
        "the oldest result survived: {raw}"
    );
}

#[test]
fn injected_panic_fails_one_job_and_leaves_the_service_healthy() {
    let victim = random_control(40, 8, 11); // named ctrl40_11
    let (victim_text, victim_parsed) = wire(&victim);
    let siblings = [fig19::circuit3(), abadd()];
    let constraints = Constraints::none().with_max_delay(6.0);
    let pairs: Vec<(String, Netlist)> = siblings.iter().map(wire).collect();
    let parsed: Vec<Netlist> = pairs.iter().map(|(_, nl)| nl.clone()).collect();
    let expected = offline_results(&parsed, &constraints);

    // `repeated(MAX)` defeats the worker's one-retry-on-panic, so the
    // victim genuinely fails instead of recovering.
    let injector = || {
        Arc::new(FaultInjector::new(vec![FaultSpec::once(
            FaultKind::Panic,
            "timing-area",
            victim.name.clone(),
        )
        .repeated(u32::MAX)]))
    };
    // The offline batch under the same fault: the daemon's error must
    // read exactly like it, retry label included.
    let offline_error = {
        let mut milo = Milo::new(ecl_library());
        milo.set_fault_injector(injector());
        milo.synthesize_batch(&[victim_parsed], &constraints)
            .remove(0)
            .expect_err("the victim fails offline too")
            .to_string()
    };
    let handle = spawn(
        ServerConfig::new(ecl_library())
            .with_workers(2)
            .with_fault_injector(injector()),
    )
    .expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("connects");

    let victim_job = client
        .submit_with(&victim_text, &constraints, &SubmitOptions::new())
        .expect("submits victim");
    let sibling_jobs: Vec<u64> = pairs
        .iter()
        .map(|(text, _)| {
            client
                .submit_with(text, &constraints, &SubmitOptions::new())
                .expect("submits sibling")
        })
        .collect();

    let raw = client.result_raw(victim_job).expect("victim result");
    let v = milo_serve::parse_json(&raw).expect("parses");
    assert_eq!(get_str(&v, "state"), "failed", "victim fails: {raw}");
    assert_eq!(get_str(&v, "error"), offline_error, "{raw}");

    for (i, job) in sibling_jobs.iter().enumerate() {
        let raw = client.result_raw(*job).expect("sibling result");
        let v = milo_serve::parse_json(&raw).expect("parses");
        assert_eq!(get_str(&v, "state"), "done", "sibling {i} unharmed");
        assert!(
            raw.contains(expected[i].as_str()),
            "sibling {i} still byte-matches the offline batch"
        );
    }

    // The server keeps serving: stats respond, and a fresh submission
    // of an already-seen design comes straight from the cache.
    let stats = client.stats().expect("stats after failure");
    assert_eq!(stat_u64(&stats, &["jobs", "failed"]), 1);
    assert_eq!(stat_u64(&stats, &["jobs", "done"]), 2);
    let again = client
        .submit_with(&pairs[0].0, &constraints, &SubmitOptions::new())
        .expect("still accepting");
    let raw = client.result_raw(again).expect("still answering");
    if !tiny_budget() {
        assert_eq!(
            get_str(&milo_serve::parse_json(&raw).expect("parses"), "cache"),
            "hit"
        );
    }
}

#[test]
fn cancellation_and_protocol_robustness() {
    let handle = spawn(ServerConfig::new(ecl_library()).with_workers(1)).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("connects");

    // Garbage and bad requests get error lines, not a dropped
    // connection.
    assert!(client.request("this is not json").is_err());
    assert!(client
        .request("{\"op\": \"status\", \"job\": 999}")
        .is_err());
    assert!(client
        .request("{\"op\": \"submit\", \"design\": \"design x\\nbogus\"}")
        .is_err());
    assert!(
        client.stats().is_ok(),
        "connection survives protocol errors"
    );

    // With one worker, a long first job keeps the second queued long
    // enough to cancel deterministically.
    let (big, _) = wire(&random_control(300, 12, 3));
    let (small, _) = wire(&fig19::circuit3());
    let none = Constraints::none();
    let first = client
        .submit_with(&big, &none, &SubmitOptions::new())
        .expect("submits big job");
    let second = client
        .submit_with(&small, &none, &SubmitOptions::new())
        .expect("submits queued job");
    let cancelled = client.cancel(second).expect("cancel responds");
    if cancelled {
        // The atomic cancel contract: `true` means the job ends
        // cancelled, never done.
        let raw = client.result_raw(second).expect("result after cancel");
        let v = milo_serve::parse_json(&raw).expect("parses");
        assert_eq!(get_str(&v, "state"), "cancelled");
    }
    let raw = client.result_raw(first).expect("big job result");
    let v = milo_serve::parse_json(&raw).expect("parses");
    assert_eq!(
        get_str(&v, "state"),
        "done",
        "running job unaffected by cancel"
    );

    // Cancelling a finished job is a polite no-op.
    assert!(!client.cancel(first).expect("cancel responds"));
}

#[test]
fn streamed_events_narrate_the_flow() {
    let (text, _) = wire(&fig19::circuit3());
    let handle = spawn(ServerConfig::new(ecl_library()).with_workers(1)).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("connects");

    let job = client
        .submit_with(
            &text,
            &Constraints::none().with_max_delay(6.0),
            &SubmitOptions::new().stream(true),
        )
        .expect("submits streaming job");
    let raw = client.result_raw(job).expect("result");
    assert!(raw.contains("\"state\": \"done\""));

    let events = client.take_events();
    assert!(!events.is_empty(), "streaming job emitted events");
    let kinds: Vec<&str> = events.iter().map(|e| get_str(e, "event")).collect();
    assert!(kinds.contains(&"flow-started"), "events: {kinds:?}");
    assert!(kinds.contains(&"pass-finished"), "events: {kinds:?}");
    let passes: Vec<&str> = events
        .iter()
        .filter(|e| get_str(e, "event") == "pass-finished")
        .map(|e| get_str(e, "pass"))
        .collect();
    assert!(
        passes.contains(&"compile"),
        "saw the paper passes: {passes:?}"
    );
    assert!(
        passes.contains(&"timing-area"),
        "saw the paper passes: {passes:?}"
    );
    for e in &events {
        assert_eq!(
            e.get("job").and_then(Value::as_u64),
            Some(job),
            "events carry the job id"
        );
    }

    // A cache-hit resubmission runs no flow, so it streams nothing.
    // (Under a tiny CI budget the entry may be evicted, so the
    // resubmission legitimately re-runs and streams.)
    if !tiny_budget() {
        let again = client
            .submit_with(
                &text,
                &Constraints::none().with_max_delay(6.0),
                &SubmitOptions::new().stream(true),
            )
            .expect("resubmits");
        let raw = client.result_raw(again).expect("cached result");
        assert!(raw.contains("\"cache\": \"hit\""));
        assert!(client.take_events().is_empty(), "cache hits are silent");
    }
}

/// A finished job holds no handle on its connection: once the client
/// has its result and half-closes, the server closes the socket, for a
/// streamed job as for a plain one.
#[test]
fn a_finished_job_releases_its_connection() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{Shutdown, TcpStream};
    use std::time::Duration;

    let (text, _) = wire(&fig19::circuit3());
    let handle = spawn(ServerConfig::new(ecl_library()).with_workers(1)).expect("server binds");
    // Streamed first, so that job runs the flow with its observer.
    for stream in [true, false] {
        let mut conn = TcpStream::connect(handle.addr()).expect("connects");
        conn.set_nodelay(true).expect("sets nodelay");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("sets a read timeout");
        let mut lines = BufReader::new(conn.try_clone().expect("clones the socket"));
        let mut request = |line: String| {
            conn.write_all(format!("{line}\n").as_bytes())
                .expect("sends");
        };
        // The next response line, counting the event lines before it.
        let mut events = 0;
        let mut response = || loop {
            let mut line = String::new();
            lines.read_line(&mut line).expect("reads a line");
            let v = milo_serve::parse_json(&line).expect("parses");
            if v.get("event").is_none() {
                return v;
            }
            events += 1;
        };
        request(format!(
            "{{\"op\": \"submit\", \"design\": {}, \"stream\": {stream}}}",
            milo_core::json_string(&text)
        ));
        let job = response()
            .get("job")
            .and_then(Value::as_u64)
            .expect("job id");
        request(format!("{{\"op\": \"result\", \"job\": {job}}}"));
        let v = response();
        assert_eq!(get_str(&v, "state"), "done", "{v}");
        assert_eq!(events > 0, stream, "events streamed only when asked");

        conn.shutdown(Shutdown::Write).expect("half-closes");
        let mut rest = Vec::new();
        let read = lines.read_to_end(&mut rest);
        assert!(
            matches!(read, Ok(0)),
            "stream={stream}: the server closed the connection: {read:?}"
        );
    }
}

/// Satellite (a): the hardened `json_string` escaping round-trips
/// through the service's strict parser — including the characters the
/// old escaper passed through raw (DEL, U+2028/U+2029) that would
/// break JSON-lines framing.
#[test]
fn report_json_round_trips_through_the_service_parser() {
    use milo_core::{json_string, FlowReport, PassReport};
    use std::time::Duration;

    let nasty = "quote\" slash\\ newline\n cr\r tab\t nul\u{0} del\u{7f} ls\u{2028} ps\u{2029} é😀";
    let escaped = json_string(nasty);
    assert!(
        !escaped.contains(['\n', '\r', '\u{2028}', '\u{2029}']),
        "no raw line terminators survive escaping: {escaped:?}"
    );
    let back = milo_serve::parse_json(&escaped).expect("escaped string parses");
    assert_eq!(back.as_str(), Some(nasty), "lossless round-trip");

    let report = FlowReport {
        design: nasty.to_owned(),
        passes: vec![PassReport {
            name: "weird\u{2028}pass".to_owned(),
            error: Some("failed: \"deep\"\nreason\u{7f}".to_owned()),
            note: nasty.to_owned(),
            ..PassReport::default()
        }],
        degraded: true,
        result_hash: Some(0xdead_beef_cafe_f00d),
        total_wall: Duration::from_nanos(1234),
    };
    let json = report.to_json();
    assert_eq!(json.lines().count(), 1, "a report is always one JSON line");
    let v = milo_serve::parse_json(&json).expect("report json parses strictly");
    assert_eq!(v.get("design").and_then(Value::as_str), Some(nasty));
    assert_eq!(
        v.get("structural_hash").and_then(Value::as_str),
        Some("0xdeadbeefcafef00d"),
        "fingerprints travel as hex strings"
    );
    let pass = v
        .get("passes")
        .and_then(Value::as_array)
        .and_then(<[Value]>::first)
        .expect("one pass");
    assert_eq!(
        pass.get("name").and_then(Value::as_str),
        Some("weird\u{2028}pass")
    );
    assert_eq!(pass.get("note").and_then(Value::as_str), Some(nasty));
}

/// With a deliberately hopeless byte budget every stored entry is
/// evicted at once, yet resident bytes stay under the budget, and a
/// resubmitted evicted job is a miss that reruns the flow and answers
/// byte-identically.
#[test]
fn eviction_keeps_resident_bytes_under_budget_and_reruns_evicted_jobs() {
    let originals = [fig19::circuit3(), abadd(), random_logic(60, 12, 3)];
    let constraints = Constraints::none().with_max_delay(6.0);
    let pairs: Vec<(String, Netlist)> = originals.iter().map(wire).collect();
    let parsed: Vec<Netlist> = pairs.iter().map(|(_, nl)| nl.clone()).collect();
    let expected = offline_results(&parsed, &constraints);

    let budget = 512; // far below any single result entry
    let handle = spawn(
        ServerConfig::new(ecl_library())
            .with_workers(1)
            .with_cache_bytes(budget),
    )
    .expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("connects");

    for (i, (text, _)) in pairs.iter().enumerate() {
        let job = client
            .submit_with(text, &constraints, &SubmitOptions::new())
            .expect("submits");
        let raw = client.result_raw(job).expect("result");
        assert!(
            raw.contains(expected[i].as_str()),
            "job {i} byte-matches offline despite the tiny budget"
        );
    }

    let stats = client.stats().expect("stats");
    assert!(
        stat_u64(&stats, &["cache", "resident_bytes"]) <= budget as u64,
        "resident bytes respect the budget: {stats}"
    );
    assert!(
        stat_u64(&stats, &["cache", "evictions"]) >= 1,
        "the budget forced evictions: {stats}"
    );
    let compile_before = stat_u64(&stats, &["histograms", "passes", "compile", "count"]);

    // The cache is empty, so this reruns the flow: a miss, same bytes,
    // one more compile pass.
    let job = client
        .submit_with(&pairs[0].0, &constraints, &SubmitOptions::new())
        .expect("resubmits");
    let raw = client.result_raw(job).expect("rerun result");
    let v = milo_serve::parse_json(&raw).expect("parses");
    assert_eq!(get_str(&v, "cache"), "miss", "evicted, so rerun: {raw}");
    assert!(
        raw.contains(expected[0].as_str()),
        "the rerun answers the same bytes"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(
        stat_u64(&stats, &["histograms", "passes", "compile", "count"]),
        compile_before + 1,
        "an evicted job runs its passes again"
    );
}

/// Tentpole (fairness): with one worker and a 64-job bulk backlog, a
/// second client's single interactive submit completes while most of
/// the backlog is still queued — per-client round-robin means the
/// interactive job waits for at most a couple of bulk jobs, never the
/// whole backlog.
#[test]
fn interactive_submit_beats_a_bulk_backlog() {
    let handle = spawn(ServerConfig::new(ecl_library()).with_workers(1)).expect("server binds");
    let addr = handle.addr();
    let constraints = Constraints::none();

    // A long job from a third client holds the only worker while the
    // backlog and the interactive job are queued, so the scheduler
    // chooses between all of them: otherwise the worker drains bulk
    // jobs while they are still being submitted, and how many it
    // drains depends on host speed, not on the scheduling policy.
    let mut blocker = Client::connect(addr).expect("blocker connects");
    let (big, _) = wire(&random_control(2_000, 24, 7));
    blocker
        .submit_with(&big, &constraints, &SubmitOptions::new().client("blocker"))
        .expect("blocker submits");

    // 64 distinct designs (identical ones would collapse into cache
    // hits and drain instantly).
    let mut bulk = Client::connect(addr).expect("bulk connects");
    let bulk_opts = SubmitOptions::new().client("bulk-farm");
    let bulk_jobs: Vec<u64> = (0..64)
        .map(|seed| {
            let (text, _) = wire(&random_logic(40, 8, 1000 + seed));
            bulk.submit_with(&text, &constraints, &bulk_opts)
                .expect("bulk submits")
        })
        .collect();

    // A different client submits one job after the whole backlog.
    let mut interactive = Client::connect(addr).expect("interactive connects");
    let (text, _) = wire(&fig19::circuit3());
    let job = interactive
        .submit_with(
            &text,
            &constraints,
            &SubmitOptions::new().client("ui").priority(Priority::High),
        )
        .expect("interactive submits");
    let raw = interactive.result_raw(job).expect("interactive result");
    assert!(
        raw.contains("\"state\": \"done\""),
        "interactive job finished: {raw}"
    );

    // The moment the interactive result came back, the backlog must
    // still be mostly queued — FIFO would have drained it first.
    let stats = interactive.stats().expect("stats");
    let depth = stat_u64(&stats, &["queue", "depth"]);
    assert!(
        depth >= 16,
        "bulk backlog still queued when the interactive job finished \
         (depth {depth}): {stats}"
    );
    assert!(
        stat_u64(&stats, &["queue", "bands", "high", "scheduled"]) >= 1,
        "the interactive job went through the high band: {stats}"
    );

    // Let the backlog drain so shutdown doesn't wait on 60+ jobs.
    for job in bulk_jobs {
        let _ = bulk.cancel(job);
    }
}

/// Satellite (b): `submit_batch` serves N designs through the offline
/// batch driver against one shared snapshot; members get their own job
/// ids, are individually addressable, and byte-match
/// `synthesize_batch`.
#[test]
fn submit_batch_members_are_individually_addressable() {
    let originals = [fig19::circuit3(), abadd(), random_control(50, 8, 7)];
    let constraints = Constraints::none().with_max_delay(6.0);
    let pairs: Vec<(String, Netlist)> = originals.iter().map(wire).collect();
    let parsed: Vec<Netlist> = pairs.iter().map(|(_, nl)| nl.clone()).collect();
    let expected = offline_results(&parsed, &constraints);

    let handle = spawn(ServerConfig::new(ecl_library()).with_workers(2)).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("connects");

    let texts: Vec<&str> = pairs.iter().map(|(t, _)| t.as_str()).collect();
    let jobs = client
        .submit_batch(&texts, &constraints, &SubmitOptions::new())
        .expect("batch submits");
    assert_eq!(jobs.len(), 3, "one job id per design");

    for (i, job) in jobs.iter().enumerate() {
        let raw = client.result_raw(*job).expect("member result");
        let v = milo_serve::parse_json(&raw).expect("parses");
        assert_eq!(get_str(&v, "state"), "done", "member {i}: {raw}");
        assert!(
            raw.contains(expected[i].as_str()),
            "member {i} ({}) byte-matches the offline batch driver",
            parsed[i].name
        );
        assert!(
            client.status(*job).is_ok(),
            "members answer status individually"
        );
    }

    // Batch members share the cache with single submits: a plain
    // resubmission of a member is answered from it.
    if !tiny_budget() {
        let again = client
            .submit_with(&pairs[1].0, &constraints, &SubmitOptions::new())
            .expect("resubmits a member");
        let raw = client.result_raw(again).expect("cached result");
        assert!(raw.contains("\"cache\": \"hit\""), "cache shared: {raw}");
    }
}

/// Satellite (b): a queued batch member can be cancelled individually
/// without touching its siblings.
#[test]
fn a_batch_member_cancels_without_harming_siblings() {
    let handle = spawn(ServerConfig::new(ecl_library()).with_workers(1)).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("connects");
    let none = Constraints::none();

    // Occupy the single worker so the batch stays queued.
    let (big, _) = wire(&random_control(300, 12, 3));
    let blocker = client
        .submit_with(&big, &none, &SubmitOptions::new())
        .expect("submits blocker");

    let pairs: Vec<(String, Netlist)> = [fig19::circuit3(), abadd(), random_logic(30, 8, 2)]
        .iter()
        .map(wire)
        .collect();
    let texts: Vec<&str> = pairs.iter().map(|(t, _)| t.as_str()).collect();
    let jobs = client
        .submit_batch(&texts, &none, &SubmitOptions::new())
        .expect("batch submits");

    let cancelled = client.cancel(jobs[1]).expect("cancel responds");
    if cancelled {
        let raw = client.result_raw(jobs[1]).expect("cancelled result");
        assert!(raw.contains("\"state\": \"cancelled\""), "{raw}");
    }
    let _ = client.result_raw(blocker).expect("blocker finishes");
    for &job in [jobs[0], jobs[2]].iter() {
        let raw = client.result_raw(job).expect("sibling result");
        assert!(
            raw.contains("\"state\": \"done\""),
            "sibling unharmed: {raw}"
        );
    }
}

/// Every response echoes the current version (`"v": "1.3"`), pre-`v`
/// and v1.1 requests keep working, unknown top-level fields are
/// tolerated over the wire, the keys v1.2 and v1.3 removed stay gone,
/// and other major versions are refused with a versioned error line.
#[test]
fn v11_envelope_round_trips_and_old_clients_keep_working() {
    assert_eq!(PROTOCOL_VERSION, "1.3");
    let handle = spawn(ServerConfig::new(ecl_library()).with_workers(1)).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("connects");
    let (text, _) = wire(&fig19::circuit3());

    // A v1.0-era request line: no "v", positional fields only.
    let old_style = format!(
        "{{\"op\": \"submit\", \"design\": {}, \"constraints\": {{}}}}",
        milo_core::json_string(&text)
    );
    let v = client.request(&old_style).expect("old client still served");
    assert_eq!(get_str(&v, "v"), "1.3", "submit response is versioned");
    let job = v.get("job").and_then(Value::as_u64).expect("job id");

    for line in [
        format!("{{\"op\": \"status\", \"job\": {job}}}"),
        format!("{{\"op\": \"result\", \"job\": {job}}}"),
        format!("{{\"op\": \"cancel\", \"job\": {job}, \"v\": \"1.1\"}}"),
        "{\"op\": \"stats\"}".to_owned(),
    ] {
        let v = client.request(&line).expect("request succeeds");
        assert_eq!(get_str(&v, "v"), "1.3", "versioned response to {line}");
    }

    // Unknown top-level fields ride along silently.
    let v = client
        .request("{\"op\": \"stats\", \"v\": \"1.4\", \"future_knob\": {\"x\": 1}}")
        .expect("future client served");
    assert_eq!(get_str(&v, "v"), "1.3");
    // v1.2 dropped the flat `jobs.queued` key and the top-level
    // `passes` table; `queue.depth` and `histograms.passes` replace them.
    let stats = v.get("stats").expect("stats object");
    assert!(stats.get("jobs").and_then(|j| j.get("queued")).is_none());
    assert!(stats.get("passes").is_none());
    // v1.3 dropped the disk tier's keys.
    for removed in ["disk_hits", "spilled", "disk_entries"] {
        assert!(
            stats.get("cache").and_then(|c| c.get(removed)).is_none(),
            "{removed}: {stats}"
        );
    }
    assert_eq!(stat_u64(stats, &["queue", "depth"]), 0);
    assert_eq!(
        stat_u64(stats, &["histograms", "passes", "compile", "count"]),
        1
    );

    // A different major is refused — with a versioned error line.
    let raw = client
        .request_raw("{\"op\": \"stats\", \"v\": \"2.0\"}")
        .expect("error line, not a dropped connection");
    let v = milo_serve::parse_json(&raw).expect("error parses");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(get_str(&v, "v"), "1.3");
    assert!(
        get_str(&v, "error").contains("unsupported protocol version"),
        "{raw}"
    );
}
