//! Byte pins for the JSON the workspace emits: the flow report and
//! synthesis summary, every daemon reply and stream event, every client
//! request line, and the constraints object. Each expected string is a
//! literal, so a change to any writer that moves one byte fails here.
//! Wall-clock digits (`total_ns`, `wall_ns`) are the only bytes that
//! vary run to run; the tests zero them before comparing.

use milo::circuits::{datapath, fig19, random_control};
use milo_core::{
    emit_netlist, json_string, parse_netlist, BottomUpLogic, Compile, Constraints, FailureAction,
    FaultInjector, Flow, FlowContext, Milo, MiloError, Pass, PassPolicy, PassReport,
};
use milo_serve::{constraints_to_json, spawn, Client, Priority, ServerConfig, SubmitOptions};
use milo_techmap::ecl_library;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// `json` with the digits after every `"total_ns": ` and `"wall_ns": `
/// replaced by a single `0`.
fn zero_walls(json: &str) -> String {
    let mut out = json.to_owned();
    for key in ["\"total_ns\": ", "\"wall_ns\": "] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let digits = out[start..].bytes().take_while(u8::is_ascii_digit).count();
            out.replace_range(start..start + digits, "0");
            from = start;
        }
    }
    out
}

#[track_caller]
fn pin(actual: &str, expected: &str) {
    assert!(actual == expected, "bytes moved; now {actual:?}");
}

#[test]
fn flow_output_bytes() {
    let mut milo = Milo::new(ecl_library());
    let mut flow = milo.flow();
    let out = flow
        .run(&mut milo, &fig19::circuit3(), &Constraints::none())
        .expect("the flow runs");
    pin(&zero_walls(&out.to_json()), "{\"result\": {\"design\": \"fig19_3__milo\", \"stats\": {\"cells\": 6, \"area\": 8.2, \"delay\": 2.2922000000000002, \"power\": 2.76}, \"baseline\": {\"cells\": 8, \"area\": 9.2, \"delay\": 1.8230000000000004, \"power\": 5.52}, \"delay_improvement_pct\": -25.737794843664275, \"area_improvement_pct\": 10.869565217391305, \"critic\": null, \"levels\": [{\"design\": \"fig19_3__milo\", \"fired\": 0, \"before\": {\"cells\": 8, \"area\": 9.2, \"delay\": 1.8230000000000004, \"power\": 5.52}, \"after\": {\"cells\": 8, \"area\": 9.2, \"delay\": 1.8230000000000004, \"power\": 5.52}}], \"timing\": {\"met\": true, \"initial_delay\": 1.8230000000000004, \"final_delay\": 1.8230000000000004, \"strategies_applied\": 0}, \"violations\": 0, \"buffers_inserted\": 0}, \"flow\": {\"design\": \"fig19_3\", \"structural_hash\": \"0x22513de95bc3877a\", \"total_ns\": 0, \"degraded\": false, \"passes\": [{\"name\": \"micro-critic\", \"skipped\": false, \"outcome\": \"completed\", \"error\": null, \"wall_ns\": 0, \"rules_applied\": 0, \"cells_delta\": 0, \"area_delta\": 0, \"delay_delta\": 0, \"note\": \"gate-level entry\"}, {\"name\": \"compile\", \"skipped\": false, \"outcome\": \"completed\", \"error\": null, \"wall_ns\": 0, \"rules_applied\": 0, \"cells_delta\": 0, \"area_delta\": 0, \"delay_delta\": 0, \"note\": \"0 designs compiled into the database\"}, {\"name\": \"bottom-up-logic\", \"skipped\": false, \"outcome\": \"completed\", \"error\": null, \"wall_ns\": 0, \"rules_applied\": 0, \"cells_delta\": 0, \"area_delta\": -0.0600000000000005, \"delay_delta\": -0.17700000000000005, \"note\": \"1 levels\"}, {\"name\": \"fanout-repair\", \"skipped\": false, \"outcome\": \"completed\", \"error\": null, \"wall_ns\": 0, \"rules_applied\": 0, \"cells_delta\": 0, \"area_delta\": 0, \"delay_delta\": 0, \"note\": \"0 buffers inserted\"}, {\"name\": \"timing-area\", \"skipped\": false, \"outcome\": \"completed\", \"error\": null, \"wall_ns\": 0, \"rules_applied\": 5, \"cells_delta\": -2, \"area_delta\": -1, \"delay_delta\": 0.46919999999999984, \"note\": \"timing met, 0 strategies, 5 area steps\"}]}}");
}

/// A pass whose error carries a quote, a newline and U+2028.
struct Fails;

impl Pass for Fails {
    fn name(&self) -> &str {
        "fails"
    }
    fn run(&mut self, _: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        Err(MiloError::Compile("bad \"x\"\nline\u{2028}end".to_owned()))
    }
}

#[test]
fn degraded_report_bytes() {
    let mut milo = Milo::new(ecl_library());
    let mut flow = Flow::empty();
    flow.push(Fails)
        .push(Compile)
        .push(BottomUpLogic)
        .with_policy("fails", PassPolicy::on_failure(FailureAction::SkipPass))
        .skip_when("compile", |_| true);
    let out = flow
        .run(&mut milo, &fig19::circuit3(), &Constraints::none())
        .expect("the flow degrades");
    pin(&zero_walls(&out.report.to_json()), "{\"design\": \"fig19_3\", \"structural_hash\": \"0x11259669f9b8188e\", \"total_ns\": 0, \"degraded\": true, \"passes\": [{\"name\": \"fails\", \"skipped\": false, \"outcome\": \"failed-skipped\", \"error\": \"compile: bad \\\"x\\\"\\nline\\u2028end\", \"wall_ns\": 0, \"rules_applied\": 0, \"cells_delta\": null, \"area_delta\": null, \"delay_delta\": null, \"note\": \"\"}, {\"name\": \"compile\", \"skipped\": true, \"outcome\": \"skipped\", \"error\": null, \"wall_ns\": 0, \"rules_applied\": 0, \"cells_delta\": null, \"area_delta\": null, \"delay_delta\": null, \"note\": \"\"}, {\"name\": \"bottom-up-logic\", \"skipped\": false, \"outcome\": \"completed\", \"error\": null, \"wall_ns\": 0, \"rules_applied\": 0, \"cells_delta\": 0, \"area_delta\": -0.0600000000000005, \"delay_delta\": -0.17700000000000005, \"note\": \"1 levels\"}]}");
}

#[test]
fn constrained_result_bytes() {
    let entry = datapath(4);
    let mut milo = Milo::new(ecl_library());
    let loose = milo.synthesize(&entry, &Constraints::none()).expect("runs");
    let constraints = Constraints::none()
        .with_max_delay(loose.stats.delay * 0.75)
        .with_path_delay("C0", loose.stats.delay);
    let tight = milo.synthesize(&entry, &constraints).expect("runs");
    pin(&tight.to_json(), "{\"design\": \"ABADD__milo\", \"stats\": {\"cells\": 9, \"area\": 31.3, \"delay\": 3.02, \"power\": 17.8}, \"baseline\": {\"cells\": 13, \"area\": 32.6, \"delay\": 5.819999999999999, \"power\": 17.6}, \"delay_improvement_pct\": 48.109965635738824, \"area_improvement_pct\": 3.987730061349695, \"critic\": {\"fired\": [], \"cla_upgrades\": 1, \"ripple_downgrades\": 0, \"met_timing\": false}, \"levels\": [{\"design\": \"AU4_A_CLA\", \"fired\": 0, \"before\": {\"cells\": 1, \"area\": 10.5, \"delay\": 2.02, \"power\": 5.4}, \"after\": {\"cells\": 1, \"area\": 10.5, \"delay\": 2.02, \"power\": 5.4}}, {\"design\": \"MUX2:1:4\", \"fired\": 0, \"before\": {\"cells\": 4, \"area\": 6.4, \"delay\": 1, \"power\": 3.6}, \"after\": {\"cells\": 4, \"area\": 6.4, \"delay\": 1, \"power\": 3.6}}, {\"design\": \"MUX4:1:1\", \"fired\": 0, \"before\": {\"cells\": 1, \"area\": 2.8, \"delay\": 1.3, \"power\": 1.4}, \"after\": {\"cells\": 1, \"area\": 2.8, \"delay\": 1.3, \"power\": 1.4}}, {\"design\": \"REG4_l>\", \"fired\": 4, \"before\": {\"cells\": 8, \"area\": 19.2, \"delay\": 1.3, \"power\": 10.399999999999999}, \"after\": {\"cells\": 4, \"area\": 14.4, \"delay\": 0, \"power\": 8.8}}, {\"design\": \"ABADD__milo\", \"fired\": 0, \"before\": {\"cells\": 9, \"area\": 31.3, \"delay\": 3.02, \"power\": 17.8}, \"after\": {\"cells\": 9, \"area\": 31.3, \"delay\": 3.02, \"power\": 17.8}}], \"timing\": {\"met\": true, \"initial_delay\": 3.02, \"final_delay\": 3.02, \"strategies_applied\": 0}, \"violations\": 0, \"buffers_inserted\": 0}");
}

#[test]
fn constraints_bytes() {
    let c = Constraints::none()
        .with_max_delay(4.5)
        .with_max_area(50.0)
        .with_max_power(0.1)
        .with_path_delay("C0", 2.0)
        .with_path_delay("q\"\u{2028}", 1e-7);
    pin(&constraints_to_json(&c), "{\"max_delay\": 4.5, \"max_area\": 50, \"max_power\": 0.1, \"path_delays\": [[\"C0\", 2], [\"q\\\"\\u2028\", 0.0000001]]}");
    pin(&constraints_to_json(&Constraints::none()), "{}");
}

fn submit(name: &str, kind: &str, extra: &str) -> String {
    let design = format!("design {name}\ninput a b\noutput y\ncomp {kind} g1 A0=a A1=b Y=y\n");
    format!(
        "{{\"op\": \"submit\", \"design\": {}{extra}}}",
        json_string(&design)
    )
}

#[test]
fn daemon_reply_and_event_bytes() {
    let injector = FaultInjector::parse("panic@compile/failme#inf").expect("valid spec");
    let config = ServerConfig::new(ecl_library()).with_workers(1);
    let handle = spawn(config.with_fault_injector(Arc::new(injector))).expect("binds");
    let mut client = Client::connect(handle.addr()).expect("connects");

    let big = emit_netlist(&random_control(1000, 12, 3)).expect("emits");
    let mut flow = Flow::standard();
    flow.sample_stats(false);
    let offline = flow
        .run(
            &mut Milo::new(ecl_library()),
            &parse_netlist(&big).expect("parses"),
            &Constraints::none(),
        )
        .expect("runs");
    let submit_big = format!("{{\"op\": \"submit\", \"design\": {}}}", json_string(&big));
    let batch = format!(
        "{{\"op\": \"submit_batch\", \"designs\": [{}, {}]}}",
        json_string("design b1\ninput a\noutput y\ncomp inv g A0=a Y=y\n"),
        json_string("design b2\ninput a\noutput y\ncomp buf g A0=a Y=y\n")
    );
    // Requests, each followed by its reply. With one worker, the long
    // first job keeps the second queued until it is cancelled. Job 1's
    // payload equals an offline run's and reads `<output>` here.
    let steps: &[&str] = &[
        &submit_big,
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"submit\", \"job\": 1}",
        &submit("small", "and2", ""),
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"submit\", \"job\": 2}",
        "{\"op\": \"status\", \"job\": 2}",
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"status\", \"job\": 2, \"state\": \"queued\"}",
        "{\"op\": \"cancel\", \"job\": 2}",
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"cancel\", \"job\": 2, \"cancelled\": true}",
        "{\"op\": \"result\", \"job\": 2}",
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"result\", \"job\": 2, \"state\": \"cancelled\"}",
        "{\"op\": \"status\", \"job\": 2}",
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"status\", \"job\": 2, \"state\": \"cancelled\"}",
        "{\"op\": \"result\", \"job\": 1}",
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"result\", \"job\": 1, \"state\": \"done\", \"cache\": \"miss\", \"output\": <output>}",
        "{\"op\": \"status\", \"job\": 1}",
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"status\", \"job\": 1, \"state\": \"done\", \"cache\": \"miss\"}",
        &submit("failme", "or2", ""),
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"submit\", \"job\": 3}",
        "{\"op\": \"result\", \"job\": 3}",
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"result\", \"job\": 3, \"state\": \"failed\", \"error\": \"pass \\\"compile\\\" panicked on design \\\"failme\\\" (retried): injected fault: panic@compile\"}",
        &batch,
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"submit_batch\", \"jobs\": [4, 5]}",
        "{\"op\": \"status\", \"job\": 999}",
        "{\"ok\": false, \"v\": \"1.3\", \"error\": \"no such job 999\"}",
        "not json",
        "{\"ok\": false, \"v\": \"1.3\", \"error\": \"json error at byte 0: expected 'null'\"}",
    ];
    for step in steps.chunks(2) {
        let reply = zero_walls(&client.request_raw(step[0]).expect("replies"));
        pin(
            &reply.replace(&zero_walls(&offline.to_json()), "<output>"),
            step[1],
        );
    }

    // A streamed job's events interleave with its reply: one
    // flow-started, then a started and a finished event per pass.
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    let line = submit("streamed", "xor2", ", \"stream\": true") + "\n";
    stream.write_all(line.as_bytes()).expect("writes");
    let (events, reply): (Vec<String>, Vec<String>) = BufReader::new(stream)
        .lines()
        .take(12)
        .map(|line| zero_walls(&line.expect("reads")))
        .partition(|line| line.starts_with("{\"event\""));
    pin(
        &reply.join("\n"),
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"submit\", \"job\": 6}",
    );
    pin(&events.join("\n"), "{\"event\": \"flow-started\", \"job\": 6, \"design\": \"streamed\", \"passes\": 5}\n{\"event\": \"pass-started\", \"job\": 6, \"index\": 0, \"pass\": \"micro-critic\"}\n{\"event\": \"pass-finished\", \"job\": 6, \"index\": 0, \"pass\": \"micro-critic\", \"outcome\": \"completed\", \"wall_ns\": 0, \"rules_applied\": 0}\n{\"event\": \"pass-started\", \"job\": 6, \"index\": 1, \"pass\": \"compile\"}\n{\"event\": \"pass-finished\", \"job\": 6, \"index\": 1, \"pass\": \"compile\", \"outcome\": \"completed\", \"wall_ns\": 0, \"rules_applied\": 0}\n{\"event\": \"pass-started\", \"job\": 6, \"index\": 2, \"pass\": \"bottom-up-logic\"}\n{\"event\": \"pass-finished\", \"job\": 6, \"index\": 2, \"pass\": \"bottom-up-logic\", \"outcome\": \"completed\", \"wall_ns\": 0, \"rules_applied\": 0}\n{\"event\": \"pass-started\", \"job\": 6, \"index\": 3, \"pass\": \"fanout-repair\"}\n{\"event\": \"pass-finished\", \"job\": 6, \"index\": 3, \"pass\": \"fanout-repair\", \"outcome\": \"completed\", \"wall_ns\": 0, \"rules_applied\": 0}\n{\"event\": \"pass-started\", \"job\": 6, \"index\": 4, \"pass\": \"timing-area\"}\n{\"event\": \"pass-finished\", \"job\": 6, \"index\": 4, \"pass\": \"timing-area\", \"outcome\": \"completed\", \"wall_ns\": 0, \"rules_applied\": 0}");
    let shutdown = client.request_raw("{\"op\": \"shutdown\"}");
    pin(
        &shutdown.expect("replies"),
        "{\"ok\": true, \"v\": \"1.3\", \"op\": \"shutdown\"}",
    );
}

#[test]
fn client_request_bytes() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    // A fake server that records every request line and answers each
    // with one reply that satisfies every client call.
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accepts");
        let mut writer = stream.try_clone().expect("clones");
        writer.set_nodelay(true).expect("sets nodelay");
        let reply = "{\"ok\": true, \"job\": 1, \"jobs\": [1, 2], \"state\": \"done\", \
                     \"cancelled\": true, \"stats\": {}, \"trace\": {}}\n";
        let lines = BufReader::new(stream).lines().map(|line| {
            writer.write_all(reply.as_bytes()).expect("replies");
            line.expect("reads")
        });
        lines.collect::<Vec<String>>()
    });

    let mut client = Client::connect(addr).expect("connects");
    let design = "design d\ninput a b\noutput y\ncomp and2 g1 A0=a A1=b Y=y\n";
    let constraints = Constraints::none()
        .with_max_delay(3.25)
        .with_path_delay("y", 2.0);
    let tagged = SubmitOptions::new()
        .priority(Priority::High)
        .stream(true)
        .client("tag\"1");
    client
        .submit_with(design, &constraints, &SubmitOptions::new())
        .expect("submits");
    client
        .submit_with(design, &Constraints::none(), &tagged)
        .expect("submits");
    client
        .submit_batch(&[design, "design e\n"], &constraints, &tagged)
        .expect("submits");
    client.status(1).expect("status");
    client.result(1).expect("result");
    client.cancel(1).expect("cancel");
    client.stats().expect("stats");
    client.trace().expect("trace");
    client.shutdown().expect("shutdown");
    drop(client);
    pin(&fake.join().expect("fake server exits").join("\n"), "{\"op\": \"submit\", \"design\": \"design d\\ninput a b\\noutput y\\ncomp and2 g1 A0=a A1=b Y=y\\n\", \"constraints\": {\"max_delay\": 3.25, \"path_delays\": [[\"y\", 2]]}, \"v\": \"1.3\", \"priority\": \"normal\"}\n{\"op\": \"submit\", \"design\": \"design d\\ninput a b\\noutput y\\ncomp and2 g1 A0=a A1=b Y=y\\n\", \"constraints\": {}, \"v\": \"1.3\", \"priority\": \"high\", \"stream\": true, \"client\": \"tag\\\"1\"}\n{\"op\": \"submit_batch\", \"designs\": [\"design d\\ninput a b\\noutput y\\ncomp and2 g1 A0=a A1=b Y=y\\n\", \"design e\\n\"], \"constraints\": {\"max_delay\": 3.25, \"path_delays\": [[\"y\", 2]]}, \"v\": \"1.3\", \"priority\": \"high\", \"stream\": true, \"client\": \"tag\\\"1\"}\n{\"op\": \"status\", \"job\": 1}\n{\"op\": \"result\", \"job\": 1}\n{\"op\": \"cancel\", \"job\": 1}\n{\"op\": \"stats\"}\n{\"op\": \"trace\"}\n{\"op\": \"shutdown\"}");
}
