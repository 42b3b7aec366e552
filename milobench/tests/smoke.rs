//! Tiny-size smoke of every workload: the command exits 0, its last line
//! is a correct result, and it carries every metric name of its mode.
//!
//! Run with `cargo test --release --manifest-path milobench/Cargo.toml`
//! (debug builds make the flows slow).

use milobench::report;
use std::process::Command;

fn run(workload: &str, trace: &str) -> milo_serve::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_milobench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    milo_serve::parse_json(last).expect("the result line is JSON")
}

fn assert_complete(workload: &str, trace: &str, names: &[(String, &str)]) {
    let r = run(workload, trace);
    assert_eq!(r.get("correct").and_then(|c| c.as_bool()), Some(true));
    assert_eq!(r.get("failed").and_then(|c| c.as_u64()), Some(0));
    assert!(r.get("attempted").and_then(|c| c.as_u64()).unwrap_or(0) >= 1);
    let metrics = r.get("metrics").expect("metrics object");
    for (name, unit) in names {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
        let v = m.get("value").and_then(|v| v.as_f64()).expect("numeric");
        assert!(v.is_finite(), "{name} = {v}");
    }
}

#[test]
fn every_workload_prints_every_metric() {
    for w in ["ctrl10k", "micro_timed", "serve_soak"] {
        assert_complete(w, "0", &report::end_to_end());
        assert_complete(w, "1", &report::per_layer());
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for w in ["ctrl10k", "micro_timed", "serve_soak"] {
        let r = run(w, "0");
        let metrics = r.get("metrics").expect("metrics object");
        for (name, _) in report::end_to_end() {
            let v = metrics
                .get(&name)
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .expect("present");
            assert!(v > 0.0, "{w}: {name} = {v}");
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "ctrl10k", "--trace", "2"],
        vec!["--seed"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_milobench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
