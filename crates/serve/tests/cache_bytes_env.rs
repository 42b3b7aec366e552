//! The `milo-serve` binary reads its cache budget from
//! `MILO_SERVE_CACHE_BYTES` in the form `--cache-bytes` takes, and
//! refuses to start on a value that does not parse instead of running
//! with an unbounded cache.

use std::process::Command;

fn smoke_with_cache_bytes(value: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_milo-serve"))
        .arg("--smoke")
        .env("MILO_SERVE_CACHE_BYTES", value)
        .env("MILO_PAR_THREADS", "1")
        .output()
        .expect("milo-serve starts")
}

#[test]
fn an_unparseable_budget_is_a_usage_error() {
    let out = smoke_with_cache_bytes("lots");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("MILO_SERVE_CACHE_BYTES"), "{stderr}");
    assert!(stderr.contains("usage: milo-serve"), "{stderr}");
}

#[test]
fn a_suffixed_budget_runs_the_smoke_check() {
    let out = smoke_with_cache_bytes("64m");
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("smoke: ok"),
        "{out:?}"
    );
}
