//! The `milo-serve` daemon binary.
//!
//! ```text
//! milo-serve [--addr HOST:PORT] [--workers N] [--cache-bytes SIZE] [--smoke]
//! ```
//!
//! `--cache-bytes` bounds the result cache (suffixes `k`, `m`, `g`
//! accepted, e.g. `--cache-bytes 64m`). Without the flag the budget
//! comes from `MILO_SERVE_CACHE_BYTES`, in the same form; a set
//! variable that does not parse is a usage error.
//!
//! Without `--smoke`, binds (default `MILO_SERVE_ADDR`, else
//! `127.0.0.1:7171`), prints the bound address, and serves until a
//! `shutdown` request arrives. With `--smoke`, spins a private server
//! on a free port, drives a submit → result → resubmit → stats
//! sequence through the loopback, verifies the resubmission was an
//! exact cache hit, and exits nonzero on any failure — the CI
//! self-check.

use milo_core::Constraints;
use milo_serve::{parse_bytes, spawn, Client, ServerConfig, SubmitOptions, Value};
use milo_techmap::ecl_library;
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Some(v) = std::env::var_os("MILO_SERVE_CACHE_BYTES") {
        if v.to_str().and_then(parse_bytes).is_none() {
            return usage("MILO_SERVE_CACHE_BYTES needs a size like 1048576, 64m, or 1g");
        }
    }
    let mut config = ServerConfig::new(ecl_library());
    let mut smoke = false;
    let mut addr_set_by_flag = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--addr" => match args.next() {
                Some(addr) => {
                    config = config.with_addr(addr);
                    addr_set_by_flag = true;
                }
                None => return usage("--addr needs a HOST:PORT value"),
            },
            "--workers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => config = config.with_workers(n),
                _ => return usage("--workers needs a positive integer"),
            },
            "--cache-bytes" => match args.next().as_deref().and_then(parse_bytes) {
                Some(n) => config = config.with_cache_bytes(n),
                None => return usage("--cache-bytes needs a size like 1048576, 64m, or 1g"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    if smoke {
        // The self-check always uses a private free port.
        return match run_smoke(config.with_addr("127.0.0.1:0")) {
            Ok(()) => {
                println!("smoke: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke: FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // A daemon needs a stable default port, not an ephemeral one.
    if !addr_set_by_flag && std::env::var("MILO_SERVE_ADDR").is_err() {
        config = config.with_addr("127.0.0.1:7171");
    }
    match spawn(config) {
        Ok(mut handle) => {
            println!("milo-serve listening on {}", handle.addr());
            // Serve until a shutdown request lands: the handle's drop
            // joins the accept loop and workers.
            handle.shutdown_on_request();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("milo-serve: cannot bind: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("milo-serve: {error}");
    }
    eprintln!("usage: milo-serve [--addr HOST:PORT] [--workers N] [--cache-bytes SIZE] [--smoke]");
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The CI smoke sequence: two distinct designs, a resubmission that
/// must hit the exact cache, and a stats cross-check.
fn run_smoke(config: ServerConfig) -> Result<(), String> {
    let handle = spawn(config).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;

    let design = "design smoke\ninput a b c\noutput y\n\
                  comp and2 g1 A0=a A1=b Y=t\ncomp or2 g2 A0=t A1=c Y=y\n";
    let constraints = Constraints::none().with_max_delay(6.0);

    let first = client
        .submit_with(design, &constraints, &SubmitOptions::new().stream(true))
        .map_err(|e| format!("submit: {e}"))?;
    let reply = client.result(first).map_err(|e| format!("result: {e}"))?;
    expect_str(&reply, "state", "done")?;
    expect_str(&reply, "cache", "miss")?;
    if client.take_events().is_empty() {
        return Err("streaming submit produced no flow events".to_owned());
    }
    let output = reply.get("output").ok_or("result carries no output")?;
    if output
        .get("flow")
        .and_then(|f| f.get("structural_hash"))
        .and_then(Value::as_str)
        .is_none_or(|h| !h.starts_with("0x"))
    {
        return Err("flow report carries no structural_hash".to_owned());
    }

    // Identical resubmission: must be answered from the cache.
    let second = client
        .submit_with(design, &constraints, &SubmitOptions::new())
        .map_err(|e| format!("resubmit: {e}"))?;
    let reply = client.result(second).map_err(|e| format!("result2: {e}"))?;
    expect_str(&reply, "state", "done")?;
    expect_str(&reply, "cache", "hit")?;

    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let hits = stats
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Value::as_u64)
        .ok_or("stats carry no cache.hits")?;
    if hits < 1 {
        return Err(format!("expected ≥1 exact cache hit, stats say {hits}"));
    }

    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(())
}

fn expect_str(v: &Value, key: &str, want: &str) -> Result<(), String> {
    match v.get(key).and_then(Value::as_str) {
        Some(got) if got == want => Ok(()),
        got => Err(format!("expected {key}={want:?}, got {got:?} in {v}")),
    }
}
