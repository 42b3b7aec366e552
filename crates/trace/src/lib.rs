//! First-party observability substrate for the MILO workspace.
//!
//! The build environment has no crates.io access, so this crate
//! re-implements the two halves of `tracing` + `metrics` the system
//! actually needs, sized for a synthesis service:
//!
//! * **Span tracing** ([`span`], [`instant`], [`complete`]) — each
//!   thread owns a fixed-capacity lock-free ring buffer of events.
//!   Emitting is a thread-local write with no locks and no allocation;
//!   [`drain_chrome_json`] snapshots every ring into Chrome
//!   trace-event JSON that loads directly in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev). The whole subsystem is gated
//!   by one process-global flag ([`set_enabled`]): while tracing is
//!   off, a span costs exactly one relaxed atomic load and one branch.
//! * **Metrics registry** ([`Registry`]) — named counters, gauges, and
//!   log-bucketed histograms behind lock-free atomics. Unlike spans,
//!   metrics are always on: a counter bump is one relaxed
//!   `fetch_add`, cheap enough for the rule-engine hot path. A
//!   histogram snapshot renders its derived summary (p50/p95/p99) to
//!   JSON, and per-instance registries ([`Registry::new`]) let
//!   embedders (the service's `Metrics`) keep isolated namespaces
//!   while library code shares [`Registry::global`].
//! * **JSON writer** ([`JsonWriter`]) — the one writer every JSON
//!   report, reply and request line in the workspace goes through,
//!   with the one string escaper ([`json_string`]). It sits here, at
//!   the bottom of the dependency graph, so every crate can reach it.
//!
//! Naming convention: dotted lower-case paths, coarse-to-fine —
//! `engine.rewrites`, `sta.full_rebuilds`, `serve.queue_wait_ns.high`.
//! Durations are nanoseconds and say so in the name (`*_ns`).
//!
//! ```
//! milo_trace::set_enabled(true);
//! {
//!     let _pass = milo_trace::span("pass:bottom-up-logic");
//!     milo_trace::instant("cache.evict");
//! } // span closes here
//! let json = milo_trace::drain_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! milo_trace::set_enabled(false);
//! ```

#![warn(missing_docs)]

mod json;
mod metrics;
mod ring;

pub use json::{json_object, json_string, JsonValue, JsonWriter};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use ring::{complete, drain_chrome_json, instant, instant_with, now_ns, span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

/// The one global gate for span tracing. Relaxed is deliberate: the
/// flag flips rarely (process start, a `trace` op) and an emit racing
/// the flip harmlessly lands or misses one event.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span tracing is currently on. One relaxed load — this is
/// the entire disabled-path cost of [`span`] and [`instant`].
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span tracing on or off process-wide. Metrics counters are
/// unaffected (always on).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables tracing when the `MILO_TRACE` environment variable is set
/// to anything other than `0` or the empty string. Binaries call this
/// once at startup; returns the resulting enabled state.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("MILO_TRACE") {
        if !v.is_empty() && v != "0" {
            set_enabled(true);
        }
    }
    enabled()
}
