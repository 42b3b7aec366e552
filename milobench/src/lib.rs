//! Flow- and service-level benchmark for the MILO workspace.
//!
//! One command runs a named workload at a given seed, drives the
//! program only through its public APIs (`Flow::standard()` per design,
//! and the `milo-serve` wire protocol through `Client` against an
//! in-process daemon), checks every output, and prints one result line
//! of named metrics. `--trace 1` runs the workload again with tracing on
//! and prints the per-layer metrics instead. See `WORKLOADS.md`.

pub mod env;
pub mod flows;
pub mod host;
pub mod layers;
pub mod report;
pub mod soak;
pub mod stats;

/// One invocation, as the command line gave it.
pub struct Spec {
    /// The workload's name.
    pub workload: String,
    /// Draws everything that leaves the amount of work unchanged.
    pub seed: u64,
    /// Sets the amount of work (`WORKLOADS.md`).
    pub seconds: u64,
    /// A per-layer run with tracing on, instead of an end-to-end run.
    pub traced: bool,
    /// Shrinks every workload for smoke tests.
    pub tiny: bool,
}

/// Writes the drained Chrome trace of a traced run next to the
/// benchmark's sources and prints the self time of each span name.
pub fn finish_trace(self_times: &layers::SelfTimes, workload: &str, seed: u64) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.trace.json"));
    match self_times.write(&path) {
        Ok(()) => println!("trace: {}", path.display()),
        Err(e) => println!("trace: not written ({e})"),
    }
    println!(
        "trace: {} events overwritten in the rings before a drain",
        self_times.dropped
    );
    for row in self_times.table() {
        println!("span {row}");
    }
}
