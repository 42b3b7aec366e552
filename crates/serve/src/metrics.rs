//! Service metrics: job counters, cache effectiveness, per-pass wall
//! time, and worker utilization — everything the `stats` request
//! reports.
//!
//! Counters are lock-free atomics. Since v1.1 the per-pass table and
//! the per-band queue-wait distributions live in a private
//! [`milo_trace::Registry`] as log-bucketed histograms
//! (`serve.pass_ns.<pass>`, `serve.queue_wait_ns.<band>`), so `stats`
//! can report p50/p95/p99 without the server smoothing anything away.
//! The same registry holds one histogram per [`Phase`] of a worker's
//! run (`serve.job_phase_ns.<phase>`), which splits a job's execution
//! time into the store snapshot, the flow, the absorb and the
//! serialization.
//! The registry is per-instance, not [`milo_trace::Registry::global`],
//! so concurrent servers in one test process never see each other's
//! samples. The pass-run counts double as the cache-effectiveness
//! oracle in tests: a cache-hit job increments job counters but no
//! pass counters.

use crate::cache::CacheStats;
use crate::scheduler::QueueStats;
use milo_trace::{json_object, Histogram, JsonWriter, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Registry prefix for per-pass wall-time histograms.
const PASS_PREFIX: &str = "serve.pass_ns.";
/// Registry prefix for per-band queue-wait histograms.
const WAIT_PREFIX: &str = "serve.queue_wait_ns.";
/// Band names, indexed by [`crate::protocol::Priority::index`].
const BAND_NAMES: [&str; 3] = ["high", "normal", "low"];
/// Registry prefix for per-phase job-execution histograms.
const PHASE_PREFIX: &str = "serve.job_phase_ns.";
/// Phase names, indexed by [`Phase`].
const PHASE_NAMES: [&str; 4] = ["snapshot", "flow", "absorb", "serialize"];

/// One phase of an executed job or batch unit (cache hits execute
/// nothing and record nothing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Seeding the worker's `Milo` with a snapshot of the design store.
    Snapshot,
    /// The flow run (the batch driver's, for a batch unit).
    Flow,
    /// Folding the run's compiled designs back into the store.
    Absorb,
    /// Rendering the result JSON and storing it in the result cache.
    Serialize,
}

/// Live service counters.
pub struct Metrics {
    started: Instant,
    workers: u64,
    jobs_submitted: AtomicU64,
    jobs_running: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    busy_ns: AtomicU64,
    registry: Registry,
    queue_wait: [Arc<Histogram>; 3],
    job_phases: [Arc<Histogram>; 4],
}

impl Metrics {
    /// Fresh counters for a server with `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        let registry = Registry::new();
        let queue_wait =
            std::array::from_fn(|i| registry.histogram(&format!("{WAIT_PREFIX}{}", BAND_NAMES[i])));
        let job_phases = std::array::from_fn(|i| {
            registry.histogram(&format!("{PHASE_PREFIX}{}", PHASE_NAMES[i]))
        });
        Self {
            started: Instant::now(),
            workers: workers as u64,
            jobs_submitted: AtomicU64::new(0),
            jobs_running: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            registry,
            queue_wait,
            job_phases,
        }
    }

    /// A job entered the queue.
    pub fn submitted(&self) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker picked a job up.
    pub fn running(&self) {
        self.jobs_running.fetch_add(1, Ordering::Relaxed);
    }

    /// A job left the running state, successfully.
    pub fn done(&self) {
        self.jobs_running.fetch_sub(1, Ordering::Relaxed);
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
    }

    /// A job left the running state with an error.
    pub fn failed(&self) {
        self.jobs_running.fetch_sub(1, Ordering::Relaxed);
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// A job was cancelled before (or instead of) running.
    pub fn cancelled(&self) {
        self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Cache hit (no passes ran).
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Full synthesis run.
    pub fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker busy time spent on one job.
    pub fn busy(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records how long a work unit sat queued in `band` (a
    /// [`crate::protocol::Priority::index`]) before a worker claimed
    /// it.
    pub fn queue_wait(&self, band: usize, wait_ns: u64) {
        if let Some(h) = self.queue_wait.get(band) {
            h.record(wait_ns);
        }
    }

    /// Records how long one phase of an executed job or batch unit took.
    pub fn job_phase(&self, phase: Phase, ns: u64) {
        self.job_phases[phase as usize].record(ns);
    }

    /// Folds one finished flow's per-pass wall times in.
    pub fn record_passes<'a>(&self, passes: impl Iterator<Item = (&'a str, bool, u64)>) {
        for (name, skipped, wall_ns) in passes {
            if skipped {
                continue;
            }
            self.registry
                .histogram(&format!("{PASS_PREFIX}{name}"))
                .record(wall_ns);
        }
    }

    /// Lifetime run count of one pass (test oracle).
    pub fn pass_runs(&self, name: &str) -> u64 {
        self.registry
            .histogram(&format!("{PASS_PREFIX}{name}"))
            .count()
    }

    /// Renders the full counter set as a JSON object. Cache hit rate is
    /// hits over terminal lookups; utilization is busy time over
    /// `workers × uptime`.
    ///
    /// Cache counters sit under `"cache"`, scheduler counters under
    /// `"queue"`, and `"histograms"` holds per-band queue wait,
    /// per-pass wall time and per-phase job execution time
    /// (`"job_phases"`), each summarized as
    /// `{"count", "sum", "mean", "p50", "p95", "p99"}`. `shard_sizes`
    /// is a one-element array holding `store_designs`, the design
    /// store's size.
    pub fn to_json(&self, queue: &QueueStats, cache: &CacheStats, store_designs: usize) -> String {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let looked = hits + misses;
        let hit_rate = if looked == 0 {
            0.0
        } else {
            hits as f64 / looked as f64
        };
        let uptime_ns = self.started.elapsed().as_nanos() as u64;
        let capacity = self.workers.saturating_mul(uptime_ns);
        let utilization = if capacity == 0 {
            0.0
        } else {
            (self.busy_ns.load(Ordering::Relaxed) as f64 / capacity as f64).min(1.0)
        };
        let summaries = |w: &mut JsonWriter, names: &[&str], hists: &[Arc<Histogram>]| {
            for (name, h) in names.iter().zip(hists) {
                h.snapshot().write_summary(w.key(name));
            }
        };
        json_object(|w| {
            w.field("workers", self.workers)
                .field("uptime_ns", uptime_ns)
                .key("jobs")
                .object(|w| {
                    w.field("submitted", self.jobs_submitted.load(Ordering::Relaxed))
                        .field("running", self.jobs_running.load(Ordering::Relaxed))
                        .field("done", self.jobs_done.load(Ordering::Relaxed))
                        .field("failed", self.jobs_failed.load(Ordering::Relaxed))
                        .field("cancelled", self.jobs_cancelled.load(Ordering::Relaxed));
                });
            w.key("cache").object(|w| {
                w.field("hits", hits)
                    .field("misses", misses)
                    .field("hit_rate", hit_rate)
                    .field("evictions", cache.evictions)
                    .field("resident_bytes", cache.resident_bytes)
                    .field("exact_entries", cache.exact_entries);
            });
            w.key("queue").object(|w| {
                w.field("depth", queue.depth)
                    .field("clients", queue.clients)
                    .key("bands")
                    .object(|w| {
                        for (name, b) in BAND_NAMES.iter().zip(&queue.bands) {
                            w.key(name).object(|w| {
                                w.field("depth", b.depth).field("scheduled", b.scheduled);
                            });
                        }
                    });
            });
            w.key("histograms").object(|w| {
                w.key("queue_wait")
                    .object(|w| summaries(w, &BAND_NAMES, &self.queue_wait));
                w.key("passes").object(|w| {
                    for (name, snap) in self.registry.histograms_with_prefix(PASS_PREFIX) {
                        snap.write_summary(w.key(&name[PASS_PREFIX.len()..]));
                    }
                });
                w.key("job_phases")
                    .object(|w| summaries(w, &PHASE_NAMES, &self.job_phases));
            });
            w.field("worker_utilization", utilization)
                .key("shard_sizes")
                .array(|w| {
                    w.value(store_designs);
                });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new(2);
        m.submitted();
        m.submitted();
        m.running();
        m.cache_miss();
        m.done();
        m.running();
        m.cache_hit();
        m.done();
        m.busy(1_000);
        m.record_passes([("compile", false, 500u64), ("timing-area", false, 300)].into_iter());
        m.record_passes([("compile", false, 100u64), ("skipped", true, 9)].into_iter());

        assert_eq!(m.pass_runs("compile"), 2);
        assert_eq!(m.pass_runs("timing-area"), 1);
        assert_eq!(m.pass_runs("skipped"), 0, "skipped slots don't count");

        m.queue_wait(1, 2_000);
        m.queue_wait(1, 4_000);

        let queue = QueueStats {
            depth: 3,
            clients: 2,
            bands: {
                let mut bands = [crate::scheduler::BandStats::default(); 3];
                bands[1].depth = 3;
                bands[1].scheduled = 7;
                bands
            },
        };
        let cache_stats = CacheStats {
            resident_bytes: 4096,
            exact_entries: 1,
            evictions: 2,
        };
        let json = m.to_json(&queue, &cache_stats, 4);
        let v = crate::json::parse(&json).expect("stats json parses");
        let jobs = v.get("jobs").expect("jobs object");
        assert_eq!(jobs.get("done").and_then(|x| x.as_u64()), Some(2));
        assert!(jobs.get("queued").is_none(), "flat key removed in v1.2");
        assert!(v.get("passes").is_none(), "legacy table removed in v1.2");
        let store = v.get("shard_sizes").and_then(|s| s.as_array());
        assert_eq!(
            store.map(|s| s.iter().filter_map(|x| x.as_u64()).collect::<Vec<_>>()),
            Some(vec![4]),
            "one-element array holding the store's design count"
        );
        let cache = v.get("cache").expect("cache object");
        assert_eq!(cache.get("hits").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(cache.get("misses").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(cache.get("hit_rate").and_then(|x| x.as_f64()), Some(0.5));
        assert_eq!(cache.get("evictions").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(
            cache.get("resident_bytes").and_then(|x| x.as_u64()),
            Some(4096)
        );
        let q = v.get("queue").expect("queue object");
        assert_eq!(q.get("depth").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(q.get("clients").and_then(|x| x.as_u64()), Some(2));
        let normal = q.get("bands").and_then(|b| b.get("normal")).expect("band");
        assert_eq!(normal.get("depth").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(normal.get("scheduled").and_then(|x| x.as_u64()), Some(7));
        let hists = v.get("histograms").expect("histograms object");
        let wait = hists
            .get("queue_wait")
            .and_then(|w| w.get("normal"))
            .expect("normal-band queue wait");
        assert_eq!(wait.get("count").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(wait.get("sum").and_then(|x| x.as_u64()), Some(6_000));
        assert!(
            wait.get("p95").and_then(|x| x.as_u64()).expect("p95") >= 4_000,
            "p95 bound covers the slowest wait"
        );
        let compile = hists
            .get("passes")
            .and_then(|p| p.get("compile"))
            .expect("pass summary");
        assert_eq!(compile.get("count").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(compile.get("sum").and_then(|x| x.as_u64()), Some(600));
        assert!(compile.get("p50").is_some());
    }

    #[test]
    fn job_phases_render_under_histograms() {
        let m = Metrics::new(1);
        m.job_phase(Phase::Snapshot, 1_000);
        m.job_phase(Phase::Snapshot, 3_000);
        m.job_phase(Phase::Flow, 90_000);
        m.job_phase(Phase::Serialize, 500);
        let json = m.to_json(&QueueStats::default(), &CacheStats::default(), 0);
        let v = crate::json::parse(&json).expect("stats json parses");
        let phases = v
            .get("histograms")
            .and_then(|h| h.get("job_phases"))
            .expect("job_phases object");
        let field = |phase: &str, key: &str| {
            phases
                .get(phase)
                .and_then(|p| p.get(key))
                .and_then(|x| x.as_u64())
        };
        assert_eq!(field("snapshot", "count"), Some(2));
        assert_eq!(field("snapshot", "sum"), Some(4_000));
        assert!(field("snapshot", "p99").expect("p99") >= 3_000);
        assert_eq!(field("flow", "count"), Some(1));
        assert_eq!(field("flow", "sum"), Some(90_000));
        assert_eq!(
            field("absorb", "count"),
            Some(0),
            "an unrecorded phase renders empty"
        );
        assert_eq!(field("serialize", "sum"), Some(500));
        for phase in PHASE_NAMES {
            for key in ["count", "sum", "mean", "p50", "p95", "p99"] {
                assert!(
                    phases.get(phase).and_then(|p| p.get(key)).is_some(),
                    "{phase}.{key}"
                );
            }
        }
    }
}
