//! The daemon: a std-only TCP server (no async runtime) with a
//! thread-per-connection front end and a fixed pool of synthesis
//! workers behind a condvar-signaled [`Scheduler`].
//!
//! Determinism contract: every job's `SynthesisResult` JSON is
//! byte-identical to what an offline [`Milo::synthesize_batch`] call
//! produces for the same design and constraints — regardless of
//! arrival order, queue interleaving, scheduling band, worker count, or
//! cache state (hit or full run). The pieces that make that true:
//!
//! * workers run the exact arm recipe the batch driver uses
//!   (`Flow::standard()` with statistics sampling off, seeded with an
//!   `Arc`-shared database snapshot); the store holds compiler output
//!   only, so a warm snapshot yields the result a fresh one would
//!   (pinned by `tests/service_loopback.rs`'s warm-store test);
//! * `submit_batch` members run through the batch driver itself
//!   against one shared snapshot;
//! * panicked jobs retry once against a fresh snapshot through the
//!   batch driver's own retry path (`milo_core::run_with_retry`), so a
//!   job that fails again reports the batch's `retried` error
//!   (fault-injector charges are server-global, so a once-only
//!   injected fault is spent, not re-fired);
//! * cache hits replay the first run's bytes verbatim (see
//!   [`crate::cache`]).

use crate::cache::{job_key, CachedResult, ResultCache};
use crate::metrics::{Metrics, Phase};
use crate::protocol::{error_line, parse_request, Priority, Request, PROTOCOL_VERSION};
use crate::scheduler::{Scheduler, WorkUnit};
use milo_core::netlist::{DesignDb, Netlist};
use milo_core::techmap::TechLibrary;
use milo_core::{
    run_with_retry, Constraints, FaultInjector, Flow, FlowEvent, FlowOutput, Milo, MiloError,
    PassOutcome,
};
use milo_trace::{json_object, JsonWriter};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How a finished job's answer was produced (reported in `status` /
/// `result` responses and counted in the metrics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Full synthesis ran.
    Miss,
    /// Cache hit: stored bytes replayed, no passes ran.
    Hit,
}

impl CacheOutcome {
    fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Miss => "miss",
            CacheOutcome::Hit => "hit",
        }
    }
}

/// A job's lifecycle state.
enum JobState {
    Queued,
    Running,
    Done {
        payload: Arc<CachedResult>,
        cache: CacheOutcome,
    },
    Failed(String),
    Cancelled,
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done { .. } | JobState::Failed(_) | JobState::Cancelled
        )
    }
}

/// A line-atomic writer shared between a connection handler and the
/// streaming observer of any job submitted on that connection.
#[derive(Clone)]
struct LineWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl LineWriter {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream: Arc::new(Mutex::new(stream)),
        }
    }

    /// Writes `line` plus the terminating newline under one lock hold,
    /// so concurrent event and response lines never interleave bytes.
    fn send(&self, line: &str) -> std::io::Result<()> {
        let mut guard = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        guard.write_all(line.as_bytes())?;
        guard.write_all(b"\n")?;
        guard.flush()
    }
}

struct Job {
    id: u64,
    netlist: Netlist,
    constraints: Constraints,
    key: u64,
    state: Mutex<JobState>,
    cv: Condvar,
    cancel: AtomicBool,
    /// Event sink for `"stream": true` submissions. It is dropped
    /// before the job turns terminal, so a finished job holds no clone
    /// of its connection and the socket closes when the client leaves.
    stream: Mutex<Option<LineWriter>>,
}

impl Job {
    fn set_state(&self, next: JobState) {
        if next.terminal() {
            self.drop_stream();
        }
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = next;
        self.cv.notify_all();
    }

    fn drop_stream(&self) {
        self.stream.lock().unwrap_or_else(|e| e.into_inner()).take();
    }

    /// Queued→running (or →cancelled) atomically with the cancel
    /// handler's flag check; see `Request::Cancel`. Returns `false`
    /// when the job was cancelled instead of claimed.
    fn claim(&self) -> bool {
        let cancelled = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if self.cancel.load(Ordering::SeqCst) {
                self.drop_stream();
                *state = JobState::Cancelled;
                true
            } else {
                *state = JobState::Running;
                false
            }
        };
        self.cv.notify_all();
        !cancelled
    }
}

/// Server construction knobs.
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` (any free port) by default, or the
    /// `MILO_SERVE_ADDR` environment variable when set.
    pub addr: String,
    /// Synthesis worker threads (defaults to `MILO_PAR_THREADS`, then
    /// to the machine's parallelism).
    pub workers: usize,
    /// Target technology library.
    pub library: TechLibrary,
    /// Server-global fault injector (test harness; the programmatic
    /// equivalent of `MILO_FAULT_INJECT`).
    pub fault: Option<Arc<FaultInjector>>,
    /// Result cache budget in bytes (`None` = unbounded; defaults to
    /// the `MILO_SERVE_CACHE_BYTES` environment variable when it holds
    /// a size [`parse_bytes`] accepts).
    pub cache_bytes: Option<usize>,
    /// Always `None`, and nothing reads it: the result cache is
    /// memory-only. The field remains so that code which assigns
    /// `cache_dir = None` (`milobench`'s soak daemon) still compiles.
    pub cache_dir: Option<std::convert::Infallible>,
}

impl ServerConfig {
    /// Defaults: env-configured address, auto worker count, the given
    /// library, no fault injection, env-configured cache budget.
    pub fn new(library: TechLibrary) -> Self {
        let workers = std::env::var("MILO_PAR_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
            });
        Self {
            addr: std::env::var("MILO_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:0".to_owned()),
            workers,
            library,
            fault: None,
            cache_bytes: std::env::var("MILO_SERVE_CACHE_BYTES")
                .ok()
                .as_deref()
                .and_then(parse_bytes),
            cache_dir: None,
        }
    }

    /// Overrides the bind address.
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Overrides the worker count (minimum 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Arms a server-global fault injector.
    #[must_use]
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault = Some(injector);
        self
    }

    /// Bounds the result cache to `bytes`.
    #[must_use]
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }
}

/// Parses a byte size: decimal digits with an optional `k`, `m` or `g`
/// suffix (powers of 1024, either case), the form `--cache-bytes` and
/// `MILO_SERVE_CACHE_BYTES` take. `None` when `s` is not such a size
/// or the size does not fit a `usize`.
pub fn parse_bytes(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, unit) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1 << 10),
        b'm' | b'M' => (&s[..s.len() - 1], 1 << 20),
        b'g' | b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(unit)
}

/// Everything the accept loop, connection handlers, and workers share.
struct Shared {
    addr: SocketAddr,
    lib: TechLibrary,
    fault: Option<Arc<FaultInjector>>,
    queue: Mutex<Scheduler>,
    queue_cv: Condvar,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    next_conn: AtomicU64,
    /// The service-wide design store: the compiler cache every job is
    /// seeded from and merges its compiled designs back into. It holds
    /// compiler output only (no job's top or optimized bodies), so it
    /// grows with the distinct designs compiled, not with jobs served.
    store: Mutex<DesignDb>,
    cache: ResultCache,
    metrics: Metrics,
    shutdown: AtomicBool,
}

impl Shared {
    /// A worker's `Milo`, seeded with a snapshot of the design store's
    /// compiled designs. Designs are `Arc`-shared, so the clone under
    /// the lock copies the name table only.
    fn worker_milo(&self) -> Milo {
        let snapshot = self.store.lock().unwrap_or_else(|e| e.into_inner()).clone();
        Milo::with_database(self.lib.clone(), snapshot)
    }

    /// Folds a finished run's compiled designs back into the store (last
    /// write wins on same-name entries; a compiler's output is a pure
    /// function of its name, so the winner does not matter).
    fn absorb(&self, db: &DesignDb) {
        self.store
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge_from(db);
    }

    /// Runs `f`, recording its wall time as `phase` of the executing
    /// job or batch unit.
    fn timed<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.metrics.job_phase(
            phase,
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        out
    }

    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .cloned()
    }

    /// Registers `jobs` and queues them as one schedulable unit for
    /// `client` at `priority`.
    fn enqueue(&self, priority: Priority, client: &str, jobs: Vec<Arc<Job>>) {
        let unit = WorkUnit::batch(jobs.iter().map(|j| j.id).collect());
        {
            let mut table = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            for job in jobs {
                table.insert(job.id, job);
            }
        }
        for &id in &unit.jobs {
            self.metrics.submitted();
            if milo_trace::enabled() {
                milo_trace::instant_with("job.submit", &format!("job {id}"));
            }
        }
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(priority, client, unit);
        self.queue_cv.notify_one();
    }

    /// Blocks for the next schedulable unit; `None` once shutdown is
    /// requested *and* the queue has drained (accepted work finishes).
    fn next_work(&self) -> Option<WorkUnit> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(unit) = queue.pop() {
                drop(queue);
                // Claim time minus enqueue time, into the band's
                // queue-wait histogram (`stats` → histograms.queue_wait).
                self.metrics
                    .queue_wait(unit.band, unit.enqueued.elapsed().as_nanos() as u64);
                return Some(unit);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            queue = self.queue_cv.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A running server: its bound address plus the handles needed to stop
/// it. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `shutdown` request arrives over the wire, then
    /// joins every thread — the daemon main's serve-forever call.
    pub fn shutdown_on_request(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        self.shutdown();
    }

    /// Stops the server: no new connections, queued jobs finish,
    /// workers exit. Idempotent; blocks until all threads join.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds and spawns the daemon: one accept thread, `config.workers`
/// synthesis workers.
///
/// # Errors
///
/// Fails when the address cannot be bound or a thread cannot be
/// spawned.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    // Honor MILO_TRACE for daemon runs; embedders (and tests) that
    // already called `set_enabled` are not overridden.
    if std::env::var_os("MILO_TRACE").is_some() {
        milo_trace::init_from_env();
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        addr,
        lib: config.library,
        fault: config.fault,
        queue: Mutex::new(Scheduler::new()),
        queue_cv: Condvar::new(),
        jobs: Mutex::new(HashMap::new()),
        next_id: AtomicU64::new(1),
        next_conn: AtomicU64::new(1),
        store: Mutex::new(DesignDb::new()),
        cache: ResultCache::bounded(config.cache_bytes),
        metrics: Metrics::new(config.workers.max(1)),
        shutdown: AtomicBool::new(false),
    });

    let workers = (0..config.workers.max(1))
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("milo-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    let accept = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("milo-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &shared))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // JSON-lines means many latency-sensitive small writes; Nagle
        // batching would add delayed-ACK stalls to every round trip.
        let _ = stream.set_nodelay(true);
        let shared = shared.clone();
        // Handlers are detached: they die with their connection (or the
        // process). Join bookkeeping would add nothing — a handler
        // blocked in read() can't be joined without closing the socket
        // anyway.
        let _ = std::thread::Builder::new()
            .name("milo-serve-conn".to_owned())
            .spawn(move || handle_connection(stream, &shared));
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = LineWriter::new(stream);
    // Untagged submissions are fair per-connection: every connection
    // gets a distinct default client identity.
    let conn_client = format!("conn-{}", shared.next_conn.fetch_add(1, Ordering::Relaxed));
    let mut lines = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) | Err(_) => return, // EOF or connection gone
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let reply = match parse_request(line.trim_end_matches(['\n', '\r'])) {
            Err(e) => error_line(&e),
            Ok(req) => dispatch(req, &writer, &conn_client, shared),
        };
        if writer.send(&reply).is_err() {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn dispatch(req: Request, writer: &LineWriter, conn_client: &str, shared: &Arc<Shared>) -> String {
    match req {
        Request::Submit {
            netlist,
            constraints,
            stream,
            priority,
            client,
        } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return error_line("server is shutting down");
            }
            let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
            let job = Arc::new(Job {
                id,
                key: job_key(&netlist, &constraints),
                netlist: *netlist,
                constraints,
                state: Mutex::new(JobState::Queued),
                cv: Condvar::new(),
                cancel: AtomicBool::new(false),
                stream: Mutex::new(stream.then(|| writer.clone())),
            });
            shared.enqueue(
                priority,
                client.as_deref().unwrap_or(conn_client),
                vec![job],
            );
            reply("submit", |w| {
                w.field("job", id);
            })
        }
        Request::SubmitBatch {
            netlists,
            constraints,
            priority,
            client,
        } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return error_line("server is shutting down");
            }
            let jobs: Vec<Arc<Job>> = netlists
                .into_iter()
                .map(|netlist| {
                    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
                    Arc::new(Job {
                        id,
                        key: job_key(&netlist, &constraints),
                        netlist,
                        constraints: constraints.clone(),
                        state: Mutex::new(JobState::Queued),
                        cv: Condvar::new(),
                        cancel: AtomicBool::new(false),
                        stream: Mutex::new(None),
                    })
                })
                .collect();
            let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
            shared.enqueue(priority, client.as_deref().unwrap_or(conn_client), jobs);
            reply("submit_batch", |w| {
                w.key("jobs").array(|w| {
                    for id in ids {
                        w.value(id);
                    }
                });
            })
        }
        Request::Status(id) => match shared.job(id) {
            None => error_line(&format!("no such job {id}")),
            Some(job) => {
                let state = job.state.lock().unwrap_or_else(|e| e.into_inner());
                reply("status", |w| {
                    w.field("job", id).field("state", state.label());
                    if let JobState::Done { cache, .. } = &*state {
                        w.field("cache", cache.as_str());
                    }
                })
            }
        },
        Request::Result(id) => match shared.job(id) {
            None => error_line(&format!("no such job {id}")),
            Some(job) => {
                let mut state = job.state.lock().unwrap_or_else(|e| e.into_inner());
                while !state.terminal() {
                    state = job.cv.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                reply("result", |w| {
                    w.field("job", id).field("state", state.label());
                    match &*state {
                        JobState::Done { payload, cache } => {
                            w.field("cache", cache.as_str())
                                .key("output")
                                .raw(&payload.json);
                        }
                        JobState::Failed(message) => {
                            w.field("error", message);
                        }
                        _ => {}
                    }
                })
            }
        },
        Request::Cancel(id) => match shared.job(id) {
            None => error_line(&format!("no such job {id}")),
            Some(job) => {
                // Flag-set and queued-check happen under the state
                // lock, and the worker's queued→running transition
                // checks the flag under the same lock — so a `true`
                // here guarantees the job ends `cancelled`, never a
                // late `done`.
                let queued = {
                    let state = job.state.lock().unwrap_or_else(|e| e.into_inner());
                    let queued = matches!(&*state, JobState::Queued);
                    if queued {
                        job.cancel.store(true, Ordering::SeqCst);
                    }
                    queued
                };
                reply("cancel", |w| {
                    w.field("job", id).field("cancelled", queued);
                })
            }
        },
        Request::Stats => {
            let queue = shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .stats();
            let designs = shared.store.lock().unwrap_or_else(|e| e.into_inner()).len();
            let stats = shared
                .metrics
                .to_json(&queue, &shared.cache.stats(), designs);
            reply("stats", |w| {
                w.key("stats").raw(&stats);
            })
        }
        // The drained trace is `{"traceEvents": []}`-shaped and empty
        // unless the server process runs with tracing enabled.
        Request::Trace => reply("trace", |w| {
            w.key("trace").raw(&milo_trace::drain_chrome_json());
        }),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            // Poke the accept loop with a throwaway connection so it
            // observes the flag instead of blocking in accept().
            let _ = TcpStream::connect(shared.addr);
            reply("shutdown", |_| {})
        }
    }
}

/// `{"ok": true, "v": "1.3", "op": op, …}`: every success reply, with
/// `members` writing the op's own members.
fn reply(op: &str, members: impl FnOnce(&mut JsonWriter)) -> String {
    json_object(|w| {
        w.field("ok", true)
            .field("v", PROTOCOL_VERSION)
            .field("op", op);
        members(w);
    })
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(unit) = shared.next_work() {
        let jobs: Vec<Arc<Job>> = unit.jobs.iter().filter_map(|&id| shared.job(id)).collect();
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.claim() {
                shared.metrics.running();
                live.push(job);
            } else {
                shared.metrics.cancelled();
            }
        }
        if live.is_empty() {
            continue;
        }
        let started = Instant::now();
        let _unit_span = milo_trace::enabled().then(|| {
            let ids = live
                .iter()
                .map(|j| j.id.to_string())
                .collect::<Vec<_>>()
                .join(",");
            milo_trace::span(&format!("job:{ids}"))
        });
        if live.len() == 1 {
            run_job(shared, &live[0]);
        } else {
            run_batch(shared, &live);
        }
        shared.metrics.busy(started.elapsed().as_nanos() as u64);
    }
}

/// Resolves a cache hit into a terminal `Done` state. Returns `false`
/// on a miss.
fn resolve_from_cache(shared: &Arc<Shared>, job: &Job) -> bool {
    let Some(payload) = shared.cache.lookup(job.key) else {
        return false;
    };
    shared.metrics.cache_hit();
    milo_trace::instant("cache.hit");
    shared.metrics.done();
    job.set_state(JobState::Done {
        payload,
        cache: CacheOutcome::Hit,
    });
    true
}

/// Executes one job: cache → full run, retried once on a panic through
/// the batch driver's own retry path ([`run_with_retry`]), against a
/// fresh snapshot. Injector charges are server-global, so a once-only
/// fault is spent by the retry; an `#inf` fault fails the retry too, and
/// the error carries the same `retried` label as the offline batch's.
fn run_job(shared: &Arc<Shared>, job: &Job) {
    if resolve_from_cache(shared, job) {
        return;
    }
    let mut runs = run_with_retry(std::slice::from_ref(&job.netlist), |_| execute(shared, job));
    finish(shared, job, runs.remove(0));
}

/// Executes a `submit_batch` unit: cache-resolved members answer
/// immediately, the misses fan out through the offline batch driver
/// against one shared database snapshot. The driver already
/// panic-isolates arms and retries once, so per-member failures land
/// as per-member `Failed` states without touching their siblings.
fn run_batch(shared: &Arc<Shared>, jobs: &[Arc<Job>]) {
    let misses: Vec<&Arc<Job>> = jobs
        .iter()
        .filter(|job| !resolve_from_cache(shared, job))
        .collect();
    if misses.is_empty() {
        return;
    }

    let designs: Vec<Netlist> = misses.iter().map(|j| j.netlist.clone()).collect();
    // Members of one batch share one constraint set by protocol
    // construction.
    let constraints = misses[0].constraints.clone();
    let mut milo = shared.timed(Phase::Snapshot, || shared.worker_milo());
    if let Some(f) = &shared.fault {
        milo.set_fault_injector(f.clone());
    }
    let runs = shared.timed(Phase::Flow, || {
        milo.synthesize_batch(&designs, &constraints)
    });
    shared.timed(Phase::Absorb, || shared.absorb(&milo.into_database()));

    for (job, run) in misses.into_iter().zip(runs) {
        finish(shared, job, run);
    }
}

/// One synthesis attempt: the standard flow (with the job's streaming
/// observer, when it has one) against a fresh store snapshot, whose
/// database is absorbed back on success. Each step is timed as its
/// [`Phase`].
fn execute(shared: &Arc<Shared>, job: &Job) -> Result<FlowOutput, MiloError> {
    let mut milo = shared.timed(Phase::Snapshot, || shared.worker_milo());
    if let Some(f) = &shared.fault {
        milo.set_fault_injector(f.clone());
    }
    let mut flow = Flow::standard();
    flow.sample_stats(false);
    let sink = job.stream.lock().unwrap_or_else(|e| e.into_inner()).clone();
    if let Some(sink) = sink {
        let id = job.id;
        flow.observe(move |event| {
            let line = json_object(|w| match event {
                FlowEvent::FlowStarted { design, passes } => {
                    w.field("event", "flow-started").field("job", id);
                    w.field("design", design).field("passes", passes);
                }
                FlowEvent::PassStarted { index, name } => {
                    w.field("event", "pass-started").field("job", id);
                    w.field("index", index).field("pass", name);
                }
                FlowEvent::PassFinished { index, report } => {
                    w.field("event", "pass-finished").field("job", id);
                    w.field("index", index).field("pass", &report.name);
                    w.field("outcome", report.outcome.as_str());
                    w.field("wall_ns", report.wall.as_nanos());
                    w.field("rules_applied", report.rules_applied);
                }
            });
            // A dead client connection must not fail the job.
            let _ = sink.send(&line);
        });
    }

    let output = shared.timed(Phase::Flow, || {
        flow.run(&mut milo, &job.netlist, &job.constraints)
    })?;
    shared.timed(Phase::Absorb, || shared.absorb(&milo.into_database()));
    Ok(output)
}

/// Completes a job that missed the cache, single or batch member:
/// records its pass histograms, caches the rendered output, and moves
/// the job to `Done` or `Failed`.
fn finish(shared: &Arc<Shared>, job: &Job, run: Result<FlowOutput, MiloError>) {
    shared.metrics.cache_miss();
    match run {
        Ok(output) => {
            shared
                .metrics
                .record_passes(output.report.passes.iter().map(|p| {
                    (
                        p.name.as_str(),
                        p.outcome == PassOutcome::Skipped,
                        u64::try_from(p.wall.as_nanos()).unwrap_or(u64::MAX),
                    )
                }));
            let payload = shared.timed(Phase::Serialize, || {
                let payload = Arc::new(CachedResult::new(&output));
                shared.cache.store(job.key, payload.clone());
                payload
            });
            shared.metrics.done();
            job.set_state(JobState::Done {
                payload,
                cache: CacheOutcome::Miss,
            });
        }
        Err(e) => {
            shared.metrics.failed();
            job.set_state(JobState::Failed(e.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_bytes;

    #[test]
    fn parse_bytes_reads_suffixed_sizes_and_rejects_overflow() {
        assert_eq!(parse_bytes("0"), Some(0));
        assert_eq!(parse_bytes("1048576"), Some(1 << 20));
        assert_eq!(parse_bytes(" 4096\n"), Some(4096));
        for (text, bytes) in [
            ("64k", 64 << 10),
            ("64K", 64 << 10),
            ("64m", 64 << 20),
            ("64M", 64 << 20),
            ("1g", 1 << 30),
            ("1G", 1 << 30),
        ] {
            assert_eq!(parse_bytes(text), Some(bytes), "{text}");
        }
        let max = usize::MAX;
        assert_eq!(parse_bytes(&max.to_string()), Some(max));
        assert_eq!(
            parse_bytes(&format!("{}g", max >> 30)),
            Some((max >> 30) << 30)
        );
        for overflow in [
            format!("{}g", (max >> 30) + 1),
            format!("{max}k"),
            format!("{max}0"),
        ] {
            assert_eq!(parse_bytes(&overflow), None, "{overflow}");
        }
        for bad in ["", "k", "1.5g", "64mb", "-1", "lots"] {
            assert_eq!(parse_bytes(bad), None, "{bad:?}");
        }
    }
}
