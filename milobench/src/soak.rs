//! The service workload, `serve_soak`: an in-process `milo-serve`
//! daemon under a 1 MiB cache budget, driven over its wire protocol by
//! one closed-loop client connection (the next request goes only after
//! the previous result arrived) through a fixed, seeded request stream.

use crate::flows;
use crate::host::Normalizer;
use crate::layers::{self, Counters, SelfTimes};
use crate::report::{Outcome, PASSES};
use crate::{stats, Spec};
use milo_circuits::random_control;
use milo_core::compilers::verify::XorShift;
use milo_core::techmap::ecl_library;
use milo_core::{emit_netlist, parse_netlist, trace, Constraints};
use milo_serve::{spawn, Client, ServerConfig, ServerHandle, SubmitOptions, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Requests per normalization block.
const BLOCK: usize = 100;
/// Requests per second of `--seconds` on a 2-core x86-64 VM.
const REQUESTS_PER_SECOND: u64 = 375;
/// The fewest requests a run makes: enough for p99 to have ten samples
/// beyond it.
const MIN_REQUESTS: usize = 1000;
/// The daemon's cache budget.
pub const CACHE_BYTES: usize = 1 << 20;
/// Exact resubmissions repeat a design from this many requests back.
const RESUBMIT_WINDOW: std::ops::RangeInclusive<usize> = 100..=300;
/// One request in this many gets an offline hash and equivalence check.
const SAMPLE_EVERY: u64 = 16;

/// One request of the stream.
enum Req {
    /// A fresh two/three-gate design (a cache miss).
    Unique(String),
    /// The exact text of an earlier `Unique` request (an exact-tier hit).
    Resubmit(usize),
    /// The shared control design under the shared delay limit with its
    /// own area budget (a prefix-tier hit after the first).
    Prefix(f64),
    /// Four fresh designs in one `submit_batch`.
    Batch(Vec<String>),
}

/// Everything the soak needs, built in set-up.
pub struct Inputs {
    requests: Vec<Req>,
    sampled: Vec<bool>,
    prefix_text: String,
    prefix_delay: f64,
    prefix_call: String,
    /// The daemon the untraced soak runs against.
    pub daemon: ServerHandle,
}

/// The daemon configuration: one worker (the closed loop never has more
/// than one unit in flight), a 1 MiB cache, no disk tier.
fn daemon() -> Result<ServerHandle, String> {
    let mut config = ServerConfig::new(ecl_library())
        .with_addr("127.0.0.1:0")
        .with_workers(1)
        .with_cache_bytes(CACHE_BYTES);
    config.cache_dir = None;
    spawn(config).map_err(|e| format!("daemon spawn failed: {e}"))
}

fn unique_text(rng: &mut XorShift, seed: u64, serial: &mut u64) -> Result<String, String> {
    let gates = 2 + (rng.next_u64() % 2) as usize;
    // Distinct generator seeds give distinct design names, hence
    // distinct structural hashes and cache keys.
    let s = (seed << 24) | *serial;
    *serial += 1;
    emit_netlist(&random_control(gates, 4, s))
}

/// Request count for a given `--seconds`.
pub fn request_count(seconds: u64, tiny: bool) -> usize {
    if tiny {
        MIN_REQUESTS
    } else {
        ((seconds * REQUESTS_PER_SECOND) as usize).max(MIN_REQUESTS)
    }
}

/// Builds the seeded request stream and spawns the daemon.
pub fn setup(seed: u64, seconds: u64, tiny: bool) -> Result<Inputs, String> {
    let n = request_count(seconds, tiny);
    let mut rng = XorShift::new(seed ^ 0x50a6_c0de);
    let mut serial = 0u64;
    let gates = if tiny { 60 } else { 300 };
    let prefix_nl = random_control(gates, 24, flows::DESIGN_SEED);
    let prefix_delay = flows::direct_delay(&prefix_nl)? * 0.8;
    let prefix_text = emit_netlist(&prefix_nl)?;
    let mut requests = Vec::with_capacity(n);
    let mut uniques: Vec<usize> = Vec::new();
    let mut area_budget = 1000.0;
    for i in 0..n {
        let r = rng.next_u64() % 1000;
        // `uniques` is ascending: the requests 100-300 back form a range.
        let lo = uniques.partition_point(|&j| j + RESUBMIT_WINDOW.end() < i);
        let hi = uniques.partition_point(|&j| j + RESUBMIT_WINDOW.start() <= i);
        let req = if r < 20 {
            area_budget += 1.0;
            Req::Prefix(area_budget)
        } else if r < 120 && lo < hi {
            Req::Resubmit(uniques[lo + (rng.next_u64() % (hi - lo) as u64) as usize])
        } else if r < 125 {
            Req::Batch(
                (0..4)
                    .map(|_| unique_text(&mut rng, seed, &mut serial))
                    .collect::<Result<_, _>>()?,
            )
        } else {
            uniques.push(i);
            Req::Unique(unique_text(&mut rng, seed, &mut serial)?)
        };
        requests.push(req);
    }
    let mut first_prefix = true;
    let mut first_batch = true;
    let sampled = requests
        .iter()
        .map(|req| {
            let pick = rng.next_u64().is_multiple_of(SAMPLE_EVERY);
            match req {
                Req::Prefix(_) if first_prefix => {
                    first_prefix = false;
                    true
                }
                Req::Batch(_) if first_batch => {
                    first_batch = false;
                    true
                }
                _ => pick,
            }
        })
        .collect();
    Ok(Inputs {
        requests,
        sampled,
        prefix_call: format!(
            "random_control({gates}, 24, {}) at 0.8x direct delay ({prefix_delay:.3} ns)",
            flows::DESIGN_SEED
        ),
        prefix_text,
        prefix_delay,
        daemon: daemon()?,
    })
}

/// What one pass of the stream measured.
struct Pass {
    /// Normalized latency per request, submit to last result.
    lat_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    result_ms: Vec<f64>,
    /// Raw result lines per request.
    lines: Vec<Vec<String>>,
    raw_s: f64,
    stats: Value,
    rss_kib: f64,
    jobs: usize,
}

impl Inputs {
    fn text_of(&self, i: usize) -> &str {
        match &self.requests[i] {
            Req::Unique(t) => t,
            Req::Resubmit(j) => self.text_of(*j),
            Req::Prefix(_) => &self.prefix_text,
            Req::Batch(_) => unreachable!("batches are never resubmitted"),
        }
    }

    fn constraints_of(&self, i: usize) -> Constraints {
        match &self.requests[i] {
            Req::Prefix(area) => Constraints::none()
                .with_max_delay(self.prefix_delay)
                .with_max_area(*area),
            _ => Constraints::none(),
        }
    }

    /// One closed-loop pass over the stream against `daemon`.
    fn soak(
        &self,
        daemon: &ServerHandle,
        norm: &mut Normalizer,
        mut trace_sink: Option<&mut SelfTimes>,
    ) -> Result<Pass, String> {
        let err = |e: milo_serve::ClientError| format!("client: {e}");
        let mut client = Client::connect(daemon.addr()).map_err(err)?;
        let opts = SubmitOptions::new();
        let rss_before = layers::proc_status_kib("VmRSS");
        let mut pass = Pass {
            lat_ms: Vec::with_capacity(self.requests.len()),
            submit_ms: Vec::with_capacity(self.requests.len()),
            result_ms: Vec::with_capacity(self.requests.len()),
            lines: Vec::with_capacity(self.requests.len()),
            raw_s: 0.0,
            stats: Value::Null,
            rss_kib: 0.0,
            jobs: 0,
        };
        norm.reopen();
        for block in (0..self.requests.len()).collect::<Vec<_>>().chunks(BLOCK) {
            let mut raw = Vec::with_capacity(block.len());
            for &i in block {
                let t0 = Instant::now();
                let ids = {
                    let _span = trace::span("bench.op:submit");
                    match &self.requests[i] {
                        Req::Batch(texts) => {
                            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
                            client.submit_batch(&refs, &Constraints::none(), &opts)
                        }
                        _ => client
                            .submit_with(self.text_of(i), &self.constraints_of(i), &opts)
                            .map(|id| vec![id]),
                    }
                    .map_err(err)?
                };
                let t1 = Instant::now();
                let lines = {
                    let _span = trace::span("bench.op:result");
                    ids.iter()
                        .map(|&id| client.result_raw(id))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(err)?
                };
                let t2 = Instant::now();
                pass.jobs += lines.len();
                pass.lines.push(lines);
                raw.push((t2 - t0, t1 - t0, t2 - t1));
            }
            let factor = norm.close();
            for (lat, sub, res) in raw {
                pass.raw_s += lat.as_secs_f64();
                pass.lat_ms.push(lat.as_secs_f64() * 1e3 * factor);
                pass.submit_ms.push(sub.as_secs_f64() * 1e3 * factor);
                pass.result_ms.push(res.as_secs_f64() * 1e3 * factor);
            }
            if let Some(sink) = trace_sink.as_deref_mut() {
                sink.drain();
                norm.reopen();
            }
        }
        pass.rss_kib = layers::proc_status_kib("VmRSS") - rss_before;
        pass.stats = client.stats().map_err(err)?;
        Ok(pass)
    }
}

/// Synthesizes a request's design text offline and checks that the
/// service answered with the same structure, and that the structure is
/// equivalent to the unoptimized elaboration.
fn offline_check(
    text: &str,
    constraints: &Constraints,
    hash: &str,
    seed: u64,
) -> Result<(), String> {
    let nl = parse_netlist(text).map_err(|e| format!("design text does not parse: {e}"))?;
    let out = flows::synthesize(&nl, constraints)?;
    let offline = format!("{:#018x}", out.report.result_hash.unwrap_or(0));
    if offline != hash {
        return Err(format!("service hash {hash} != offline hash {offline}"));
    }
    flows::check(&nl, &out, seed)
}

fn num(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_f64).unwrap_or(0.0)
}

/// Per-request verdicts plus what the outputs carry.
#[derive(Default)]
struct Verified {
    ok: u64,
    area: Vec<f64>,
    delay: Vec<f64>,
    applied: BTreeMap<String, f64>,
    tiers: BTreeMap<String, u64>,
}

fn verify(inputs: &Inputs, pass: &Pass, seed: u64) -> Verified {
    let mut v = Verified::default();
    let mut seen = BTreeSet::new();
    // First answer per request: (hash, result object), for resubmits.
    let mut answers: Vec<Option<(String, Value)>> = Vec::with_capacity(pass.lines.len());
    for (i, lines) in pass.lines.iter().enumerate() {
        let mut check = || -> Result<(String, Value), String> {
            let mut first = None;
            for (m, line) in lines.iter().enumerate() {
                let r = milo_serve::parse_json(line).map_err(|e| format!("bad json: {e}"))?;
                if r.get("state").and_then(Value::as_str) != Some("done") {
                    return Err(format!("not done: {line}"));
                }
                let tier = r.get("cache").and_then(Value::as_str).unwrap_or("?");
                *v.tiers.entry(tier.to_owned()).or_insert(0) += 1;
                let out = r.get("output").ok_or("no output")?;
                let result = out.get("result").ok_or("no result")?;
                let flow = out.get("flow").ok_or("no flow report")?;
                if num(result.get("violations")) != 0.0 {
                    return Err(format!("violations in {line}"));
                }
                if flow.get("degraded").and_then(Value::as_bool) != Some(false) {
                    return Err("degraded flow".to_owned());
                }
                let hash = flow
                    .get("structural_hash")
                    .and_then(Value::as_str)
                    .ok_or("no structural hash")?
                    .to_owned();
                let design = result.get("design").and_then(Value::as_str).unwrap_or("");
                if seen.insert(design.to_owned()) {
                    let (s, b) = (result.get("stats"), result.get("baseline"));
                    let ratio =
                        |k: &str| num(s.and_then(|s| s.get(k))) / num(b.and_then(|b| b.get(k)));
                    v.area.push(ratio("area"));
                    v.delay.push(ratio("delay"));
                }
                if tier == "miss" || tier == "prefix-hit" {
                    for p in flow.get("passes").and_then(Value::as_array).unwrap_or(&[]) {
                        let name = p.get("name").and_then(Value::as_str).unwrap_or("?");
                        *v.applied.entry(name.to_owned()).or_insert(0.0) +=
                            num(p.get("rules_applied"));
                    }
                }
                if inputs.sampled[i] {
                    let (text, constraints) = match &inputs.requests[i] {
                        Req::Batch(texts) => (texts[m].as_str(), Constraints::none()),
                        _ => (inputs.text_of(i), inputs.constraints_of(i)),
                    };
                    offline_check(text, &constraints, &hash, seed)?;
                }
                first.get_or_insert((hash, result.clone()));
            }
            let first = first.ok_or("no answer")?;
            if let Req::Resubmit(j) = inputs.requests[i] {
                match &answers[j] {
                    Some(orig) if *orig == first => {}
                    _ => return Err(format!("resubmission of request {j} answered differently")),
                }
            }
            Ok(first)
        };
        match check() {
            Ok(a) => {
                v.ok += 1;
                answers.push(Some(a));
            }
            Err(e) => {
                println!("FAILED request {i}: {e}");
                answers.push(None);
            }
        }
    }
    v
}

/// Runs the soak and fills `outcome`.
pub fn run(
    inputs: &Inputs,
    spec: &Spec,
    setup_s: f64,
    norm: &mut Normalizer,
    outcome: &mut Outcome,
) {
    let (seed, traced) = (spec.seed, spec.traced);
    let n = inputs.requests.len();
    let kinds = inputs.requests.iter().fold([0usize; 4], |mut k, r| {
        k[match r {
            Req::Unique(_) => 0,
            Req::Resubmit(_) => 1,
            Req::Prefix(_) => 2,
            Req::Batch(_) => 3,
        }] += 1;
        k
    });
    println!(
        "stream: {n} requests: {} unique two/three-gate designs, {} exact resubmissions, \
         {} constraint variants of {}, {} batches of 4",
        kinds[0], kinds[1], kinds[2], inputs.prefix_call, kinds[3]
    );
    let untraced = match inputs.soak(&inputs.daemon, norm, None) {
        Ok(p) => p,
        Err(e) => {
            println!("FAILED soak: {e}");
            outcome.attempted = n as u64;
            outcome.failed = n as u64;
            return;
        }
    };
    let mut traced_pass = None;
    let mut self_times = SelfTimes::default();
    let mut counters = Counters::default();
    if traced {
        let run = daemon().and_then(|d| {
            trace::set_enabled(true);
            let before = Counters::read();
            let p = inputs.soak(&d, norm, Some(&mut self_times));
            counters = Counters::read().since(&before);
            trace::set_enabled(false);
            self_times.drain();
            p
        });
        match run {
            Ok(p) => traced_pass = Some(p),
            Err(e) => println!("FAILED traced soak: {e}"),
        }
    }

    if traced {
        trace::set_enabled(true);
    }
    let checked = traced_pass.as_ref().unwrap_or(&untraced);
    let v = verify(inputs, checked, seed);
    if traced {
        trace::set_enabled(false);
        self_times.drain();
    }
    outcome.attempted = n as u64;
    outcome.failed = n as u64 - v.ok + u64::from(traced && traced_pass.is_none());
    println!("answers by cache tier: {:?}", v.tiers);
    println!(
        "{}",
        stats::describe_tail("job_ms (one job = one request)", &untraced.lat_ms)
    );

    let flow_s: f64 = untraced.lat_ms.iter().sum::<f64>() / 1e3;
    outcome.set("setup_s", setup_s);
    outcome.set("flow_s", flow_s);
    outcome.set("job_ms.p50", stats::median(&untraced.lat_ms));
    outcome.set("job_ms.p99", stats::percentile(&untraced.lat_ms, 99.0));
    outcome.set("jobs_per_s", n as f64 / flow_s);
    outcome.set("qor.area_ratio", stats::geomean(&v.area));
    outcome.set("qor.delay_ratio", stats::geomean(&v.delay));
    outcome.set("ok_ratio", v.ok as f64 / n as f64);
    outcome.set("peak_rss_mib", layers::proc_status_kib("VmHWM") / 1024.0);

    let Some(t) = traced_pass else { return };
    let hist = t.stats.get("histograms");
    let pass_hist = hist.and_then(|h| h.get("passes"));
    // Server-side times scale by the traced soak's own host factor.
    let traced_s: f64 = t.lat_ms.iter().sum::<f64>() / 1e3;
    let factor = traced_s / t.raw_s;
    // Only the standard passes count as flow work; the prefix tier's
    // capture and restore passes are service overhead, like snapshot,
    // absorb, serialization and cache stores, and land in the rest.
    let mut pass_total_s = 0.0;
    if let Some(Value::Obj(members)) = pass_hist {
        for (name, h) in members {
            if PASSES.contains(&name.as_str()) {
                let s = num(h.get("sum")) / 1e9 * factor;
                pass_total_s += s;
                outcome.set(format!("pass_s.{name}"), s);
            }
        }
    }
    let (job_us, job_count) = self_times.total("job");
    let exec_s = job_us / 1e6 * factor;
    for p in PASSES {
        outcome.values.entry(format!("pass_s.{p}")).or_insert(0.0);
        outcome.set(
            format!("pass_applied.{p}"),
            v.applied.get(p).copied().unwrap_or(0.0),
        );
    }
    outcome.set("pass_s.rest", exec_s - pass_total_s);
    for (k, val) in &counters.0 {
        outcome.set(*k, *val);
    }
    outcome.set("serve.submit_ms.p50", stats::median(&t.submit_ms));
    outcome.set("serve.result_ms.p50", stats::median(&t.result_ms));
    outcome.set(
        "serve.queue_wait_ms.p50",
        num(hist
            .and_then(|h| h.get("queue_wait"))
            .and_then(|q| q.get("normal"))
            .and_then(|q| q.get("p50")))
            / 1e6
            * factor,
    );
    let jobs = job_count.max(1) as f64;
    let exec_ms = exec_s * 1e3 / jobs;
    let pass_ms = pass_total_s * 1e3 / jobs;
    outcome.set("serve.exec_ms.mean", exec_ms);
    outcome.set("serve.pass_ms.mean", pass_ms);
    outcome.set("serve.rest_ms.mean", exec_ms - pass_ms);
    let cache = t.stats.get("cache");
    outcome.set(
        "serve.hit_ratio",
        num(cache.and_then(|c| c.get("hit_rate"))),
    );
    outcome.set(
        "serve.prefix_hits",
        num(cache.and_then(|c| c.get("prefix_hits"))),
    );
    outcome.set(
        "serve.evictions",
        num(cache.and_then(|c| c.get("evictions"))),
    );
    // A legacy key: reported while the daemon still offers it.
    match t.stats.get("shard_sizes").and_then(Value::as_array) {
        Some(sizes) => outcome.set(
            "serve.store_designs",
            sizes.iter().map(|s| num(Some(s))).sum::<f64>(),
        ),
        None => println!("serve.store_designs: absent (the daemon reports no shard_sizes)"),
    }
    outcome.set("serve.rss_kib_per_job", t.rss_kib / t.jobs.max(1) as f64);
    outcome.set("trace.overhead_ratio", traced_s / flow_s);
    println!(
        "accounting: {job_count} jobs, daemon exec {exec_s:.4} s = passes {pass_total_s:.4} s \
         + rest {:.4} s",
        exec_s - pass_total_s
    );
    crate::finish_trace(&self_times, "serve_soak", seed);
}
