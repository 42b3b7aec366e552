//! Per-layer attribution from the benchmark's side of the API: counter
//! deltas of the global metrics registry, a pass wrapper that times each
//! pass of the standard flow in place, and self time per span name from
//! the drained Chrome trace.

use milo_core::trace::Registry;
use milo_core::{FlowContext, MiloError, Pass, PassReport};
use milo_serve::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Global-registry counters the engine, STA, and pool record into; each
/// is reported under its registry name.
const COUNTERS: [&str; 7] = [
    "engine.rewrites",
    "engine.match_repairs",
    "engine.sweeps",
    "sta.refreshes",
    "sta.full_rebuilds",
    "par.jobs",
    "par.steals",
];

/// A point-in-time copy of the registry values the benchmark reports.
#[derive(Clone, Debug, Default)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    /// Reads the global registry now.
    pub fn read() -> Self {
        let reg = Registry::global();
        let mut m = BTreeMap::new();
        for name in COUNTERS {
            m.insert(name, reg.counter(name).get() as f64);
        }
        m.insert(
            "engine.repair_s",
            reg.histogram("engine.repair_ns").sum() as f64 / 1e9,
        );
        Self(m)
    }

    /// `self - earlier`, per metric.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (*k, v - earlier.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    /// Adds `other` into `self`, per metric.
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k).or_insert(0.0) += v;
        }
    }
}

/// Wall time of each wrapped pass, in execution order.
pub type PassLog = Arc<Mutex<Vec<(String, Duration)>>>;

/// Wraps one pass: a benchmark-owned span plus a wall-time record.
struct TimedPass {
    inner: Box<dyn Pass>,
    span: String,
    log: PassLog,
}

impl Pass for TimedPass {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        let _span = milo_core::trace::span(&self.span);
        let start = Instant::now();
        let out = self.inner.run(ctx);
        self.log
            .lock()
            .expect("pass log lock is never held across a panic")
            .push((self.inner.name().to_owned(), start.elapsed()));
        out
    }
}

/// Wraps every pass of `flow` in place: each is removed and pushed back
/// behind a timing wrapper, in the original order, so the traced flow
/// follows whatever passes the standard flow holds.
pub fn instrument(flow: &mut milo_core::Flow) -> PassLog {
    let log = PassLog::default();
    let names: Vec<String> = flow.pass_names().iter().map(|s| s.to_string()).collect();
    for name in names {
        let inner = flow.remove(&name).expect("name was just listed");
        flow.push(TimedPass {
            span: format!("bench.pass:{name}"),
            inner,
            log: log.clone(),
        });
    }
    log
}

/// Accumulates self time per span name across successive trace drains.
/// Spans may open in one drain and close in the next, so the per-thread
/// stacks persist between [`SelfTimes::absorb`] calls.
#[derive(Default)]
pub struct SelfTimes {
    /// Per thread: open spans as (name, begin µs, child µs).
    stacks: BTreeMap<u64, Vec<(String, f64, f64)>>,
    /// Per grouped name: (self µs, total µs, count).
    pub by_name: BTreeMap<String, (f64, f64, u64)>,
    /// Every drained event, for the trace file.
    events: Vec<String>,
    /// Events the rings overwrote before a drain (cumulative).
    pub dropped: u64,
}

/// Groups per-id span names (`job:17`, `flow:ctrl2_5`) under their
/// prefix so the self-time table stays one row per layer.
fn group(name: &str) -> String {
    for prefix in ["job:", "flow:"] {
        if name.starts_with(prefix) {
            return prefix.trim_end_matches(':').to_owned();
        }
    }
    name.to_owned()
}

impl SelfTimes {
    /// Drains the process's trace rings and folds the events in.
    pub fn drain(&mut self) {
        let json = milo_core::trace::drain_chrome_json();
        self.absorb(&json);
    }

    /// Folds one drained Chrome trace object in.
    pub fn absorb(&mut self, json: &str) {
        let Ok(v) = milo_serve::parse_json(json) else {
            return;
        };
        if let Some(d) = v
            .get("otherData")
            .and_then(|o| o.get("droppedEvents"))
            .and_then(Value::as_u64)
        {
            self.dropped = self.dropped.max(d);
        }
        let Some(events) = v.get("traceEvents").and_then(Value::as_array) else {
            return;
        };
        for ev in events {
            self.events.push(ev.to_string());
            let ph = ev.get("ph").and_then(Value::as_str).unwrap_or("");
            let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
            let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(0);
            let ts = ev.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
            match ph {
                "B" => self
                    .stacks
                    .entry(tid)
                    .or_default()
                    .push((name.to_owned(), ts, 0.0)),
                "E" => {
                    let stack = self.stacks.entry(tid).or_default();
                    // An end whose begin was overwritten in the ring has
                    // no frame to close.
                    if stack.last().is_some_and(|(n, _, _)| n == name) {
                        let (n, begin, child) = stack.pop().expect("checked non-empty");
                        let dur = (ts - begin).max(0.0);
                        if let Some(parent) = stack.last_mut() {
                            parent.2 += dur;
                        }
                        self.record(&n, dur, child);
                    }
                }
                "X" => {
                    let dur = ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
                    // Completes are leaves recorded after the fact; they
                    // are charged to the enclosing open span, if any.
                    if let Some(parent) = self.stacks.entry(tid).or_default().last_mut() {
                        parent.2 += dur;
                    }
                    self.record(name, dur, 0.0);
                }
                _ => {}
            }
        }
    }

    fn record(&mut self, name: &str, dur_us: f64, child_us: f64) {
        let e = self.by_name.entry(group(name)).or_insert((0.0, 0.0, 0));
        e.0 += (dur_us - child_us).max(0.0);
        e.1 += dur_us;
        e.2 += 1;
    }

    /// Total duration (µs) and count of closed spans grouped as `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.by_name
            .get(name)
            .map_or((0.0, 0), |&(_, total, n)| (total, n))
    }

    /// The self-time table, largest first, one line per span name.
    pub fn table(&self) -> Vec<String> {
        let mut rows: Vec<(&String, &(f64, f64, u64))> = self.by_name.iter().collect();
        rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
        rows.into_iter()
            .map(|(name, (own, total, n))| {
                format!(
                    "self {:>12.3} ms  total {:>12.3} ms  n {:>7}  {name}",
                    own / 1e3,
                    total / 1e3,
                    n
                )
            })
            .collect()
    }

    /// Writes every drained event as one Chrome trace file.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("{\"traceEvents\": [");
        out.push_str(&self.events.join(",\n"));
        out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
        std::fs::write(path, out)
    }
}

/// A `/proc/self/status` field in KiB (`VmHWM`, `VmRSS`); 0 where the
/// file does not exist.
pub fn proc_status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_across_drains() {
        let mut st = SelfTimes::default();
        st.absorb(
            r#"{"traceEvents": [
                {"ph": "B", "tid": 1, "ts": 0.0, "name": "flow:d"},
                {"ph": "B", "tid": 1, "ts": 10.0, "name": "pass:a"},
                {"ph": "X", "tid": 1, "ts": 12.0, "dur": 5.0, "name": "par.busy"},
                {"ph": "E", "tid": 1, "ts": 40.0, "name": "pass:a"}
            ]}"#,
        );
        st.absorb(
            r#"{"traceEvents": [
                {"ph": "E", "tid": 1, "ts": 100.0, "name": "flow:d"},
                {"ph": "E", "tid": 2, "ts": 5.0, "name": "orphan"}
            ], "otherData": {"droppedEvents": 3}}"#,
        );
        assert_eq!(st.by_name["flow"], (70.0, 100.0, 1));
        assert_eq!(st.by_name["pass:a"], (25.0, 30.0, 1));
        assert_eq!(st.by_name["par.busy"], (5.0, 5.0, 1));
        assert!(!st.by_name.contains_key("orphan"));
        assert_eq!(st.total("flow"), (100.0, 1));
        assert_eq!(st.dropped, 3);
        assert_eq!(st.table().len(), 3);
    }

    #[test]
    fn instrument_keeps_pass_order() {
        let mut flow = milo_core::Flow::standard();
        let before: Vec<String> = flow.pass_names().iter().map(|s| s.to_string()).collect();
        let _log = instrument(&mut flow);
        let after: Vec<String> = flow.pass_names().iter().map(|s| s.to_string()).collect();
        assert_eq!(before, after);
    }
}
