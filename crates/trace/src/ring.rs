//! Per-thread lock-free event rings and the Chrome-trace drain.
//!
//! Each thread that emits while tracing is enabled lazily registers
//! one [`ThreadRing`]: a power-of-two array of slots written only by
//! the owning thread and read by whoever drains. Every slot is a
//! word-packed event guarded by a per-slot sequence number — the
//! writer publishes `2*index + 1` (odd: mid-write), stores the packed
//! words, then publishes `2*index + 2` (even: valid); a reader
//! re-checks the sequence after copying the words and discards the
//! slot on mismatch. All accesses are plain atomics, so a racing
//! overwrite costs a dropped event, never undefined behavior.
//!
//! When the ring wraps, the oldest undrained events are overwritten
//! and counted (surfaced as `droppedEvents` in the drain output) —
//! tracing never blocks or grows without bound.

use crate::JsonWriter;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events retained per thread. At ~104 bytes a slot this is ~426 KiB
/// per emitting thread — enough for thousands of flow/pass spans, and
/// the bound that lets emission never block.
const RING_CAP: usize = 4096;

/// Span / event names are copied inline (no allocation, no lifetime
/// coupling); longer names truncate on a UTF-8 boundary.
const TEXT_MAX: usize = 40;
/// Same, for the free-form detail string of instant events.
const ARG_MAX: usize = 32;

/// Words per packed event: header, ts, dur, 5×text, 4×arg.
const EVENT_WORDS: usize = 12;

const KIND_BEGIN: u8 = 0;
const KIND_END: u8 = 1;
const KIND_INSTANT: u8 = 2;
const KIND_COMPLETE: u8 = 3;

/// One decoded event (the unpacked form of a slot).
#[derive(Clone, Copy)]
struct RawEvent {
    kind: u8,
    text_len: u8,
    arg_len: u8,
    ts_ns: u64,
    dur_ns: u64,
    text: [u8; TEXT_MAX],
    arg: [u8; ARG_MAX],
}

impl RawEvent {
    fn new(kind: u8, name: &str) -> Self {
        let mut ev = Self {
            kind,
            text_len: 0,
            arg_len: 0,
            ts_ns: now_ns(),
            dur_ns: 0,
            text: [0; TEXT_MAX],
            arg: [0; ARG_MAX],
        };
        ev.text_len = copy_truncated(name, &mut ev.text);
        ev
    }

    fn name(&self) -> &str {
        str_prefix(&self.text, self.text_len)
    }

    fn arg(&self) -> &str {
        str_prefix(&self.arg, self.arg_len)
    }
}

/// Copies `s` into `dst`, truncating on a char boundary; returns the
/// copied length.
fn copy_truncated(s: &str, dst: &mut [u8]) -> u8 {
    let mut end = s.len().min(dst.len());
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    dst[..end].copy_from_slice(&s.as_bytes()[..end]);
    end as u8
}

/// The stored prefix as `&str`. Torn reads (writer lapped the reader
/// mid-copy) can leave arbitrary bytes, so this validates rather than
/// trusts — invalid UTF-8 degrades to an empty name.
fn str_prefix(buf: &[u8], len: u8) -> &str {
    let end = (len as usize).min(buf.len());
    std::str::from_utf8(&buf[..end]).unwrap_or("")
}

fn pack(ev: &RawEvent) -> [u64; EVENT_WORDS] {
    let mut w = [0u64; EVENT_WORDS];
    w[0] = u64::from(ev.kind) | u64::from(ev.text_len) << 8 | u64::from(ev.arg_len) << 16;
    w[1] = ev.ts_ns;
    w[2] = ev.dur_ns;
    for (i, chunk) in ev.text.chunks_exact(8).enumerate() {
        w[3 + i] = u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8]));
    }
    for (i, chunk) in ev.arg.chunks_exact(8).enumerate() {
        w[8 + i] = u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8]));
    }
    w
}

fn unpack(w: &[u64; EVENT_WORDS]) -> RawEvent {
    let mut ev = RawEvent {
        kind: (w[0] & 0xff) as u8,
        text_len: (w[0] >> 8 & 0xff) as u8,
        arg_len: (w[0] >> 16 & 0xff) as u8,
        ts_ns: w[1],
        dur_ns: w[2],
        text: [0; TEXT_MAX],
        arg: [0; ARG_MAX],
    };
    for (i, chunk) in ev.text.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&w[3 + i].to_le_bytes());
    }
    for (i, chunk) in ev.arg.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&w[8 + i].to_le_bytes());
    }
    ev
}

/// One slot: a sequence guard plus the packed event words.
struct Slot {
    /// `0` = never written; `2n+1` = event `n` mid-write;
    /// `2n+2` = event `n` valid.
    seq: AtomicU64,
    words: [AtomicU64; EVENT_WORDS],
}

impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One thread's event ring. Only the owning thread writes; any thread
/// may drain.
struct ThreadRing {
    tid: u64,
    name: String,
    slots: Box<[Slot]>,
    /// Total events ever written by this thread (monotone).
    head: AtomicU64,
    /// Drain watermark: events below this index were already exported.
    drained: AtomicU64,
    /// Undrained events lost to ring wrap.
    dropped: AtomicU64,
}

// Slots hold only atomics; the Box/Strings are written once at
// registration. Sharing across threads is the whole point.
impl ThreadRing {
    fn register() -> Arc<Self> {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{tid}"));
        let ring = Arc::new(Self {
            tid,
            name,
            slots: (0..RING_CAP).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        });
        registry()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ring.clone());
        ring
    }

    /// Owner-thread-only append.
    fn push(&self, ev: RawEvent) {
        let idx = self.head.load(Ordering::Relaxed);
        if idx >= RING_CAP as u64 && idx - RING_CAP as u64 >= self.drained.load(Ordering::Relaxed) {
            // The slot being reused still held an unexported event.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[idx as usize & (RING_CAP - 1)];
        slot.seq.store(2 * idx + 1, Ordering::Relaxed);
        for (w, v) in slot.words.iter().zip(pack(&ev)) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * idx + 2, Ordering::Release);
        self.head.store(idx + 1, Ordering::Release);
    }

    /// Snapshots and consumes everything the owner has published,
    /// discarding slots the writer lapped mid-read.
    fn drain(&self) -> Vec<RawEvent> {
        let head = self.head.load(Ordering::Acquire);
        let start = self
            .drained
            .load(Ordering::Relaxed)
            .max(head.saturating_sub(RING_CAP as u64));
        let mut out = Vec::with_capacity((head - start) as usize);
        for idx in start..head {
            let slot = &self.slots[idx as usize & (RING_CAP - 1)];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != 2 * idx + 2 {
                continue; // overwritten (or mid-overwrite) — skip
            }
            let mut words = [0u64; EVENT_WORDS];
            for (dst, w) in words.iter_mut().zip(&slot.words) {
                *dst = w.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == s1 {
                out.push(unpack(&words));
            }
        }
        self.drained.store(head, Ordering::Release);
        out
    }
}

/// All rings ever registered. Locked only at thread registration and
/// drain — never on the emit path.
fn registry() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static RING: Arc<ThreadRing> = ThreadRing::register();
}

/// The shared clock every timestamp is measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch — the timestamp base of every
/// emitted event. Pair with [`complete`] to record an interval whose
/// start predates knowing its name (e.g. a measured idle wait).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn emit(ev: RawEvent) {
    // Destructors can fire after the thread-local is torn down (e.g. a
    // SpanGuard owned by another TLS value); losing that event beats
    // panicking in a destructor.
    let _ = RING.try_with(|ring| ring.push(ev));
}

/// An active span: emitted `B` at creation, emits the matching `E`
/// when dropped. Bind it — `let _span = milo_trace::span("…");` — so
/// it lives to the end of the scope it measures.
#[must_use = "a span measures the scope it is bound to; dropping it immediately closes it"]
pub struct SpanGuard {
    armed: bool,
    text_len: u8,
    text: [u8; TEXT_MAX],
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            let mut ev = RawEvent::new(KIND_END, "");
            ev.text = self.text;
            ev.text_len = self.text_len;
            emit(ev);
        }
    }
}

/// Opens a span named `name` on the current thread. While tracing is
/// disabled this is one relaxed load, one branch, and a stack-only
/// guard — no allocation, no thread-local access, no event.
///
/// The guard closes the span even if tracing is disabled mid-span, so
/// drained output keeps begin/end pairs balanced.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if !enabled_fast() {
        return SpanGuard {
            armed: false,
            text_len: 0,
            text: [0; TEXT_MAX],
        };
    }
    let ev = RawEvent::new(KIND_BEGIN, name);
    let guard = SpanGuard {
        armed: true,
        text_len: ev.text_len,
        text: ev.text,
    };
    emit(ev);
    guard
}

#[inline]
fn enabled_fast() -> bool {
    crate::enabled()
}

/// Emits a thread-scoped instant event (a vertical tick in the
/// timeline). One branch when tracing is disabled.
#[inline]
pub fn instant(name: &str) {
    if enabled_fast() {
        emit(RawEvent::new(KIND_INSTANT, name));
    }
}

/// [`instant`] with a free-form detail string, surfaced as
/// `args.detail` in the Chrome trace. Callers formatting the detail
/// should gate on [`crate::enabled`] to keep the disabled path
/// allocation-free.
#[inline]
pub fn instant_with(name: &str, detail: &str) {
    if enabled_fast() {
        let mut ev = RawEvent::new(KIND_INSTANT, name);
        ev.arg_len = copy_truncated(detail, &mut ev.arg);
        emit(ev);
    }
}

/// Emits a complete (`X`) event spanning from `start_ns` (a prior
/// [`now_ns`] reading) to now — for intervals that should not stay
/// open across a drain, like a worker's idle wait. A `start_ns` of 0
/// (tracing was off when the interval began) is ignored.
#[inline]
pub fn complete(name: &str, start_ns: u64) {
    if enabled_fast() && start_ns > 0 {
        let mut ev = RawEvent::new(KIND_COMPLETE, name);
        ev.dur_ns = ev.ts_ns.saturating_sub(start_ns);
        ev.ts_ns = start_ns;
        emit(ev);
    }
}

/// Drains every thread's ring into one Chrome trace-event JSON object
/// (`{"traceEvents": […]}`), consuming the drained events. The output
/// loads directly in `chrome://tracing` and Perfetto: `B`/`E` pairs
/// for spans, `i` for instants, `X` for completes, plus a
/// `thread_name` metadata event per thread. Timestamps are
/// microseconds from the process trace epoch.
pub fn drain_chrome_json() -> String {
    let rings: Vec<Arc<ThreadRing>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut dropped_total = 0u64;
    crate::json_object(|w| {
        w.key("traceEvents").array(|w| {
            for ring in &rings {
                let events = ring.drain();
                dropped_total += ring.dropped.load(Ordering::Relaxed);
                if events.is_empty() {
                    continue;
                }
                let head = |w: &mut JsonWriter, ph: &str| {
                    w.field("ph", ph).field("pid", 1).field("tid", ring.tid);
                };
                w.object(|w| {
                    head(w, "M");
                    w.field("name", "thread_name").key("args").object(|w| {
                        w.field("name", &ring.name);
                    });
                });
                for ev in &events {
                    let ph = match ev.kind {
                        KIND_BEGIN => "B",
                        KIND_END => "E",
                        KIND_COMPLETE => "X",
                        _ => "i",
                    };
                    w.object(|w| {
                        head(w, ph);
                        w.field("ts", ev.ts_ns as f64 / 1000.0);
                        if ph == "X" {
                            w.field("dur", ev.dur_ns as f64 / 1000.0);
                        } else if ph == "i" {
                            w.field("s", "t");
                        }
                        w.field("name", ev.name());
                        if ph == "i" && ev.arg_len > 0 {
                            w.key("args").object(|w| {
                                w.field("detail", ev.arg());
                            });
                        }
                    });
                }
            }
        });
        w.field("displayTimeUnit", "ms")
            .key("otherData")
            .object(|w| {
                w.field("droppedEvents", dropped_total);
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span/instant tests share the process-global enabled flag and
    /// rings, so they run under one lock to stay deterministic.
    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_emits_nothing() {
        let _x = exclusive();
        crate::set_enabled(false);
        drain_chrome_json(); // flush anything older tests left behind
        for _ in 0..100 {
            let _s = span("quiet");
            instant("quiet.tick");
            complete("quiet.x", now_ns());
        }
        let json = drain_chrome_json();
        assert!(
            !json.contains("quiet"),
            "disabled path leaked events: {json}"
        );
    }

    #[test]
    fn spans_round_trip_balanced() {
        let _x = exclusive();
        crate::set_enabled(false);
        drain_chrome_json();
        crate::set_enabled(true);
        {
            let _outer = span("outer");
            let _inner = span("inner");
            instant_with("tick", "detail text");
        }
        crate::set_enabled(false);
        let json = drain_chrome_json();
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 2);
        assert!(json.contains("\"name\": \"outer\""));
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"detail\": \"detail text\""));
        assert!(json.contains("thread_name"));
    }

    #[test]
    fn span_closes_even_if_disabled_mid_flight() {
        let _x = exclusive();
        crate::set_enabled(false);
        drain_chrome_json();
        crate::set_enabled(true);
        let s = span("half");
        crate::set_enabled(false);
        drop(s);
        let json = drain_chrome_json();
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 1);
        assert_eq!(
            json.matches("\"ph\": \"E\"").count(),
            1,
            "E emitted: {json}"
        );
    }

    /// A raw U+2028 would split the drained JSON in a line-oriented
    /// reader: it drains as the six characters `\u2028`.
    #[test]
    fn line_separator_in_a_span_name_drains_escaped() {
        let _x = exclusive();
        crate::set_enabled(false);
        drain_chrome_json();
        crate::set_enabled(true);
        drop(span("line\u{2028}break"));
        crate::set_enabled(false);
        let json = drain_chrome_json();
        assert!(json.contains("\"name\": \"line\\u2028break\""), "{json}");
        assert!(!json.contains('\u{2028}'), "{json}");
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts() {
        let _x = exclusive();
        crate::set_enabled(false);
        drain_chrome_json();
        crate::set_enabled(true);
        for i in 0..(RING_CAP + 100) {
            instant(if i == 0 { "first" } else { "later" });
        }
        crate::set_enabled(false);
        let json = drain_chrome_json();
        assert!(!json.contains("\"first\""), "oldest event was overwritten");
        assert!(json.contains("\"later\""));
        assert!(!json.contains("\"droppedEvents\": 0"));
    }

    #[test]
    fn long_names_truncate_on_char_boundary() {
        let mut buf = [0u8; 10];
        let n = copy_truncated("ééééééé", &mut buf); // 2 bytes each
        assert_eq!(n, 10);
        assert_eq!(str_prefix(&buf, n), "ééééé");
        let n = copy_truncated("short", &mut buf);
        assert_eq!(str_prefix(&buf, n), "short");
    }

    #[test]
    fn pack_unpack_round_trips() {
        let mut ev = RawEvent::new(KIND_INSTANT, "some.name");
        ev.arg_len = copy_truncated("arg text", &mut ev.arg);
        ev.dur_ns = 12345;
        let back = unpack(&pack(&ev));
        assert_eq!(back.kind, KIND_INSTANT);
        assert_eq!(back.name(), "some.name");
        assert_eq!(back.arg(), "arg text");
        assert_eq!(back.ts_ns, ev.ts_ns);
        assert_eq!(back.dur_ns, 12345);
    }

    #[test]
    fn cross_thread_emission_gets_own_tid() {
        let _x = exclusive();
        crate::set_enabled(false);
        drain_chrome_json();
        crate::set_enabled(true);
        instant("from.main");
        std::thread::Builder::new()
            .name("trace-test-worker".to_owned())
            .spawn(|| {
                let _s = span("worker.task");
            })
            .expect("spawn")
            .join()
            .expect("join");
        crate::set_enabled(false);
        let json = drain_chrome_json();
        assert!(json.contains("\"from.main\""));
        assert!(json.contains("\"worker.task\""));
        assert!(json.contains("trace-test-worker"));
    }
}
