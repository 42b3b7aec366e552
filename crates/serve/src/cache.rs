//! Fingerprint-keyed result caching.
//!
//! One tier, keyed off the netlist's structural fingerprint
//! ([`milo_netlist::structural_hash`]) extended with the full
//! constraint set ([`Constraints::cache_summary`]) via the FNV-1a
//! chain. A hit means an identical job already ran: the stored
//! [`FlowOutput`] JSON is returned verbatim and no passes execute.
//! Covering constraints in the key is load-bearing — two jobs
//! differing only in `max_delay` must not alias.
//!
//! # Bounded memory
//!
//! Entries live under one byte budget ([`ResultCache::bounded`]), each
//! charged its stored response bytes plus a fixed overhead, less the
//! digits the flow report spends on wall-clock times
//! ([`FlowReport::wall_clock_digits`](milo_core::FlowReport::wall_clock_digits)).
//! When the resident total exceeds the budget, the least-recently-used
//! entry is evicted. Eviction never changes response bytes: an evicted
//! job re-runs the flow, and determinism makes the rerun byte-identical
//! to the original.

use milo_core::netlist::{fnv1a, structural_hash, Netlist};
use milo_core::{Constraints, FlowOutput};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: structure ⊕ full constraint rendering.
pub fn job_key(nl: &Netlist, constraints: &Constraints) -> u64 {
    let h = fnv1a(structural_hash(nl), b"|constraints|");
    fnv1a(h, constraints.cache_summary().as_bytes())
}

/// A finished job's wire payload: the `FlowOutput` JSON exactly as the
/// first run rendered it, plus the result fingerprint for cheap
/// identity checks.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// `FlowOutput::to_json()` of the original run, spliced verbatim
    /// into cache-hit responses.
    pub json: String,
    /// `structural_hash` of the result netlist.
    pub result_hash: Option<u64>,
    /// Bytes of `json` the cache does not charge: the report's
    /// wall-clock digits beyond one per field.
    pub wall_clock_digits: usize,
}

impl CachedResult {
    /// The payload of a finished run.
    pub fn new(output: &FlowOutput) -> Self {
        Self {
            json: output.to_json(),
            result_hash: output.report.result_hash,
            wall_clock_digits: output.report.wall_clock_digits(),
        }
    }
}

/// Fixed bookkeeping charged per cache entry on top of its payload.
const ENTRY_OVERHEAD: usize = 64;

/// The bytes a payload is charged: [`ENTRY_OVERHEAD`] plus its JSON,
/// less its wall-clock digits, as if every wall time read `0`. The
/// response keeps its real times, but charging them would make
/// evictions, and with them later hits, depend on host speed.
fn charge(payload: &CachedResult) -> usize {
    ENTRY_OVERHEAD + payload.json.len() - payload.wall_clock_digits
}

/// One resident entry.
struct Slot {
    val: Arc<CachedResult>,
    bytes: usize,
    tick: u64,
}

/// Everything that moves together under the cache lock: the entry map,
/// its recency order, and the byte accounting.
struct Inner {
    entries: HashMap<u64, Slot>,
    /// tick → key, oldest first. Ticks are unique, so this is an exact
    /// recency order.
    lru: BTreeMap<u64, u64>,
    tick: u64,
    resident: usize,
}

/// The in-memory result map behind one lock, with an optional byte
/// budget.
pub struct ResultCache {
    inner: Mutex<Inner>,
    /// `usize::MAX` means unbounded (the pre-v1.1 behavior).
    budget: usize,
    evictions: AtomicU64,
}

/// A point-in-time snapshot of the cache's storage counters — what the
/// `stats` response reports under `"cache"` (alongside the outcome
/// counters the server's `Metrics` tracks).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Bytes resident in memory (size-accounted).
    pub resident_bytes: usize,
    /// Entries resident in memory.
    pub exact_entries: usize,
    /// Entries dropped from memory by the LRU budget.
    pub evictions: u64,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultCache {
    /// An unbounded cache.
    pub fn new() -> Self {
        Self::bounded(None)
    }

    /// A cache with an optional byte `budget` (`None` = unbounded).
    pub fn bounded(budget: Option<usize>) -> Self {
        Self {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                resident: 0,
            }),
            budget: budget.unwrap_or(usize::MAX),
            evictions: AtomicU64::new(0),
        }
    }

    /// The stored payload for `key`, marked most recently used.
    pub fn lookup(&self, key: u64) -> Option<Arc<CachedResult>> {
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        let slot = inner.entries.get_mut(&key)?;
        inner.tick += 1;
        let old = std::mem::replace(&mut slot.tick, inner.tick);
        inner.lru.remove(&old);
        inner.lru.insert(inner.tick, key);
        Some(slot.val.clone())
    }

    /// Stores a finished job's payload under its key, then evicts
    /// least-recently-used entries until the budget holds.
    pub fn store(&self, key: u64, payload: Arc<CachedResult>) {
        let bytes = charge(&payload);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.insert(
            key,
            Slot {
                val: payload,
                bytes,
                tick,
            },
        ) {
            // Racing stores of the same key carry identical bytes;
            // only the accounting needs reconciling.
            inner.lru.remove(&old.tick);
            inner.resident -= old.bytes;
        }
        inner.lru.insert(tick, key);
        inner.resident += bytes;
        // Evict least-recently-used entries until the resident total
        // fits the budget (or nothing is left — a single over-budget
        // entry is stored, served once, and immediately dropped).
        while inner.resident > self.budget {
            let Some((_, victim)) = inner.lru.pop_first() else {
                break;
            };
            let freed = inner.entries.remove(&victim).map_or(0, |s| s.bytes);
            inner.resident -= freed;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            milo_trace::instant("cache.evict");
        }
    }

    /// Snapshot of every storage counter, for `stats`.
    pub fn stats(&self) -> CacheStats {
        let (resident_bytes, exact_entries) = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            (inner.resident, inner.entries.len())
        };
        CacheStats {
            resident_bytes,
            exact_entries,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn toy(name: &str, nets: usize) -> Netlist {
        let mut nl = Netlist::new(name);
        for i in 0..nets {
            nl.add_net(format!("n{i}"));
        }
        nl
    }

    fn payload(json: &str) -> Arc<CachedResult> {
        Arc::new(CachedResult {
            json: json.to_owned(),
            result_hash: Some(7),
            wall_clock_digits: 0,
        })
    }

    /// The regression the exact key exists for: identical structure,
    /// different constraints, distinct keys. Before constraints were
    /// folded in, these aliased and a cached answer for one delay
    /// budget was served for another.
    #[test]
    fn job_key_covers_constraints() {
        let nl = toy("t", 3);
        let loose = Constraints::none().with_max_delay(9.0);
        let tight = Constraints::none().with_max_delay(4.5);
        assert_ne!(job_key(&nl, &loose), job_key(&nl, &tight));
        assert_ne!(
            job_key(&nl, &Constraints::none()),
            job_key(&nl, &Constraints::none().with_max_area(50.0)),
            "area-only difference still diverges"
        );
        assert_eq!(job_key(&nl, &loose), job_key(&nl, &loose), "deterministic");
    }

    #[test]
    fn job_key_covers_structure() {
        let c = Constraints::none();
        assert_ne!(job_key(&toy("t", 3), &c), job_key(&toy("t", 4), &c));
        assert_ne!(job_key(&toy("t", 3), &c), job_key(&toy("u", 3), &c));
    }

    #[test]
    fn cache_tiers_store_and_return() {
        let cache = ResultCache::new();
        assert!(cache.lookup(1).is_none());
        cache.store(1, payload("{}"));
        let got = cache.lookup(1).expect("stored entry returns");
        assert_eq!(got.result_hash, Some(7));
        let stats = cache.stats();
        assert_eq!(stats.exact_entries, 1);
        assert!(stats.resident_bytes > 0);
    }

    /// Two runs of one job differ only in their wall times, so they
    /// are charged the same, whatever the host's speed.
    #[test]
    fn charge_ignores_wall_times() {
        let nl = milo_circuits::random_control(40, 6, 3);
        let mut milo = milo_core::Milo::new(milo_techmap::ecl_library());
        let mut flow = milo.flow();
        let mut out = flow
            .run(&mut milo, &nl, &Constraints::none())
            .expect("the flow runs");
        let mut with_walls = |total: Duration, pass: Duration| {
            out.report.total_wall = total;
            for p in &mut out.report.passes {
                p.wall = pass;
            }
            CachedResult::new(&out)
        };
        let fast = with_walls(Duration::from_nanos(7), Duration::from_nanos(3));
        let slow = with_walls(Duration::from_secs(12_345), Duration::from_millis(987_654));
        // Charged as the same run with every wall time reading 0.
        let zeroed = with_walls(Duration::ZERO, Duration::ZERO);
        assert!(slow.json.len() > fast.json.len());
        assert_eq!(charge(&slow), charge(&fast));
        assert_eq!(zeroed.wall_clock_digits, 0);
        assert_eq!(charge(&fast), ENTRY_OVERHEAD + zeroed.json.len());
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        // Each entry costs ENTRY_OVERHEAD + 100 bytes; budget fits two.
        let body = "x".repeat(100);
        let cache = ResultCache::bounded(Some(2 * (ENTRY_OVERHEAD + 100)));
        cache.store(1, payload(&body));
        cache.store(2, payload(&body));
        assert_eq!(cache.stats().exact_entries, 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(1).is_some());
        cache.store(3, payload(&body));
        assert!(cache.lookup(2).is_none(), "LRU entry evicted");
        assert!(cache.lookup(1).is_some(), "recently-touched survives");
        assert!(cache.lookup(3).is_some(), "newest survives");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.resident_bytes <= 2 * (ENTRY_OVERHEAD + 100));
    }

    #[test]
    fn zero_budget_keeps_nothing_resident() {
        let cache = ResultCache::bounded(Some(0));
        cache.store(5, payload("{\"z\": 0}"));
        assert!(cache.lookup(5).is_none(), "nothing stays resident");
        let stats = cache.stats();
        assert_eq!(stats.exact_entries, 0);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.evictions, 1);
    }
}
