//! The core performance snapshot: times the synthesis hot paths and
//! writes `BENCH_core.json` so the perf trajectory is tracked across PRs.
//!
//! Run with `cargo run --release -p milo-bench --bin perf`. Environment:
//!
//! * `MILO_PERF_MS` — per-benchmark measurement window in milliseconds
//!   (default 300; the CI smoke run uses a smaller value);
//! * `MILO_PERF_OUT` — output path (default `BENCH_core.json`).
//!
//! Output format (`schema: milo-bench-core-v1`): a one-line JSON object
//! with the snapshot metadata and one entry per benchmark carrying the
//! mean nanoseconds per iteration and the iteration count. See
//! `docs/PERFORMANCE.md` for the format contract.
//!
//! With `--json`, the benchmarks are skipped; instead the golden designs
//! run once through the Flow API and the structured per-design
//! `{"result", "flow"}` reports (pass wall times, deltas, applied-rule
//! counts) are printed to stdout as a JSON array — the service-embedding
//! output shape.
//!
//! Tracing: `MILO_TRACE=1` (or `--trace-out <file>`, which also forces
//! tracing on) arms the `milo-trace` spans; at exit the buffered
//! events are written to `<file>` as Chrome trace-event JSON — load it
//! in Perfetto or `chrome://tracing`. Works in both the benchmark and
//! `--json` modes. See `docs/OBSERVABILITY.md`.

use milo_circuits::{abadd, fig19::circuit3, pipelined_datapath, random_control, random_logic};
use milo_core::{Constraints, Milo};
use milo_logic::{espresso, Cover, TruthTable};
use milo_netlist::{ComponentId, ComponentKind, DesignDb, Netlist, TechCell, TouchSet};
use milo_rules::{Engine, HashRuleTable, LibraryRef, RuleCtx, Selection, Tx, UndoLog};
use milo_techmap::{cmos_library, ecl_library, map_netlist, TechLibrary};
use milo_timing::{analyze, statistics, IncrementalSta};
use milo_trace::{json_object, JsonWriter};
use std::time::{Duration, Instant};

struct Snapshot {
    entries: Vec<(String, f64, u64)>,
    window: Duration,
}

impl Snapshot {
    fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Warmup + estimate.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.window / 4 || warm_iters == 0 {
            std::hint::black_box(f());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let est = warm_start.elapsed() / warm_iters.max(1) as u32;
        let iters = if est.is_zero() {
            1_000_000
        } else {
            (self.window.as_nanos() / est.as_nanos().max(1)).clamp(1, 5_000_000) as u64
        };
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let mean_ns = start.elapsed().as_nanos() as f64 / iters as f64;
        println!("{name:<32} {:>12.1} ns/iter  ({iters} iterations)", mean_ns);
        self.entries.push((name.to_owned(), mean_ns, iters));
    }

    fn to_json(&self) -> String {
        json_object(|w| {
            w.field("schema", "milo-bench-core-v1")
                .field("window_ms", self.window.as_millis())
                .key("benches")
                .array(|w| {
                    for (name, mean_ns, iters) in &self.entries {
                        w.object(|w| {
                            w.field("name", name)
                                .field("mean_ns", mean_ns)
                                .field("iters", iters);
                        });
                    }
                });
        }) + "\n"
    }
}

/// `--json` mode: the golden designs through the default flow, each
/// emitting its synthesis summary plus the structured flow report.
fn emit_flow_json() {
    let designs = [circuit3(), abadd(), random_logic(80, 10, 7)];
    let mut w = JsonWriter::default();
    w.array(|w| {
        for nl in &designs {
            let mut milo = Milo::new(ecl_library());
            let mut flow = milo.flow();
            let run = flow
                .run(&mut milo, nl, &Constraints::none())
                .expect("golden design synthesizes");
            w.raw(&run.to_json());
        }
    });
    println!("{}", w.finish());
}

/// The value following `flag` on the command line, if present.
fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Drains the buffered trace events into `path` (no-op without
/// `--trace-out`).
fn write_trace(path: Option<&str>) {
    let Some(path) = path else { return };
    std::fs::write(path, milo_trace::drain_chrome_json()).expect("writes trace");
    println!("wrote trace {path}");
}

/// The first cell at or after the `nth` component that has another
/// power-level variant, with that variant.
fn power_swap(nl: &Netlist, lib: &TechLibrary, nth: usize) -> (ComponentId, TechCell) {
    nl.component_ids()
        .skip(nth)
        .find_map(|id| {
            let ComponentKind::Tech(cell) = &nl.component(id).ok()?.kind else {
                return None;
            };
            let alt = lib
                .power_variants(cell)
                .into_iter()
                .find(|v| v.name != cell.name)?;
            Some((id, alt.clone()))
        })
        .expect("a cell with a power variant")
}

/// Applies `swap`, refreshes, undoes it and refreshes again, returning
/// the components re-evaluated (so the work cannot be optimized away).
fn swap_and_refresh(
    nl: &mut Netlist,
    inc: &mut IncrementalSta,
    (victim, alt): &(ComponentId, TechCell),
) -> u64 {
    let before = inc.incremental_props;
    let mut tx = Tx::new(nl);
    tx.change_kind(*victim, ComponentKind::Tech(alt.clone()))
        .expect("a power variant keeps the pins");
    let log = tx.commit();
    let ts = log.touch_set();
    inc.refresh(nl, &ts).expect("refreshes");
    log.undo(nl);
    inc.refresh(nl, &ts).expect("refreshes");
    inc.incremental_props - before
}

/// Up to `max` logic-critic firings of an `OpsOrder` run on `nl`: the
/// netlist before the first and after each firing, and each firing's
/// touch set.
fn recorded_firings(nl: &Netlist, lib: &TechLibrary, max: usize) -> (Vec<Netlist>, Vec<TouchSet>) {
    let mut engine = Engine::new(milo_opt::logic_rules(lib));
    engine.enable_journal();
    let mut work = nl.clone();
    let mut states = vec![work.clone()];
    while states.len() <= max && engine.run(&mut work, Selection::OpsOrder, 1) == 1 {
        states.push(work.clone());
    }
    let touch_sets = engine
        .take_journal()
        .iter()
        .map(UndoLog::touch_set)
        .collect();
    (states, touch_sets)
}

/// Times one match-index repair of the logic critic's index on `nl`.
/// The touch sets are the first `max` real firings of an `OpsOrder` run
/// on the design; the iterations replay them forward, then back newest
/// first, each against the netlist state it leads to, so the index
/// always repairs into a consistent state.
fn bench_match_repair(
    snap: &mut Snapshot,
    name: &str,
    nl: &Netlist,
    lib: &TechLibrary,
    max: usize,
) {
    let engine = Engine::new(milo_opt::logic_rules(lib));
    let (states, touch_sets) = recorded_firings(nl, lib, max);
    let firings = touch_sets.len();
    assert!(firings > 0, "the logic critic fires on the design");
    let mut index = engine.build_index(&states[0], None);
    let mut step = 0;
    snap.bench(name, || {
        let (state, ts) = if step < firings {
            (&states[step + 1], &touch_sets[step])
        } else {
            let back = 2 * firings - 1 - step;
            (&states[back], &touch_sets[back])
        };
        index.repair(
            engine.rules(),
            &RuleCtx {
                nl: state,
                sta: None,
            },
            ts,
        );
        step = (step + 1) % (2 * firings);
    });
}

fn main() {
    milo_trace::init_from_env();
    let trace_out = arg_value("--trace-out");
    if trace_out.is_some() {
        milo_trace::set_enabled(true);
    }
    if std::env::args().any(|a| a == "--json") {
        emit_flow_json();
        write_trace(trace_out.as_deref());
        return;
    }
    let window_ms = std::env::var("MILO_PERF_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    let out_path = std::env::var("MILO_PERF_OUT").unwrap_or_else(|_| "BENCH_core.json".to_owned());
    let mut snap = Snapshot {
        entries: Vec::new(),
        window: Duration::from_millis(window_ms),
    };

    // Two-level minimization (strategy 7 / SOCRATES core).
    for vars in [4u8, 5, 6] {
        let tt = TruthTable::from_fn(vars, |r| (r.count_ones() % 3) != 0);
        let cover = Cover::from_truth(&tt);
        snap.bench(&format!("espresso/minimize/{vars}"), || {
            espresso::minimize(&cover, None)
        });
    }

    // Static timing analysis, from scratch.
    for gates in [200usize, 800] {
        let nl = map_netlist(&random_logic(gates, 12, 5), &cmos_library()).expect("maps");
        snap.bench(&format!("sta/analyze/{gates}"), || {
            analyze(&nl).expect("analyzes")
        });
    }

    // Incremental STA: one real rewrite — a power-level swap, the
    // timing-area pass's staple — applied, refreshed, undone and
    // refreshed again, versus the full re-analysis above.
    {
        let lib = ecl_library();
        let mut nl = map_netlist(&random_logic(800, 12, 5), &lib).expect("maps");
        let mut inc = IncrementalSta::new(&nl).expect("analyzes");
        let swap = power_swap(&nl, &lib, 400);
        snap.bench("sta/incremental_refresh/800", || {
            swap_and_refresh(&mut nl, &mut inc, &swap)
        });
    }

    // The end-to-end Fig. 19 pipeline (through the synthesize shim —
    // the default flow with statistics sampling off).
    snap.bench("fig19_circuit3_pipeline", || {
        let mut milo = Milo::new(ecl_library());
        milo.synthesize(&circuit3(), &Constraints::none())
            .expect("synthesizes")
    });

    // The same pipeline through the observable Flow API, per-pass
    // statistics sampling on: the report-carrying service path.
    snap.bench("flow/report/fig19_c3", || {
        let mut milo = Milo::new(ecl_library());
        let mut flow = milo.flow();
        flow.run(&mut milo, &circuit3(), &Constraints::none())
            .expect("synthesizes")
    });

    // The microarchitecture critic's feedback loop as `micro_timed`
    // runs it: `pipelined_datapath(16, 8, 7)` at 0.8x its direct-mapped
    // delay (8 CLA upgrades over 109 feedback measurements: one full
    // elaboration and 108 body-swap trials), with a fresh design
    // database every iteration, as a fresh flow has.
    {
        let lib = ecl_library();
        let entry = pipelined_datapath(16, 8, 7);
        let direct = Milo::new(lib.clone())
            .elaborate_unoptimized(&entry)
            .expect("elaborates");
        let limit = statistics(&direct).expect("analyzes").delay * 0.8;
        snap.bench("critic/optimize/pipe16x8", || {
            let mut nl = entry.clone();
            milo_core::microarch::optimize(&mut nl, &mut DesignDb::new(), &lib, Some(limit))
                .expect("optimizes")
        });
    }

    // Batched multi-design synthesis fanned across cores, Arc-shared
    // library / design database (input-order deterministic).
    {
        let designs: Vec<_> = (0..8u64).map(|k| random_logic(60, 10, 1000 + k)).collect();
        snap.bench("flow/batch_synthesize/8x60", || {
            let mut milo = Milo::new(ecl_library());
            milo.synthesize_batch(&designs, &Constraints::none())
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .expect("batch synthesizes")
        });
    }

    // The logic critic run to quiescence by the recognize–act loop the
    // flow runs: conflict sets served from the repaired match index,
    // statistics from the refreshed incremental STA.
    {
        let lib = cmos_library();
        let mapped = map_netlist(&random_logic(800, 16, 9), &lib).expect("maps");
        snap.bench("engine/logic_run/800", || {
            let mut work = mapped.clone();
            let mut engine = Engine::new(milo_opt::logic_rules(&lib));
            engine.run(&mut work, Selection::OpsOrder, usize::MAX)
        });

        // Conflict-set index: the one-time full matching pass...
        let engine = Engine::new(milo_opt::logic_rules(&lib));
        snap.bench("engine/index_build/800", || {
            engine.build_index(&mapped, None).len()
        });
        // ...versus repairing it after one rewrite — the cost every
        // accepted firing pays instead of a rescan.
        bench_match_repair(&mut snap, "engine/match_repair/800", &mapped, &lib, 64);
    }

    // The same repair where every firing touches two high-fanout nets:
    // each mux+DFF merge on the direct-mapped `pipelined_datapath(32, 8,
    // 7)` re-pins a register on the shared `CLK` and `SEL` nets (256
    // loads each), as the bottom-up logic pass does at its top level.
    {
        let lib = ecl_library();
        let flat = Milo::new(lib.clone())
            .elaborate_unoptimized(&pipelined_datapath(32, 8, 7))
            .expect("elaborates");
        bench_match_repair(&mut snap, "engine/match_repair/pipe32x8", &flat, &lib, 32);
    }

    // Hash-rule table construction (cached) and lookup.
    {
        let lib = cmos_library();
        snap.bench("hashrules/cached_build", || {
            HashRuleTable::cached(&LibraryRef { cells: lib.cells() }).len()
        });
    }

    // Tracing overhead: the same synthesis with tracing off versus
    // enabled-but-undrained (events buffered in the per-thread rings,
    // nobody draining). The flow, pass and pool spans are what a traced
    // run records. The pair is the observability contract: `on` must
    // stay within a few percent of `off`, because span bookkeeping
    // amortizes over the passes' real work.
    {
        let design = random_logic(400, 12, 5);
        let was_enabled = milo_trace::enabled();
        let mut synthesize = || {
            Milo::new(ecl_library())
                .synthesize(&design, &Constraints::none())
                .expect("synthesizes")
        };
        milo_trace::set_enabled(false);
        snap.bench("trace/overhead/off", &mut synthesize);
        milo_trace::set_enabled(true);
        snap.bench("trace/overhead/on", &mut synthesize);
        milo_trace::set_enabled(was_enabled);
        if !was_enabled {
            // Discard the bench's own span flood so a later
            // `--trace-out`-less run leaves nothing behind.
            let _ = milo_trace::drain_chrome_json();
        }
    }

    // Scale family: the 10k-gate layered control design from the
    // scenario zoo (`milo_circuits::zoo`), exercising generation,
    // technology mapping and from-scratch and incremental STA at a size
    // two orders of magnitude above the golden designs.
    {
        let lib = cmos_library();
        snap.bench("scale/generate/10k", || random_control(10_000, 24, 7));
        let big = random_control(10_000, 24, 7);
        snap.bench("scale/map_netlist/10k", || {
            map_netlist(&big, &lib).expect("maps")
        });
        let mapped = map_netlist(&big, &lib).expect("maps");
        snap.bench("scale/sta_analyze/10k", || {
            analyze(&mapped).expect("analyzes")
        });
        {
            // The same swap-and-back on the ECL-mapped design, the
            // mapping `BottomUpLogic` rewrites under.
            let ecl = ecl_library();
            let mut nl = map_netlist(&big, &ecl).expect("maps");
            let mut inc = IncrementalSta::new(&nl).expect("analyzes");
            let swap = power_swap(&nl, &ecl, 5_000);
            snap.bench("scale/sta_refresh/10k", || {
                swap_and_refresh(&mut nl, &mut inc, &swap)
            });
        }
    }

    // Service family: full client-observed round-trips through the
    // milo-serve loopback — TCP, JSON-lines protocol, job queue, and
    // worker dispatch included. `submit_roundtrip` gives every
    // iteration a unique design name (the structural fingerprint
    // covers the name), so each trip is a genuine cache-miss
    // synthesis; `cache_hit` resubmits one identical job forever, so
    // after the first trip every answer replays from the exact tier —
    // the pair brackets what the cache is worth end to end.
    {
        let mut handle = milo_serve::spawn(
            milo_serve::ServerConfig::new(ecl_library())
                .with_addr("127.0.0.1:0")
                .with_workers(2),
        )
        .expect("service binds");
        let mut client = milo_serve::Client::connect(handle.addr()).expect("connects");
        let constraints = Constraints::none().with_max_delay(6.0);
        let opts = milo_serve::SubmitOptions::new();
        let mut unique = 0u64;
        snap.bench("service/submit_roundtrip", || {
            unique += 1;
            let design = format!(
                "design rt{unique}\ninput a b c\noutput y\n\
                 comp and2 g1 A0=a A1=b Y=t\ncomp or2 g2 A0=t A1=c Y=y\n"
            );
            let job = client
                .submit_with(&design, &constraints, &opts)
                .expect("submits");
            client.result_raw(job).expect("round-trips").len()
        });
        let cached = "design cached\ninput a b c\noutput y\n\
                      comp and2 g1 A0=a A1=b Y=t\ncomp or2 g2 A0=t A1=c Y=y\n";
        snap.bench("service/cache_hit", || {
            let job = client
                .submit_with(cached, &constraints, &opts)
                .expect("submits");
            client.result_raw(job).expect("round-trips").len()
        });
        client.shutdown().expect("shuts down");
        handle.shutdown();
    }

    let json = snap.to_json();
    std::fs::write(&out_path, &json).expect("writes snapshot");
    println!("wrote {out_path}");
    write_trace(trace_out.as_deref());
}
