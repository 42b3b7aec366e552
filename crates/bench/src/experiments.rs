//! The experiment implementations (one per reproduced table/figure).

use crate::metarule_rules::{lookahead_opportunity_circuit, metarule_rule_set};
use milo_circuits::{abadd, fig19_all, random_logic};
use milo_compilers::expand_micro_components;
use milo_core::{Constraints, Milo};
use milo_netlist::{ComponentKind, DesignDb, Netlist, PinDir};
use milo_opt::{optimize_bottom_up, LevelReport, StrategyCtx, StrategyId};
use milo_rules::{
    cell_truth_table, greedy_optimize, lookahead_optimize, Engine, HashRuleTable, LibraryRef,
    MetaParams, Selection,
};
use milo_techmap::{ecl_library, map_netlist, TechLibrary};
use milo_timing::{analyze, gate_equivalents, statistics};
use std::time::Instant;

// ---------------------------------------------------------------------
// Fig. 19 — the main results table.
// ---------------------------------------------------------------------

/// One row of the Fig. 19 table.
#[derive(Clone, Debug)]
pub struct Fig19Row {
    /// Design number (1–8).
    pub index: usize,
    /// Complexity in two-input-equivalent gates.
    pub complexity: f64,
    /// Baseline ("human" direct-mapped) delay, ns.
    pub human_delay: f64,
    /// MILO-optimized delay, ns.
    pub milo_delay: f64,
    /// Delay improvement, percent.
    pub delay_improvement: f64,
    /// Baseline area, cells.
    pub human_area: f64,
    /// MILO-optimized area, cells.
    pub milo_area: f64,
    /// Area improvement, percent.
    pub area_improvement: f64,
    /// Entered at the microarchitecture level?
    pub micro_level: bool,
    /// Number of logic-compiler-generated components for micro entries.
    pub compiler_components: usize,
}

/// Runs the Fig. 19 experiment: every test case through the full MILO
/// pipeline against the unoptimized direct mapping, in the ECL library
/// (as §7 does).
pub fn fig19_experiment() -> Vec<Fig19Row> {
    let mut rows = Vec::new();
    for case in fig19_all() {
        let mut milo = Milo::new(ecl_library());
        let baseline_nl = milo
            .elaborate_unoptimized(&case.netlist)
            .expect("baseline elaborates");
        let baseline = statistics(&baseline_nl).expect("baseline stats");
        let constraint = Constraints::none().with_max_delay(baseline.delay * case.delay_factor);
        let result = milo
            .synthesize(&case.netlist, &constraint)
            .expect("synthesis succeeds");
        let compiler_components = case
            .netlist
            .component_ids()
            .filter(|&id| {
                matches!(
                    case.netlist.component(id).map(|c| &c.kind),
                    Ok(ComponentKind::Micro(_))
                )
            })
            .count();
        rows.push(Fig19Row {
            index: case.index,
            complexity: gate_equivalents(&baseline_nl),
            human_delay: baseline.delay,
            milo_delay: result.stats.delay,
            delay_improvement: result.delay_improvement_pct(),
            human_area: baseline.area,
            milo_area: result.stats.area,
            area_improvement: result.area_improvement_pct(),
            micro_level: case.micro_level,
            compiler_components,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Fig. 9 — per-strategy gain/cost characterization.
// ---------------------------------------------------------------------

/// Measured profile of one strategy.
#[derive(Clone, Debug)]
pub struct StrategyRow {
    /// The strategy.
    pub strategy: StrategyId,
    /// Delay reduction achieved, ns (positive = faster).
    pub delay_gain: f64,
    /// Area change, cells (positive = grew).
    pub area_cost: f64,
    /// Power change, mA.
    pub power_cost: f64,
    /// Application time, microseconds.
    pub micros: u128,
}

/// Builds the characterization circuit for a strategy and returns the
/// netlist plus the application site.
fn strategy_case(strategy: StrategyId, lib: &TechLibrary) -> (Netlist, milo_netlist::ComponentId) {
    let mut nl = Netlist::new(format!("case_{}", strategy.label()));
    let add = |nl: &mut Netlist, name: &str, cell: &str| {
        let c = lib.get(cell).expect("cell exists").clone();
        nl.add_component(name, ComponentKind::Tech(c))
    };
    match strategy {
        StrategyId::S1PinSwap | StrategyId::S2PowerUp | StrategyId::S3Factor => {
            // Skewed-arrival AND3.
            let a = nl.add_net("a");
            let b = nl.add_net("b");
            let c0 = nl.add_net("c");
            for (n, net) in [("a", a), ("b", b), ("c", c0)] {
                nl.add_port(n, PinDir::In, net);
            }
            let mut late = c0;
            for i in 0..3 {
                let g = add(&mut nl, &format!("d{i}"), "BUF");
                nl.connect_named(g, "A0", late).unwrap();
                let y = nl.add_net(format!("dl{i}"));
                nl.connect_named(g, "Y", y).unwrap();
                late = y;
            }
            let and3 = add(&mut nl, "and3", "AND3");
            nl.connect_named(and3, "A0", a).unwrap();
            nl.connect_named(and3, "A1", b).unwrap();
            nl.connect_named(and3, "A2", late).unwrap();
            let y = nl.add_net("y");
            nl.connect_named(and3, "Y", y).unwrap();
            nl.add_port("y", PinDir::Out, y);
            (nl, and3)
        }
        StrategyId::S4BetterMacro | StrategyId::S6BetterMacroCost => {
            // AND2 -> NOR2 cone (AOI21 shape).
            let a = nl.add_net("a");
            let b = nl.add_net("b");
            let c0 = nl.add_net("c");
            for (n, net) in [("a", a), ("b", b), ("c", c0)] {
                nl.add_port(n, PinDir::In, net);
            }
            let g1 = add(&mut nl, "g1", "AND2");
            nl.connect_named(g1, "A0", a).unwrap();
            nl.connect_named(g1, "A1", b).unwrap();
            let ab = nl.add_net("ab");
            nl.connect_named(g1, "Y", ab).unwrap();
            let g2 = add(&mut nl, "g2", "NOR2");
            nl.connect_named(g2, "A0", ab).unwrap();
            nl.connect_named(g2, "A1", c0).unwrap();
            let y = nl.add_net("y");
            nl.connect_named(g2, "Y", y).unwrap();
            nl.add_port("y", PinDir::Out, y);
            (nl, g2)
        }
        StrategyId::S8ShannonMux => {
            // Three-level cone whose late input enters at the first level:
            // y = ((c & a) | b) & d, with c behind a tapped delay chain.
            let a = nl.add_net("a");
            let b = nl.add_net("b");
            let c0 = nl.add_net("c");
            let d = nl.add_net("d");
            for (n, net) in [("a", a), ("b", b), ("c", c0), ("d", d)] {
                nl.add_port(n, PinDir::In, net);
            }
            let mut cin = c0;
            for i in 0..4 {
                let g = add(&mut nl, &format!("ch{i}"), "BUF");
                nl.connect_named(g, "A0", cin).unwrap();
                let y = nl.add_net(format!("chn{i}"));
                nl.connect_named(g, "Y", y).unwrap();
                cin = y;
            }
            // Tap the chain output so the cone extraction stops at the
            // late signal instead of absorbing the chain.
            nl.add_port("tap", PinDir::Out, cin);
            let g1 = add(&mut nl, "g1", "AND2");
            nl.connect_named(g1, "A0", cin).unwrap();
            nl.connect_named(g1, "A1", a).unwrap();
            let ca = nl.add_net("ca");
            nl.connect_named(g1, "Y", ca).unwrap();
            let g2 = add(&mut nl, "g2", "OR2");
            nl.connect_named(g2, "A0", ca).unwrap();
            nl.connect_named(g2, "A1", b).unwrap();
            let cab = nl.add_net("cab");
            nl.connect_named(g2, "Y", cab).unwrap();
            let g3 = add(&mut nl, "g3", "AND2");
            nl.connect_named(g3, "A0", cab).unwrap();
            nl.connect_named(g3, "A1", d).unwrap();
            let y = nl.add_net("y");
            nl.connect_named(g3, "Y", y).unwrap();
            nl.add_port("y", PinDir::Out, y);
            (nl, g3)
        }
        StrategyId::S5Duplicate => {
            let a = nl.add_net("a");
            nl.add_port("a", PinDir::In, a);
            let g = add(&mut nl, "g", "INV");
            nl.connect_named(g, "A0", a).unwrap();
            let mid = nl.add_net("mid");
            nl.connect_named(g, "Y", mid).unwrap();
            for i in 0..6 {
                let b = add(&mut nl, &format!("b{i}"), "BUF");
                nl.connect_named(b, "A0", mid).unwrap();
                let y = nl.add_net(format!("y{i}"));
                nl.connect_named(b, "Y", y).unwrap();
                nl.add_port(format!("y{i}"), PinDir::Out, y);
            }
            (nl, g)
        }
        StrategyId::S7Minimize => {
            // Redundant (a&b)|(a&!b) cone.
            let a = nl.add_net("a");
            let b = nl.add_net("b");
            nl.add_port("a", PinDir::In, a);
            nl.add_port("b", PinDir::In, b);
            let i1 = add(&mut nl, "i1", "INV");
            nl.connect_named(i1, "A0", b).unwrap();
            let nb = nl.add_net("nb");
            nl.connect_named(i1, "Y", nb).unwrap();
            let g1 = add(&mut nl, "g1", "AND2");
            nl.connect_named(g1, "A0", a).unwrap();
            nl.connect_named(g1, "A1", b).unwrap();
            let t1 = nl.add_net("t1");
            nl.connect_named(g1, "Y", t1).unwrap();
            let g2 = add(&mut nl, "g2", "AND2");
            nl.connect_named(g2, "A0", a).unwrap();
            nl.connect_named(g2, "A1", nb).unwrap();
            let t2 = nl.add_net("t2");
            nl.connect_named(g2, "Y", t2).unwrap();
            let g3 = add(&mut nl, "g3", "OR2");
            nl.connect_named(g3, "A0", t1).unwrap();
            nl.connect_named(g3, "A1", t2).unwrap();
            let y = nl.add_net("y");
            nl.connect_named(g3, "Y", y).unwrap();
            nl.add_port("y", PinDir::Out, y);
            (nl, g3)
        }
    }
}

/// Characterizes every strategy: the measured gain/cost profile of
/// Fig. 9's catalog.
pub fn strategies_experiment() -> Vec<StrategyRow> {
    let lib = ecl_library();
    let hash = HashRuleTable::from_library(&LibraryRef { cells: lib.cells() });
    let ctx = StrategyCtx {
        lib: &lib,
        hash: &hash,
    };
    let mut rows = Vec::new();
    for strategy in StrategyId::ALL {
        let (mut nl, site) = strategy_case(strategy, &lib);
        let before = statistics(&nl).expect("stats");
        let sta = analyze(&nl).expect("sta");
        let t0 = Instant::now();
        let applied = milo_opt::apply_strategy(strategy, &mut nl, site, &sta, &ctx);
        let micros = t0.elapsed().as_micros();
        let after = statistics(&nl).expect("stats");
        assert!(
            applied.is_some(),
            "{} must apply on its case",
            strategy.label()
        );
        rows.push(StrategyRow {
            strategy,
            delay_gain: before.delay - after.delay,
            area_cost: after.area - before.area,
            power_cost: after.power - before.power,
            micros,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// §2.2.2 — metarules ablation (the CoBa85 numbers the paper quotes).
// ---------------------------------------------------------------------

/// One configuration's result.
#[derive(Clone, Debug)]
pub struct MetarulesRow {
    /// Configuration name.
    pub config: &'static str,
    /// Wall time, milliseconds.
    pub millis: f64,
    /// Final area.
    pub area: f64,
    /// Area reduction vs entry, percent.
    pub area_reduction: f64,
    /// Search states explored (0 for greedy).
    pub states: usize,
}

/// Runs greedy vs lookahead vs lookahead+metarules on a circuit with
/// two-step optimization opportunities.
pub fn metarules_experiment(copies: usize) -> Vec<MetarulesRow> {
    let lib = milo_techmap::cmos_library();
    let entry = lookahead_opportunity_circuit(copies);
    let mapped = map_netlist(&entry, &lib).expect("maps");
    let entry_area = statistics(&mapped).expect("stats").area;
    let params = MetaParams {
        depth: 4,
        breadth: 4,
        apply_depth: 3,
        ..MetaParams::default()
    };
    let mut rows = Vec::new();

    let mut nl = mapped.clone();
    let mut engine = Engine::new(metarule_rule_set(&lib));
    let t0 = Instant::now();
    greedy_optimize(&mut nl, &mut engine, params, 500);
    let greedy_ms = t0.elapsed().as_secs_f64() * 1e3;
    let area = statistics(&nl).expect("stats").area;
    rows.push(MetarulesRow {
        config: "greedy (no lookahead)",
        millis: greedy_ms,
        area,
        area_reduction: (entry_area - area) / entry_area * 100.0,
        states: 0,
    });

    for (config, dynamic) in [("lookahead", false), ("lookahead + metarules", true)] {
        let mut nl = mapped.clone();
        let mut engine = Engine::new(metarule_rule_set(&lib));
        let t0 = Instant::now();
        let stats = lookahead_optimize(&mut nl, &mut engine, params, dynamic, 500);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let area = statistics(&nl).expect("stats").area;
        rows.push(MetarulesRow {
            config,
            millis: ms,
            area,
            area_reduction: (entry_area - area) / entry_area * 100.0,
            states: stats.states_explored,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// §2.2.2 — LSS linear-scaling claim.
// ---------------------------------------------------------------------

/// One design size's synthesis-time measurement.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Two-input-equivalent gate count of the entry.
    pub gates: usize,
    /// Local-transformation optimization time, milliseconds.
    pub millis: f64,
    /// Throughput, gates per second.
    pub gates_per_sec: f64,
    /// Rules fired.
    pub fired: usize,
}

/// Measures local-transformation synthesis time across design sizes:
/// the logic critic run to quiescence by the recognize–act loop the
/// flow runs, each firing paying only for what it touched (incremental
/// STA and Rete-style match repair).
pub fn scaling_experiment(sizes: &[usize]) -> Vec<ScalingRow> {
    let lib = milo_techmap::cmos_library();
    let mut rows = Vec::new();
    for &gates in sizes {
        let entry = random_logic(gates, 16, 0xF00D + gates as u64);
        let mapped = map_netlist(&entry, &lib).expect("maps");
        let mut nl = mapped;
        let mut engine = Engine::new(milo_opt::logic_rules(&lib));
        let t0 = Instant::now();
        let fired = engine.run(&mut nl, Selection::OpsOrder, usize::MAX);
        let secs = t0.elapsed().as_secs_f64();
        rows.push(ScalingRow {
            gates,
            millis: secs * 1e3,
            gates_per_sec: gates as f64 / secs.max(1e-9),
            fired,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Fig. 10 — hash table vs rule scanning.
// ---------------------------------------------------------------------

/// Result of the hash-vs-rules comparison.
#[derive(Clone, Debug)]
pub struct HashVsRulesResult {
    /// Distinct truth-table keys in the hash table.
    pub table_entries: usize,
    /// Average nanoseconds per hash lookup.
    pub hash_ns: f64,
    /// Average nanoseconds per naive rule-scan lookup.
    pub scan_ns: f64,
    /// Scan / hash time ratio.
    pub speedup: f64,
}

/// Measures single-probe hash lookup against scanning the cell "rules"
/// with permutation matching — the paper's Fig. 10 argument.
pub fn hash_vs_rules_experiment(queries: u32) -> HashVsRulesResult {
    let lib = milo_techmap::cmos_library();
    let table = HashRuleTable::from_library(&LibraryRef { cells: lib.cells() });
    // Query functions: all 3-variable truth tables cycled.
    let functions: Vec<milo_logic::TruthTable> = (0..=255u32)
        .map(|bits| milo_logic::TruthTable::new(3, u64::from(bits)))
        .collect();

    let t0 = Instant::now();
    let mut hits = 0usize;
    for q in 0..queries {
        let tt = &functions[(q as usize) % functions.len()];
        hits += usize::from(!table.lookup(tt).is_empty());
    }
    let hash_ns = t0.elapsed().as_nanos() as f64 / f64::from(queries);

    // Naive "rule base": for each query, scan all cells, trying every
    // input permutation of each cell's function.
    let cells: Vec<(milo_logic::TruthTable, String)> = lib
        .cells()
        .iter()
        .filter_map(|c| cell_truth_table(c).map(|t| (t, c.name.clone())))
        .collect();
    let t0 = Instant::now();
    let mut scan_hits = 0usize;
    for q in 0..queries {
        let tt = &functions[(q as usize) % functions.len()];
        'cells: for (ct, _) in &cells {
            if ct.vars() != tt.vars() {
                continue;
            }
            // All permutations of the cell inputs.
            let n = ct.vars();
            let mut perm: Vec<u8> = (0..n).collect();
            loop {
                if &ct.permute(&perm) == tt {
                    scan_hits += 1;
                    break 'cells;
                }
                if !next_permutation(&mut perm) {
                    break;
                }
            }
        }
    }
    let scan_ns = t0.elapsed().as_nanos() as f64 / f64::from(queries);
    let _ = (hits, scan_hits);
    HashVsRulesResult {
        table_entries: table.len(),
        hash_ns,
        scan_ns,
        speedup: scan_ns / hash_ns.max(1e-9),
    }
}

fn next_permutation(p: &mut [u8]) -> bool {
    if p.len() < 2 {
        return false;
    }
    let mut i = p.len() - 1;
    while i > 0 && p[i - 1] >= p[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = p.len() - 1;
    while p[j] <= p[i - 1] {
        j -= 1;
    }
    p.swap(i - 1, j);
    p[i..].reverse();
    true
}

// ---------------------------------------------------------------------
// Fig. 18 — hierarchical bottom-up optimization on ABADD.
// ---------------------------------------------------------------------

/// Result of the Fig. 18 experiment.
#[derive(Debug)]
pub struct HierarchyResult {
    /// Direct-mapped (unoptimized) area.
    pub direct_area: f64,
    /// Bottom-up optimized area.
    pub optimized_area: f64,
    /// Merged mux-FF macros in the final netlist.
    pub mxff_count: usize,
    /// Per-level reports.
    pub levels: Vec<LevelReport>,
    /// MXFF4 macros produced by the two-stage merge on the load-register
    /// variant (2:1 mux + MXFF2 → MXFF4 at the top level).
    pub two_stage_mxff4: usize,
}

/// Runs the ABADD walkthrough of Figs. 16 and 18.
pub fn hierarchy_experiment() -> HierarchyResult {
    let lib = ecl_library();
    let mut db = DesignDb::new();
    let mut top = abadd();
    expand_micro_components(&mut top, &mut db).expect("compiles");
    let direct = map_netlist(&db.flatten_netlist(&top).expect("flattens"), &lib).expect("maps");
    let direct_area = statistics(&direct).expect("stats").area;
    let (optimized, levels) = optimize_bottom_up(&top, &db, &lib).expect("optimizes");
    let optimized_area = statistics(&optimized).expect("stats").area;
    let mxff_count = optimized
        .component_ids()
        .filter(|&id| {
            matches!(
                optimized.component(id).map(|c| &c.kind),
                Ok(ComponentKind::Tech(c)) if c.name.starts_with("MXFF")
            )
        })
        .count();
    // Two-stage variant: load-only register, where the outer 2:1 mux
    // merges into the register's MXFF2 at the top level.
    let mut db2 = DesignDb::new();
    let mut top2 = milo_circuits::abadd_load_register(4);
    expand_micro_components(&mut top2, &mut db2).expect("compiles");
    let (optimized2, _) = optimize_bottom_up(&top2, &db2, &lib).expect("optimizes");
    let two_stage_mxff4 = optimized2
        .component_ids()
        .filter(|&id| {
            matches!(
                optimized2.component(id).map(|c| &c.kind),
                Ok(ComponentKind::Tech(c)) if c.name == "MXFF4"
            )
        })
        .count();
    HierarchyResult {
        direct_area,
        optimized_area,
        mxff_count,
        levels,
        two_stage_mxff4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_experiment_profiles_all_eight() {
        let rows = strategies_experiment();
        assert_eq!(rows.len(), 8);
        // Paper shape spot-checks.
        let get = |id: StrategyId| rows.iter().find(|r| r.strategy == id).expect("row");
        let s1 = get(StrategyId::S1PinSwap);
        assert!(
            s1.delay_gain > 0.0 && s1.area_cost.abs() < 1e-9,
            "S1 zero cost: {s1:?}"
        );
        let s7 = get(StrategyId::S7Minimize);
        assert!(
            rows.iter().all(|r| r.delay_gain <= s7.delay_gain + 1e-9),
            "S7 largest gain: {rows:?}"
        );
        let s8 = get(StrategyId::S8ShannonMux);
        assert!(
            s8.delay_gain > 0.0 && s8.area_cost > 0.0,
            "S8 gain at cost: {s8:?}"
        );
    }

    #[test]
    fn hash_vs_rules_hash_wins() {
        let r = hash_vs_rules_experiment(500);
        assert!(r.table_entries > 10);
        assert!(r.speedup > 1.0, "{r:?}");
    }

    #[test]
    fn scaling_rows_fire_rules() {
        let rows = scaling_experiment(&[60, 120]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.fired > 0));
    }

    #[test]
    fn metarules_shape_small() {
        let rows = metarules_experiment(3);
        assert_eq!(rows.len(), 3);
        let greedy = &rows[0];
        let look = &rows[1];
        let meta = &rows[2];
        assert!(look.area < greedy.area, "lookahead finds more area");
        assert!(meta.area <= look.area + 1e-9, "metarules keep the result");
        assert!(meta.states <= look.states, "metarules shrink the search");
    }
}
