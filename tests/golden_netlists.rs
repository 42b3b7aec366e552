//! Golden regression tests for the optimizer's *results*, not its
//! speed: final netlist statistics (cell count, area, critical-path
//! delay) for representative designs, every Fig. 19 row under its
//! delay constraint, the microarchitecture critic's carry-mode
//! decisions, and the slot layout of a flattened hierarchy. Matcher or
//! engine changes that alter which rewrites fire — e.g. a conflict-set
//! ordering bug in the incremental `MatchIndex` — fail here loudly
//! instead of slipping through as a silent quality regression. If a
//! change *intentionally* improves results, update the constants (and
//! say so in the PR).

use milo::circuits::{
    abadd, fig19, fig19_all, fsm_bank, pipelined_datapath, random_control, random_logic,
};
use milo::{Constraints, Milo, SynthesisResult};
use milo_bench::metarule_rules::metarule_rule_set;
use milo_compilers::expand_micro_components;
use milo_netlist::{structural_hash, ComponentKind, DesignDb, Netlist};
use milo_rules::{Engine, Selection};
use milo_techmap::{cmos_library, ecl_library, map_netlist};
use milo_timing::statistics;

fn assert_close(what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= want.abs() * 1e-9 + 1e-9,
        "{what}: got {got}, want {want}"
    );
}

#[test]
fn golden_fig19_circuit3_pipeline() {
    let mut milo = Milo::new(ecl_library());
    let result = milo
        .synthesize(&fig19::circuit3(), &Constraints::none())
        .expect("synthesizes");
    let s = &result.stats;
    assert_eq!(s.cells, 6, "area {} delay {}", s.area, s.delay);
    assert_close("area", s.area, 8.2);
    assert_close("delay", s.delay, 2.2922);
}

#[test]
fn golden_abadd_datapath_pipeline() {
    let mut milo = Milo::new(ecl_library());
    let result = milo
        .synthesize(&abadd(), &Constraints::none())
        .expect("synthesizes");
    let s = &result.stats;
    assert_eq!(s.cells, 9, "area {} delay {}", s.area, s.delay);
    assert_close("area", s.area, 27.8);
    assert_close("delay", s.delay, 4.52);
}

/// The three golden synthesis designs through `synthesize_batch`: the
/// batched path runs the same Pass API stages, so it must reproduce the
/// committed per-design snapshots exactly, in input order.
#[test]
fn golden_batch_matches_sequential_snapshots() {
    let designs = [fig19::circuit3(), abadd(), random_logic(80, 10, 7)];
    let mut milo = Milo::new(ecl_library());
    let results = milo
        .synthesize_batch(&designs, &Constraints::none())
        .into_iter()
        .map(|run| run.map(|out| out.result))
        .collect::<Result<Vec<_>, _>>()
        .expect("batch synthesizes");
    assert_eq!(results.len(), 3);

    // fig19 circuit 3 — same constants as the sequential golden above.
    let s = &results[0].stats;
    assert_eq!(s.cells, 6, "area {} delay {}", s.area, s.delay);
    assert_close("c3 area", s.area, 8.2);
    assert_close("c3 delay", s.delay, 2.2922);

    // ABADD datapath — same constants as the sequential golden above.
    let s = &results[1].stats;
    assert_eq!(s.cells, 9, "area {} delay {}", s.area, s.delay);
    assert_close("abadd area", s.area, 27.8);
    assert_close("abadd delay", s.delay, 4.52);

    // 80-gate random logic — pinned here (no sequential twin above).
    let s = &results[2].stats;
    let mut seq = Milo::new(ecl_library());
    let want = seq
        .synthesize(&random_logic(80, 10, 7), &Constraints::none())
        .expect("sequential synthesizes");
    assert_eq!(
        s.cells, want.stats.cells,
        "area {} delay {}",
        s.area, s.delay
    );
    assert_close("rand area", s.area, want.stats.area);
    assert_close("rand delay", s.delay, want.stats.delay);
}

#[test]
fn golden_random_logic_run() {
    let lib = cmos_library();
    let mut nl = map_netlist(&random_logic(200, 16, 9), &lib).expect("maps");
    let mut engine = Engine::new(metarule_rule_set(&lib));
    let fired = engine.run(&mut nl, Selection::OpsOrder, 10_000);
    let s = statistics(&nl).expect("analyzes");
    assert_eq!(
        (fired, s.cells),
        (28, 211),
        "area {} delay {}",
        s.area,
        s.delay
    );
    assert_close("area", s.area, 263.37);
    assert_close("delay", s.delay, 17.445);
}

/// `nl` synthesized under `factor` times its direct-mapped delay — how
/// the Fig. 19 table and the `micro_timed` benchmark set their limits —
/// twice on one instance: fresh, then warm with the first run's
/// compiled designs. Both results are returned, labelled, so callers
/// check every pinned value on each. Afterwards the instance's database
/// must hold compiler output only: no technology cell (the compilers
/// emit generic macros and instances) and no `__milo` top.
fn synthesize_at(nl: &Netlist, factor: f64) -> [(&'static str, SynthesisResult); 2] {
    let direct = Milo::new(ecl_library())
        .elaborate_unoptimized(nl)
        .expect("elaborates");
    let limit = statistics(&direct).expect("analyzes").delay * factor;
    let constraints = Constraints::none().with_max_delay(limit);
    let mut milo = Milo::new(ecl_library());
    let runs = ["fresh", "warm"].map(|run| {
        let r = milo.synthesize(nl, &constraints).expect("synthesizes");
        (run, r)
    });
    let db = milo.database();
    for name in db.names() {
        assert!(!name.ends_with("__milo"), "{}: top {name} stored", nl.name);
        let design = db.get(name).expect("listed design");
        assert!(
            !design.component_ids().any(|id| matches!(
                design.component(id).map(|c| &c.kind),
                Ok(ComponentKind::Tech(_))
            )),
            "{}: design {name} holds technology cells",
            nl.name
        );
    }
    runs
}

/// All eight Fig. 19 rows at their delay factors: the MILO result's
/// cells, area, delay and structural hash, and the direct-mapped
/// baseline's area and delay.
#[test]
fn golden_fig19_constrained_rows() {
    // (cells, area, delay, hash, baseline area, baseline delay)
    const ROWS: [(usize, f64, f64, u64, f64, f64); 8] = [
        (42, 62.2, 3.932, 0xe945_b626_3c9b_7703, 120.2, 4.8345),
        (21, 34.5, 3.165, 0x1625_2000_13b1_fa64, 36.5, 4.0),
        (6, 8.2, 1.2761, 0x27cd_5659_f580_e651, 9.2, 1.823),
        (33, 40.9, 3.0635, 0xf8ee_0d0f_cd78_e8a5, 50.1, 3.5165),
        (7, 7.4, 2.2922, 0x8459_4981_8f9f_e657, 11.2, 3.2245),
        (37, 98.5, 6.3, 0x1e8a_775c_0fb3_9d85, 116.1, 9.94),
        (88, 253.5, 10.95, 0x754d_3c18_8415_c482, 282.1, 17.53),
        (20, 52.1, 7.04, 0x4faa_9841_a68c_01f9, 70.3, 8.04),
    ];
    let cases = fig19_all();
    assert_eq!(cases.len(), ROWS.len());
    for (case, (cells, area, delay, hash, base_area, base_delay)) in cases.into_iter().zip(ROWS) {
        for (run, r) in synthesize_at(&case.netlist, case.delay_factor) {
            let c = format!("circuit {} ({run})", case.index);
            let got = structural_hash(&r.netlist);
            assert_eq!(r.stats.cells, cells, "{c}: {:?}", r.stats);
            assert_close(&format!("{c} area"), r.stats.area, area);
            assert_close(&format!("{c} delay"), r.stats.delay, delay);
            assert_eq!(got, hash, "{c}: hash 0x{got:016x}");
            assert_close(&format!("{c} baseline area"), r.baseline.area, base_area);
            assert_close(&format!("{c} baseline delay"), r.baseline.delay, base_delay);
        }
    }
}

/// The critic's Phase-2 decisions on the two constrained pipelined
/// datapaths of the `micro_timed` benchmark, and the results they lead to.
#[test]
fn golden_critic_phase2_decisions() {
    for (stages, bits, upgrades, hash) in [
        (16, 8, 8, 0xf30e_cbcc_dea7_e9e2),
        (8, 16, 4, 0xc1c1_d7ed_59d9_042b),
    ] {
        for (run, r) in synthesize_at(&pipelined_datapath(stages, bits, 7), 0.8) {
            let what = format!("pipelined_datapath({stages}, {bits}, 7) ({run})");
            let critic = r.critic.as_ref().expect("micro-level entry");
            assert_eq!(
                (
                    critic.cla_upgrades,
                    critic.ripple_downgrades,
                    critic.met_timing
                ),
                (upgrades, 0, Some(true)),
                "{what}: {critic:?}"
            );
            let got = structural_hash(&r.netlist);
            assert_eq!(got, hash, "{what}: hash 0x{got:016x}");
            assert_eq!(r.stats.cells, 160, "{what}: {:?}", r.stats);
            assert_close(&format!("{what} area"), r.stats.area, 740.8);
            assert_close(&format!("{what} delay"), r.stats.delay, 88.64);
        }
    }
}

/// Zoo designs under delay limits, as `serve_soak` and `micro_timed`
/// run them, whose timing-area pass skips power-down trials, rolls its
/// rejected trials back and evaluates many merge cones: the MILO
/// result's cells, area, delay, structural hash, `timing.met` and the
/// number of §4 strategies applied.
#[test]
fn golden_constrained_control_and_fsm() {
    // (design, cells, area, delay, hash, met, strategies)
    let rows = [
        (
            random_control(300, 24, 7),
            282,
            402.1,
            11.30455,
            0x49df_38be_2576_4a72,
            false,
            85,
        ),
        (
            random_control(1000, 24, 7),
            908,
            1292.2,
            32.65505,
            0xe684_56cb_f150_27db,
            false,
            104,
        ),
        (
            fsm_bank(64, 4, 7),
            763,
            1250.35,
            1.95,
            0xe382_b996_7542_cd4f,
            false,
            2,
        ),
    ];
    for (nl, cells, area, delay, hash, met, strategies) in rows {
        for (run, r) in synthesize_at(&nl, 0.8) {
            let what = format!("{} ({run})", nl.name);
            let got = structural_hash(&r.netlist);
            assert_eq!(got, hash, "{what}: hash 0x{got:016x}");
            assert_eq!(r.stats.cells, cells, "{what}: {:?}", r.stats);
            assert_close(&format!("{what} area"), r.stats.area, area);
            assert_close(&format!("{what} delay"), r.stats.delay, delay);
            assert_eq!(
                (r.timing.met, r.timing.applied.len()),
                (met, strategies),
                "{what}"
            );
        }
    }
}

/// `DesignDb::flatten` output slot for slot: `structural_hash` reads
/// component order, net ids and connection order, so a flatten that
/// builds the same graph in another layout fails here.
#[test]
fn golden_flatten_layout() {
    for (what, entry, hash) in [
        ("ABADD", abadd(), 0xc77a_165b_382f_3e4d),
        (
            "pipelined_datapath(4, 8, 7)",
            pipelined_datapath(4, 8, 7),
            0x999e_4e6f_2eb3_978c,
        ),
    ] {
        let mut db = DesignDb::new();
        let mut top = entry;
        expand_micro_components(&mut top, &mut db).expect("compiles");
        let top = db.insert(top);
        let got = structural_hash(&db.flatten(&top).expect("flattens"));
        assert_eq!(got, hash, "{what}: hash 0x{got:016x}");
    }
}
