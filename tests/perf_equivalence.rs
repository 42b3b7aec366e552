//! Equivalence properties guarding the hot-path optimizations: the
//! hashed-dedup division, the dense containment pass, parallel
//! per-output minimization, the incremental STA, and the critic's
//! stitched feedback elaboration must all agree exactly with their
//! straightforward (pre-optimization) counterparts; and good-factor
//! must preserve the function it factors.

use milo_logic::{divide, espresso, good_factor, Cover, Cube, TruthTable};
use milo_microarch::{ClaToRipple, Elaborator, RippleToCla};
use milo_netlist::{
    structural_hash, CarryMode, ComponentId, ComponentKind, DesignDb, GateFn, GenericMacro,
    MicroComponent, NetId, Netlist, NetlistError, PinDir, PinRef, TechCell,
};
use milo_rules::{
    judge_trial, refresh_or_rebuild, Engine, Locality, MatchIndex, Rule, RuleCtx, RuleMatch,
    Selection, Tx,
};
use milo_techmap::{cmos_library, ecl_library, map_netlist, TechLibrary};
use milo_timing::{analyze, statistics, DesignStats, IncrementalSta};
use proptest::prelude::*;

fn masked_truth(vars: u8, bits: u64) -> TruthTable {
    let mask = if vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1u32 << vars)) - 1
    };
    TruthTable::new(vars, bits & mask)
}

/// The pre-optimization algebraic division, verbatim: quadratic
/// `Vec::contains` candidate intersection and `produced` scan.
fn reference_divide(f: &Cover, d: &Cover) -> (Cover, Cover) {
    let nvars = f.nvars();
    if d.is_empty() {
        return (Cover::zero(nvars), f.clone());
    }
    let mut candidate_sets: Vec<Vec<Cube>> = Vec::new();
    for dc in d.cubes() {
        let mut set: Vec<Cube> = Vec::new();
        for fc in f.cubes() {
            if let Some(q) = fc.algebraic_quotient(dc) {
                if q.support_mask() & dc.support_mask() == 0 && !set.contains(&q) {
                    set.push(q);
                }
            }
        }
        candidate_sets.push(set);
    }
    let mut quotient_cubes: Vec<Cube> = Vec::new();
    if let Some((first, rest)) = candidate_sets.split_first() {
        'cand: for q in first {
            for set in rest {
                if !set.contains(q) {
                    continue 'cand;
                }
            }
            quotient_cubes.push(*q);
        }
    }
    let quotient = Cover::from_cubes(nvars, quotient_cubes);
    let mut produced: Vec<Cube> = Vec::new();
    for dc in d.cubes() {
        for qc in quotient.cubes() {
            produced.push(dc.intersect(qc));
        }
    }
    let remainder: Vec<Cube> = f
        .cubes()
        .iter()
        .filter(|fc| !produced.contains(fc))
        .copied()
        .collect();
    (quotient, Cover::from_cubes(nvars, remainder))
}

/// The pre-optimization single-cube containment, verbatim.
fn reference_containment(cover: &Cover) -> Vec<Cube> {
    let cubes = cover.cubes();
    let mut kept: Vec<Cube> = Vec::new();
    'outer: for (i, c) in cubes.iter().enumerate() {
        for (j, d) in cubes.iter().enumerate() {
            if i != j && d.contains(c) && !(c.contains(d) && i < j) {
                continue 'outer;
            }
        }
        kept.push(*c);
    }
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hashed-set division returns cube-for-cube the same quotient
    /// and remainder as the quadratic reference, and preserves the
    /// division identity `f ≡ d·q + r` semantically.
    #[test]
    fn hashed_divide_matches_reference(vars in 2u8..=6, fbits in any::<u64>(), dbits in any::<u64>()) {
        let f = espresso::minimize(&Cover::from_truth(&masked_truth(vars, fbits)), None).cover;
        let d = espresso::minimize(&Cover::from_truth(&masked_truth(vars, dbits)), None).cover;
        let div = divide::divide(&f, &d);
        let (rq, rr) = reference_divide(&f, &d);
        prop_assert_eq!(div.quotient.cubes(), rq.cubes());
        prop_assert_eq!(div.remainder.cubes(), rr.cubes());
        // Division identity, checked by truth table.
        let dq = d.and(&div.quotient);
        let rebuilt = dq.or(&div.remainder);
        let mut all = rebuilt.clone();
        // d·q + r must cover exactly f (algebraic division never changes
        // the function).
        all.single_cube_containment();
        prop_assert_eq!(all.to_truth(), f.to_truth());
    }

    /// The hashed containment/dedup pass keeps exactly the cubes the
    /// quadratic reference kept, in the same order.
    #[test]
    fn containment_matches_reference(vars in 2u8..=6, bits in any::<u64>(), extra in any::<u64>()) {
        // A messy cover with duplicates and contained cubes.
        let base = Cover::from_truth(&masked_truth(vars, bits));
        let mut cover = base.clone();
        for c in Cover::from_truth(&masked_truth(vars, bits & extra)).cubes() {
            cover.push(*c); // duplicates of a subfunction's minterms
        }
        for c in espresso::minimize(&base, None).cover.cubes() {
            cover.push(*c); // large cubes containing earlier minterms
        }
        let expected = reference_containment(&cover);
        let mut got = cover.clone();
        got.single_cube_containment();
        prop_assert_eq!(got.cubes(), &expected[..]);
    }

    /// The good-factor form of a minimized cover preserves its function
    /// (the covers strategies 7 and 8 factor).
    #[test]
    fn good_factor_preserves_the_function(vars in 2u8..=6, bits in any::<u64>()) {
        let tt = masked_truth(vars, bits);
        let cover = espresso::minimize(&Cover::from_truth(&tt), None).cover;
        let factored = good_factor(&cover);
        for row in 0..(1u32 << vars) {
            prop_assert_eq!(factored.eval(row), tt.eval(row), "row {}", row);
        }
    }

    /// Incremental STA equals from-scratch analysis after every rewrite
    /// of a randomized apply/undo sequence.
    #[test]
    fn incremental_sta_matches_analyze(seed in 0u64..400, script in any::<u64>()) {
        let lib = cmos_library();
        let mut nl = map_netlist(&milo::circuits::random_logic(50, 8, seed), &lib).expect("maps");
        let mut inc = IncrementalSta::new(&nl).expect("analyzes");
        let mut state = script | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10 {
            let log = random_rewrite(&mut nl, &lib, next());
            let ts = log.touch_set();
            if next() & 1 == 0 {
                // Keep the rewrite.
                inc.refresh(&nl, &ts).expect("refreshes");
            } else {
                // Back it out — the same touch set describes the undo.
                log.undo(&mut nl);
                inc.refresh(&nl, &ts).expect("refreshes");
            }
            assert_sta_equal(&nl, &inc);
        }
    }

    /// The same oracle under real logic-critic firings on ECL-mapped
    /// control logic — the rewrite shapes the 10k flow commits
    /// (inverter-pair removals, some of them rejected, and
    /// duplicate-gate merges). Each applied firing is refreshed; a third
    /// of them, and every rejected one, are then undone and refreshed
    /// again, like the engine's candidate trials.
    #[test]
    fn incremental_sta_tracks_logic_rule_firings(seed in 0u64..400, script in any::<u64>()) {
        let lib = ecl_library();
        let mut nl = map_netlist(&milo::circuits::random_control(150, 8, seed), &lib).expect("maps");
        let engine = Engine::new(milo_opt::logic_rules(&lib));
        let mut inc = IncrementalSta::new(&nl).expect("analyzes");
        let mut state = script | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..12 {
            let conflict = engine.conflict_set(&nl, Some(inc.sta()));
            if conflict.is_empty() {
                break;
            }
            let (idx, m) = conflict[next() as usize % conflict.len()].clone();
            let mut tx = Tx::new(&mut nl);
            let applied = engine.rules()[idx].apply(&mut tx, &m);
            let log = tx.commit();
            let ts = log.touch_set();
            if applied.is_ok() {
                inc.refresh(&nl, &ts).expect("refreshes");
                assert_sta_equal(&nl, &inc);
                if next() % 3 != 0 {
                    continue;
                }
            }
            log.undo(&mut nl);
            inc.refresh(&nl, &ts).expect("refreshes");
            assert_sta_equal(&nl, &inc);
        }
    }

    /// Both oracles on sequential logic, which the properties above
    /// (all on combinational designs) never reach: the logic critic
    /// fired on the ECL elaboration of a 4-stage pipelined datapath,
    /// whose conflict set is its 32 mux+DFF merges (then mux+MXFF2
    /// merges), each replacing a register on the shared clock and select
    /// nets. Every rejected firing and a third of the applied ones are
    /// undone. A firing never removes a register without adding its
    /// merged replacement, so one step per case removes a lone register
    /// instead (and undoes it): its endpoints must go with it. After
    /// every step the incremental STA equals a fresh analysis and the
    /// match index a full rescan.
    #[test]
    fn sequential_firings_keep_sta_and_index_exact(seed in 0u64..400, script in any::<u64>()) {
        let lib = ecl_library();
        let mut nl = milo::Milo::new(lib.clone())
            .elaborate_unoptimized(&milo::circuits::pipelined_datapath(4, 8, seed))
            .expect("elaborates");
        let engine = Engine::new(milo_opt::logic_rules(&lib));
        let mut inc = IncrementalSta::new(&nl).expect("analyzes");
        let mut index = engine.build_index(&nl, None);
        let mut state = script | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut check = |nl: &Netlist, ts: &milo_netlist::TouchSet| {
            inc.refresh(nl, ts).expect("refreshes");
            assert_sta_equal(nl, &inc);
            index.repair(engine.rules(), &RuleCtx { nl, sta: None }, ts);
            assert_index_equals_rescan(&engine, &index, nl);
        };
        let removal_step = next() % 12;
        for step in 0..12 {
            if step == removal_step {
                let log = remove_register(&mut nl, next());
                let ts = log.touch_set();
                check(&nl, &ts);
                log.undo(&mut nl);
                check(&nl, &ts);
                continue;
            }
            let conflict = engine.conflict_set(&nl, None);
            if conflict.is_empty() {
                break;
            }
            let (idx, m) = &conflict[next() as usize % conflict.len()];
            let mut tx = Tx::new(&mut nl);
            let applied = engine.rules()[*idx].apply(&mut tx, m);
            let log = tx.commit();
            let ts = log.touch_set();
            if applied.is_ok() {
                check(&nl, &ts);
                if next() % 3 != 0 {
                    continue;
                }
            }
            log.undo(&mut nl);
            check(&nl, &ts);
        }
    }

    /// The statistics `IncrementalSta` maintains equal a from-scratch
    /// `statistics()` bit for bit after every refresh, and its endpoints
    /// and worst endpoint equal a fresh analysis's, under real
    /// logic-critic firings on ECL-mapped control logic, committed and
    /// undone. One step per case adds a second driver to a net, which
    /// forces a rebuild; another turns a component into an unexpanded
    /// instance and adds a second one, and the error must name the
    /// first in component order, as `statistics()` does.
    #[test]
    fn maintained_statistics_track_logic_rule_firings(seed in 0u64..400, script in any::<u64>()) {
        let lib = ecl_library();
        let mut nl = map_netlist(&milo::circuits::random_control(150, 8, seed), &lib).expect("maps");
        let engine = Engine::new(milo_opt::logic_rules(&lib));
        let mut inc = IncrementalSta::new(&nl).expect("analyzes");
        assert_stats_equal(&nl, &inc);
        let mut state = script | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let multi_driven_step = next() % 12;
        let hierarchy_step = (multi_driven_step + 1 + next() % 11) % 12;
        for step in 0..12 {
            let log = if step == multi_driven_step {
                let rebuilds = inc.full_rebuilds;
                let log = add_second_driver(&mut nl, next());
                inc.refresh(&nl, &log.touch_set()).expect("refreshes");
                assert_eq!(inc.full_rebuilds, rebuilds + 1, "a multi-driven net rebuilds");
                log
            } else if step == hierarchy_step {
                let (log, first) = add_instances(&mut nl, next());
                inc.refresh(&nl, &log.touch_set()).expect("refreshes");
                assert_eq!(inc.stats().unwrap_err(), NetlistError::HierarchyPresent(first));
                log
            } else {
                let conflict = engine.conflict_set(&nl, Some(inc.sta()));
                if conflict.is_empty() {
                    continue;
                }
                let (idx, m) = conflict[next() as usize % conflict.len()].clone();
                let mut tx = Tx::new(&mut nl);
                let applied = engine.rules()[idx].apply(&mut tx, &m);
                let log = tx.commit();
                if applied.is_ok() {
                    inc.refresh(&nl, &log.touch_set()).expect("refreshes");
                    assert_stats_equal(&nl, &inc);
                    if next() % 3 != 0 {
                        continue;
                    }
                }
                log
            };
            assert_stats_equal(&nl, &inc);
            let ts = log.touch_set();
            log.undo(&mut nl);
            inc.refresh(&nl, &ts).expect("refreshes");
            assert_stats_equal(&nl, &inc);
        }
    }

    /// The incremental `MatchIndex` conflict set equals the full-rescan
    /// conflict set after every step of a randomized apply/undo
    /// sequence — the matcher-side analog of
    /// `incremental_sta_matches_analyze`, mixing rule firings (the
    /// rewrites the engine itself produces) with the generic rewrite
    /// shapes of `random_rewrite`.
    #[test]
    fn match_index_equals_rescan(seed in 0u64..300, script in any::<u64>()) {
        let lib = cmos_library();
        let mut nl = map_netlist(&milo::circuits::random_logic(40, 8, seed), &lib).expect("maps");
        let engine = Engine::new(milo_opt::logic_rules(&lib));
        let mut index = MatchIndex::build(engine.rules(), &RuleCtx { nl: &nl, sta: None });
        assert_index_equals_rescan(&engine, &index, &nl);
        let mut state = script | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10 {
            let r = next();
            // Half the steps fire one of the engine's own rule matches;
            // the other half run a generic random rewrite.
            let log = if r & 1 == 0 {
                let conflict = engine.conflict_set(&nl, None);
                if conflict.is_empty() {
                    random_rewrite(&mut nl, &lib, next())
                } else {
                    let (idx, m) = conflict[(r >> 8) as usize % conflict.len()].clone();
                    let mut tx = Tx::new(&mut nl);
                    let applied = engine.rules()[idx].apply(&mut tx, &m);
                    let log = tx.commit();
                    match applied {
                        Ok(()) => log,
                        Err(_) => {
                            // Rejected rewrite: back out, repair from the
                            // same touch set (it describes both directions).
                            let ts = log.touch_set();
                            log.undo(&mut nl);
                            index.repair(engine.rules(), &RuleCtx { nl: &nl, sta: None }, &ts);
                            assert_index_equals_rescan(&engine, &index, &nl);
                            continue;
                        }
                    }
                }
            } else {
                random_rewrite(&mut nl, &lib, next())
            };
            let ts = log.touch_set();
            if next() & 3 == 0 {
                // Back the rewrite out — the same touch set describes
                // the undo's repair.
                log.undo(&mut nl);
            }
            index.repair(engine.rules(), &RuleCtx { nl: &nl, sta: None }, &ts);
            assert_index_equals_rescan(&engine, &index, &nl);
        }
    }

    /// Keyed and global rules keep their full-scan order in the index,
    /// not merely its multiset: after every step of a randomized
    /// apply/undo sequence on ECL-mapped control logic — rule firings
    /// (duplicate-gate merges favoured) and generic rewrites, with the
    /// STA the power critic reads refreshed from the same touch sets —
    /// each such rule's indexed entries equal `rule.matches()` entry for
    /// entry.
    #[test]
    fn keyed_and_global_index_order_equals_rescan(seed in 0u64..300, script in any::<u64>()) {
        let lib = ecl_library();
        let mut nl = map_netlist(&milo::circuits::random_control(150, 8, seed), &lib).expect("maps");
        let mut rules = milo_opt::logic_rules(&lib);
        rules.push(Box::new(milo_opt::critics::PowerDownSlack::new(lib.clone())));
        let engine = Engine::new(rules);
        let mut inc = IncrementalSta::new(&nl).ok();
        let mut index = MatchIndex::build(engine.rules(), &sta_ctx(&nl, &inc));
        assert_index_order_equals_rescan(&engine, &index, &sta_ctx(&nl, &inc));
        let mut state = script | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..12 {
            let r = next();
            let conflict: Vec<(usize, RuleMatch)> =
                index.iter().map(|(i, m)| (i, m.clone())).collect();
            let merges: Vec<&(usize, RuleMatch)> = conflict
                .iter()
                .filter(|(i, _)| engine.rules()[*i].locality() == Locality::Keyed)
                .collect();
            let pick = if !merges.is_empty() && r & 2 == 0 {
                Some(merges[(r >> 8) as usize % merges.len()])
            } else {
                conflict.get((r >> 8) as usize % conflict.len().max(1))
            };
            let (log, rejected) = match pick {
                Some((idx, m)) if r & 1 == 0 => {
                    let mut tx = Tx::new(&mut nl);
                    let applied = engine.rules()[*idx].apply(&mut tx, m);
                    (tx.commit(), applied.is_err())
                }
                _ => (random_rewrite(&mut nl, &lib, next()), false),
            };
            let ts = log.touch_set();
            // A rejected rewrite is backed out, and so is a quarter of
            // the others; the same touch set describes the undo.
            if rejected || next() & 3 == 0 {
                log.undo(&mut nl);
            }
            refresh_or_rebuild(&mut inc, &nl, &ts);
            index.repair(engine.rules(), &sta_ctx(&nl, &inc), &ts);
            assert_index_order_equals_rescan(&engine, &index, &sta_ctx(&nl, &inc));
        }
    }

    /// A rejected trial rolls the incremental analysis back instead of
    /// re-propagating its undo, and leaves it bit for bit what a fresh
    /// analysis of the restored netlist reads. Random trials on ECL
    /// control logic with registers and a spliced 4-bit adder body
    /// (`TrialBench`): §4 strategy applications (cone merges among
    /// them), power swaps, other local rewrites, adder body swaps
    /// (ripple ↔ carry-lookahead, as the critic's trials make them),
    /// register removals and second drivers, whose refreshes re-derive
    /// the endpoint list or rebuild, so their rollback falls back to a
    /// refresh, and a rewrite that raises a cell while detaching one of
    /// its loads (`raise_and_detach`). Each trial goes through
    /// `judge_trial`, kept or rejected at random (the last three always
    /// rejected); after each, arrivals, predecessors, endpoints, the
    /// worst endpoint and `stats()` equal a fresh `IncrementalSta::new`.
    #[test]
    fn rolled_back_trials_equal_fresh_analysis(seed in 0u64..6, script in any::<u64>()) {
        let lib = ecl_library();
        let mut bench = TrialBench::new(seed, &lib);
        let mut inc = IncrementalSta::new(&bench.nl).ok();
        let hash = milo_rules::HashRuleTable::cached(&milo_rules::LibraryRef { cells: lib.cells() });
        let ctx = milo_opt::StrategyCtx { lib: &lib, hash: &hash };
        let power = milo_opt::critics::PowerDownSlack::new(lib.clone());
        let mut state = script | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut rolled_back, mut fell_back) = (0, 0);
        for step in 0..24 {
            let tracked = inc.as_ref().expect("the design stays acyclic");
            let (rollbacks, rebuilds) = (tracked.rollbacks, tracked.full_rebuilds);
            let r = next();
            let before = structural_hash(&bench.nl);
            let nl = &mut bench.nl;
            let mut keep = r >> 40 & 1 == 0;
            let mut swapped = None;
            let log = match step % 8 {
                0 => {
                    let sites: Vec<ComponentId> = nl.component_ids().collect();
                    let site = sites[(r >> 8) as usize % sites.len()];
                    let strategy = milo_opt::strategy_order(1.0)[(r >> 20) as usize % 8];
                    milo_opt::apply_strategy(strategy, nl, site, tracked.sta(), &ctx)
                }
                1 => {
                    let candidates = power.matches(&RuleCtx { nl, sta: Some(tracked.sta()) });
                    candidates.get((r >> 8) as usize % candidates.len().max(1)).map(|m| {
                        let mut tx = Tx::new(nl);
                        power.apply(&mut tx, m).expect("powers down");
                        tx.commit()
                    })
                }
                2 | 3 => Some(random_rewrite(nl, &lib, r)),
                4 => {
                    let (log, added) = bench.swap_adder();
                    swapped = Some(added);
                    Some(log)
                }
                5 => {
                    keep = false;
                    Some(remove_register(nl, r))
                }
                6 => {
                    keep = false;
                    Some(add_second_driver(nl, r))
                }
                _ => {
                    keep = false;
                    raise_and_detach(nl, r)
                }
            };
            let Some(log) = log else { continue };
            let kept = judge_trial(&mut inc, &mut bench.nl, log, |_| keep).is_some();
            assert_eq!(kept, keep);
            if kept {
                if let Some(added) = swapped {
                    bench.keep_swap(added);
                }
            } else {
                assert_eq!(structural_hash(&bench.nl), before, "step {step}: undo");
            }
            let tracked = inc.as_ref().expect("the design stays acyclic");
            assert_equals_fresh(&bench.nl, tracked, step);
            rolled_back += tracked.rollbacks - rollbacks;
            fell_back += u64::from(!kept && tracked.full_rebuilds > rebuilds);
        }
        prop_assert!(rolled_back > 0, "no trial rolled back from its journal");
        prop_assert!(fell_back > 0, "no rollback fell back to a rebuild");
    }

    /// A full indexed run with the rescan oracle enabled: every
    /// conflict set the engine serves from the repaired index is
    /// asserted equal to a full rescan, and the result still preserves
    /// the circuit function.
    #[test]
    fn indexed_runs_agree_with_oracle(seed in 0u64..60) {
        let lib = cmos_library();
        let mut nl = map_netlist(&milo::circuits::random_logic(60, 10, seed), &lib).expect("maps");
        let golden = nl.clone();
        let mut engine = Engine::new(milo_bench::metarule_rules::metarule_rule_set(&lib));
        engine.set_match_oracle(true);
        engine.run(&mut nl, Selection::OpsOrder, 10_000);
        milo_compilers::verify::check_comb_equivalence(&golden, &nl, 64).expect("function preserved");
    }
}

/// A design for rollback trials: ECL-mapped `random_control(150, 8,
/// seed)` with four registers on nets it drives and a mapped 4-bit
/// adder body spliced in, the adder's inputs on nets the logic drives
/// and its outputs and the registers' on new output ports; and the
/// other carry mode's body to swap the adder's for.
struct TrialBench {
    nl: Netlist,
    /// The ripple and carry-lookahead bodies.
    bodies: [Netlist; 2],
    /// Which body is spliced in, and what its splice added.
    current: usize,
    span: milo_netlist::Spliced,
    /// The adder's pins: body port name, outer net.
    pins: Vec<(String, Option<NetId>)>,
}

impl TrialBench {
    fn new(seed: u64, lib: &TechLibrary) -> Self {
        let mut nl = map_netlist(&milo::circuits::random_control(150, 8, seed), lib).expect("maps");
        let driven: Vec<NetId> = nl.net_ids().filter(|&n| nl.driver(n).is_some()).collect();
        let clock = nl.ports()[0].net;
        let dff = lib.get("DFF").expect("an ECL register").clone();
        for i in 0..4 {
            let r = nl.add_component(format!("reg{i}"), ComponentKind::Tech(dff.clone()));
            let q = nl.add_net(format!("reg{i}_q"));
            nl.connect_named(r, "D", driven[(seed as usize * 5 + i * 31) % driven.len()])
                .expect("connects");
            nl.connect_named(r, "CLK", clock).expect("connects");
            nl.connect_named(r, "Q", q).expect("connects");
            nl.add_port(format!("reg{i}_q"), PinDir::Out, q);
        }
        let mut db = DesignDb::new();
        let bodies = [CarryMode::Ripple, CarryMode::CarryLookahead].map(|mode| {
            let adder = MicroComponent::ArithmeticUnit {
                bits: 4,
                ops: milo_netlist::ArithOps::ADD,
                mode,
            };
            let name = milo_compilers::compile(&adder, &mut db).expect("compiles");
            map_netlist(&db.flatten(&name).expect("flattens"), lib).expect("maps")
        });
        let pins: Vec<(String, Option<NetId>)> = bodies[0]
            .ports()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let net = match p.dir {
                    PinDir::In => driven[(seed as usize * 7 + i * 13) % driven.len()],
                    PinDir::Out => {
                        let net = nl.add_net(format!("adder_{}", p.name));
                        nl.add_port(format!("adder_{}", p.name), PinDir::Out, net);
                        net
                    }
                };
                (p.name.clone(), Some(net))
            })
            .collect();
        let span = nl
            .splice(&bodies[0], "adder", &borrowed_pins(&pins))
            .expect("splices");
        Self {
            nl,
            bodies,
            current: 0,
            span,
            pins,
        }
    }

    /// Swaps the adder's body for the other one, as the critic's trial
    /// does: returns the log and what the splice added.
    fn swap_adder(&mut self) -> (milo_rules::UndoLog, milo_netlist::Spliced) {
        let mut tx = Tx::new(&mut self.nl);
        for id in self.span.components() {
            tx.remove_component(id).expect("removes");
        }
        for net in self.span.nets() {
            tx.remove_net(net).expect("removes");
        }
        let other = &self.bodies[1 - self.current];
        let added = tx
            .splice(other, "adder", &borrowed_pins(&self.pins))
            .expect("splices");
        (tx.commit(), added)
    }

    /// Records a kept swap.
    fn keep_swap(&mut self, added: milo_netlist::Spliced) {
        self.current = 1 - self.current;
        self.span = added;
    }
}

fn borrowed_pins(pins: &[(String, Option<NetId>)]) -> Vec<(&str, Option<NetId>)> {
    pins.iter().map(|(n, net)| (n.as_str(), *net)).collect()
}

/// The tracked analysis against a fresh `IncrementalSta::new`, bit for
/// bit: every net's arrival and predecessor (the first step of the
/// critical path into it), the endpoints, the worst endpoint and the
/// statistics.
fn assert_equals_fresh(nl: &Netlist, inc: &IncrementalSta, step: usize) {
    let fresh = IncrementalSta::new(nl).expect("analyzes");
    for net in nl.net_ids() {
        assert_eq!(
            inc.sta().arrival(net).to_bits(),
            fresh.sta().arrival(net).to_bits(),
            "step {step}: arrival at {net:?}"
        );
        assert_eq!(
            inc.sta().critical_path_back(nl, net).next(),
            fresh.sta().critical_path_back(nl, net).next(),
            "step {step}: predecessor of {net:?}"
        );
    }
    let bits = |e: &[(milo_timing::Endpoint, f64, NetId)]| -> Vec<_> {
        e.iter()
            .map(|(e, a, n)| (e.clone(), a.to_bits(), *n))
            .collect()
    };
    assert_eq!(
        bits(inc.sta().endpoints()),
        bits(fresh.sta().endpoints()),
        "step {step}: endpoints"
    );
    assert_eq!(
        inc.sta().worst().map(|(e, a)| (e.clone(), a.to_bits())),
        fresh.sta().worst().map(|(e, a)| (e.clone(), a.to_bits())),
        "step {step}: worst endpoint"
    );
    assert_eq!(
        stats_bits(inc.stats()),
        stats_bits(fresh.stats()),
        "step {step}: statistics"
    );
}

/// Multiset comparison of the index's conflict set against a raw
/// full-rescan of every rule (no refraction is recorded in these tests,
/// so `Engine::conflict_set` is exactly the rescan).
fn assert_index_equals_rescan(engine: &Engine, index: &MatchIndex, nl: &Netlist) {
    type Key = (usize, ComponentId, Vec<ComponentId>, usize, String);
    let key = |(i, m): &(usize, RuleMatch)| -> Key {
        (*i, m.site, m.aux.clone(), m.choice, m.note.clone())
    };
    let mut indexed: Vec<Key> = index.iter().map(|(i, m)| key(&(i, m.clone()))).collect();
    let mut rescan: Vec<Key> = engine.conflict_set(nl, None).iter().map(key).collect();
    indexed.sort();
    rescan.sort();
    assert_eq!(indexed, rescan, "index diverged from full rescan");
}

/// A rule context reading the tracked analysis, when there is one.
fn sta_ctx<'a>(nl: &'a Netlist, inc: &'a Option<IncrementalSta>) -> RuleCtx<'a> {
    RuleCtx {
        nl,
        sta: inc.as_ref().map(IncrementalSta::sta),
    }
}

/// Each keyed and global rule's indexed entries against its own full
/// rescan, in order.
fn assert_index_order_equals_rescan(engine: &Engine, index: &MatchIndex, ctx: &RuleCtx) {
    let key = |m: &RuleMatch| (m.site, m.aux.clone(), m.choice, m.note.clone());
    for (r, rule) in engine.rules().iter().enumerate() {
        if rule.locality() == Locality::Local {
            continue;
        }
        let indexed: Vec<_> = index
            .iter()
            .filter(|&(i, _)| i == r)
            .map(|(_, m)| key(m))
            .collect();
        let rescan: Vec<_> = rule.matches(ctx).iter().map(key).collect();
        assert_eq!(indexed, rescan, "{}: index order diverged", rule.name());
    }
}

/// Applies one random local rewrite inside a transaction, returning the
/// undo log: a power-level kind change, a buffer splice, or an input pin
/// swap — the shapes the critics and strategies produce.
fn random_rewrite(
    nl: &mut Netlist,
    lib: &milo_techmap::TechLibrary,
    r: u64,
) -> milo_rules::UndoLog {
    let comps: Vec<_> = nl.component_ids().collect();
    let site = comps[(r >> 8) as usize % comps.len()];
    let cell = match &nl.component(site).expect("live").kind {
        ComponentKind::Tech(c) => c.clone(),
        _ => return Tx::new(nl).commit(),
    };
    let mut tx = Tx::new(nl);
    match r % 3 {
        0 => {
            // Swap to a power variant when one exists.
            let variant: Option<TechCell> = lib
                .faster_variant(&cell)
                .or_else(|| lib.slower_variant(&cell))
                .cloned();
            if let Some(v) = variant {
                tx.change_kind(site, ComponentKind::Tech(v))
                    .expect("compatible pins");
            }
        }
        1 => {
            // Splice a buffer after the site's output net.
            let y = tx.netlist().pin_net(site, "Y");
            if let (Some(y), Some(buf)) = (y, lib.buffer().cloned()) {
                let mid = tx.add_net("prop_mid");
                tx.move_loads(y, mid).expect("moves loads");
                let b = tx.add_component("prop_buf", ComponentKind::Tech(buf));
                tx.connect_named(b, "A0", y).expect("connects");
                let out = tx.add_net("prop_out");
                tx.connect_named(b, "Y", out).expect("connects");
                tx.move_loads(mid, out).expect("moves loads");
                tx.remove_net(mid).expect("mid is unused");
            }
        }
        _ => {
            // Swap the first two input pins of a multi-input gate.
            let comp = tx.netlist().component(site).expect("live");
            let ins: Vec<(u16, milo_netlist::NetId)> = comp
                .pins
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dir == PinDir::In)
                .filter_map(|(i, p)| p.net.map(|n| (i as u16, n)))
                .collect();
            if ins.len() >= 2 && ins[0].1 != ins[1].1 {
                tx.disconnect(PinRef::new(site, ins[0].0))
                    .expect("disconnects");
                tx.disconnect(PinRef::new(site, ins[1].0))
                    .expect("disconnects");
                tx.connect(PinRef::new(site, ins[0].0), ins[1].1)
                    .expect("connects");
                tx.connect(PinRef::new(site, ins[1].0), ins[0].1)
                    .expect("connects");
            }
        }
    }
    tx.commit()
}

/// A trial that raises a cell's level while moving one of its loads
/// away, the shape whose rollback needs the journal's levels. From the
/// combinational cell picked by `pick` on, in topological order, the
/// first cell `u` with a combinational load placed before the last
/// combinational cell outside `u`'s fan-out cone: `u`'s first input pin
/// moves onto that last cell's output net, and the load moves onto the
/// pin's old net. The refresh raises `u` above its new driver, so above
/// the detached load; once the trial is undone, the edge to that load
/// is back, and a rollback that kept the raised level would leave the
/// edge pointing down, which debug builds' rollback check reports.
fn raise_and_detach(nl: &mut Netlist, pick: u64) -> Option<milo_rules::UndoLog> {
    let comb = |id: ComponentId| nl.component(id).is_ok_and(|c| !c.kind.is_sequential());
    let out_net = |id: ComponentId| {
        let c = nl.component(id).ok()?;
        c.pins.iter().find(|p| p.dir == PinDir::Out)?.net
    };
    let order: Vec<ComponentId> = nl
        .topo_order()
        .ok()?
        .into_iter()
        .filter(|&id| comb(id))
        .collect();
    let pos: std::collections::HashMap<ComponentId, usize> =
        order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let (pin, old, load, new) = (0..order.len()).find_map(|k| {
        let u = order[(pick as usize + k) % order.len()];
        let (pin, old) = nl
            .component(u)
            .ok()?
            .pins
            .iter()
            .enumerate()
            .find(|(_, p)| p.dir == PinDir::In)
            .and_then(|(i, p)| Some((PinRef::new(u, i as u16), p.net?)))?;
        let mut cone = std::collections::HashSet::new();
        let mut stack = vec![u];
        while let Some(c) = stack.pop() {
            if comb(c) && cone.insert(c) {
                if let Some(net) = out_net(c) {
                    stack.extend(nl.load_pins(net).map(|p| p.component));
                }
            }
        }
        let driver = *order
            .iter()
            .rev()
            .find(|&&id| !cone.contains(&id) && out_net(id).is_some_and(|n| n != old))?;
        let load = nl
            .load_pins(out_net(u)?)
            .find(|p| pos.get(&p.component).is_some_and(|&at| at < pos[&driver]))?;
        Some((pin, old, load, out_net(driver)?))
    })?;
    let mut tx = Tx::new(nl);
    tx.disconnect(pin).ok()?;
    tx.connect(pin, new).ok()?;
    tx.disconnect(load).ok()?;
    tx.connect(load, old).ok()?;
    Some(tx.commit())
}

/// Removes the sequential component picked by `pick` on its own,
/// leaving its output nets undriven.
fn remove_register(nl: &mut Netlist, pick: u64) -> milo_rules::UndoLog {
    let registers: Vec<milo_netlist::ComponentId> = nl
        .component_ids()
        .filter(|&id| nl.component(id).is_ok_and(|c| c.kind.is_sequential()))
        .collect();
    let victim = registers[pick as usize % registers.len()];
    let mut tx = Tx::new(nl);
    tx.remove_component(victim).expect("removes");
    tx.commit()
}

/// A generic inverter from an input port onto the output net of a
/// component picked by `pick`, which gives that net two drivers.
fn add_second_driver(nl: &mut Netlist, pick: u64) -> milo_rules::UndoLog {
    let driven: Vec<milo_netlist::NetId> = nl
        .component_ids()
        .filter_map(|id| {
            let comp = nl.component(id).expect("live id");
            comp.pins
                .iter()
                .find(|p| p.dir == PinDir::Out)
                .and_then(|p| p.net)
        })
        .collect();
    let target = driven[pick as usize % driven.len()];
    let input = nl
        .ports()
        .iter()
        .find(|p| p.dir == PinDir::In)
        .expect("an input port")
        .net;
    let mut tx = Tx::new(nl);
    let extra = tx.add_component(
        "second_driver",
        ComponentKind::Generic(milo_netlist::GenericMacro::Gate(
            milo_netlist::GateFn::Inv,
            1,
        )),
    );
    tx.connect_named(extra, "A0", input).expect("connects");
    tx.connect_named(extra, "Y", target).expect("connects");
    tx.commit()
}

/// Turns the component picked by `pick` into an instance of its own pin
/// layout and adds a second, unconnected instance after it; returns the
/// log and the first instance in component order.
fn add_instances(nl: &mut Netlist, pick: u64) -> (milo_rules::UndoLog, milo_netlist::ComponentId) {
    let ids: Vec<_> = nl.component_ids().collect();
    let first = ids[pick as usize % ids.len()];
    let ports = nl.component(first).expect("live id").kind.pin_specs();
    let mut tx = Tx::new(nl);
    tx.change_kind(
        first,
        ComponentKind::Instance {
            design: "SUB".to_owned(),
            ports,
        },
    )
    .expect("re-kinds");
    tx.add_component(
        "sub",
        ComponentKind::Instance {
            design: "SUB".to_owned(),
            ports: Vec::new(),
        },
    );
    (tx.commit(), first)
}

/// Bit patterns of a statistics result, for exact comparison.
fn stats_bits(
    s: Result<DesignStats, NetlistError>,
) -> Result<(u64, u64, usize, u64), NetlistError> {
    s.map(|s| {
        (
            s.area.to_bits(),
            s.power.to_bits(),
            s.cells,
            s.delay.to_bits(),
        )
    })
}

/// The maintained statistics against `statistics()`, the endpoints
/// against a fresh analysis, and the maintained worst endpoint against
/// `Iterator::max_by` over the endpoints: the last of equal arrivals.
fn assert_stats_equal(nl: &Netlist, inc: &IncrementalSta) {
    assert_eq!(
        stats_bits(inc.stats()),
        stats_bits(statistics(nl)),
        "maintained statistics"
    );
    assert_sta_equal(nl, inc);
    let scan = inc
        .sta()
        .endpoints()
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("arrivals are not NaN"))
        .map(|(e, a, _)| (e, a.to_bits()));
    assert_eq!(
        inc.sta().worst().map(|(e, a)| (e, a.to_bits())),
        scan,
        "worst endpoint"
    );
}

/// Bitwise comparison of the incremental analysis against a from-scratch
/// run: every net arrival, every endpoint, the worst delay, and the
/// critical path into every endpoint (a stale predecessor shows there).
fn assert_sta_equal(nl: &Netlist, inc: &IncrementalSta) {
    let fresh = analyze(nl).expect("analyzes");
    for net in nl.net_ids() {
        assert_eq!(
            inc.sta().arrival(net).to_bits(),
            fresh.arrival(net).to_bits(),
            "arrival mismatch at {net:?}"
        );
    }
    assert_eq!(
        inc.sta().worst_delay().to_bits(),
        fresh.worst_delay().to_bits()
    );
    assert_eq!(inc.sta().endpoints().len(), fresh.endpoints().len());
    for (a, b) in inc.sta().endpoints().iter().zip(fresh.endpoints()) {
        assert_eq!(a.0, b.0, "endpoint identity");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "endpoint arrival");
        assert_eq!(a.2, b.2, "endpoint net");
        assert_eq!(
            inc.sta().critical_path_components(nl, b.2),
            fresh.critical_path_components(nl, b.2),
            "critical path into {:?}",
            b.0
        );
    }
}

/// The feedback elaboration `Elaborator` replaces: every micro component
/// expanded into an instance, the whole hierarchy flattened through a
/// copy of the database, then mapped.
fn reference_elaboration(nl: &Netlist, db: &DesignDb, lib: &TechLibrary) -> Netlist {
    let mut db = db.clone();
    let mut work = nl.clone();
    work.name = format!("{}__ref", nl.name);
    milo_compilers::expand_micro_components(&mut work, &mut db).expect("compiles");
    let top = db.insert(work);
    map_netlist(&db.flatten(&top).expect("flattens"), lib).expect("maps")
}

/// The micro-level designs the stitched elaboration is checked on:
/// Fig. 19 c6–c8, ABADD, and `pipelined_datapath(3..=6, 4|8, 0..2)`.
fn stitched_designs() -> Vec<Netlist> {
    let mut designs: Vec<Netlist> = milo::circuits::fig19_all()
        .into_iter()
        .filter(|case| case.index >= 6)
        .map(|case| case.netlist)
        .collect();
    designs.push(milo::circuits::abadd());
    for stages in 3..=6 {
        for bits in [4, 8] {
            for seed in 0..2 {
                designs.push(milo::circuits::pipelined_datapath(stages, bits, seed));
            }
        }
    }
    designs
}

/// One sorted line per component — name, kind label, `pin=net` by net
/// name — so two netlists compare as graphs, whatever their slot order.
fn graph_lines(nl: &Netlist) -> Vec<String> {
    let mut lines: Vec<String> = nl
        .component_ids()
        .map(|id| {
            let c = nl.component(id).expect("live id");
            let mut line = format!("{} {}", c.name, c.kind.label());
            for pin in &c.pins {
                if let Some(net) = pin.net {
                    let net = &nl.net(net).expect("live net").name;
                    line.push_str(&format!(" {}={net}", pin.name));
                }
            }
            line
        })
        .collect();
    lines.sort();
    lines
}

fn assert_rel_close(what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= want.abs() * 1e-12,
        "{what}: got {got}, want {want}"
    );
}

/// The critic's stitched elaboration against expand → flatten → map →
/// statistics, on every design and every single carry-mode flip of it,
/// with one `Elaborator` (one body cache) per design as in a critic run:
/// the same graph, bit-identical delay and cell count, and area and
/// power equal up to the order of their float sums.
#[test]
fn stitched_elaboration_matches_flatten_and_map() {
    let lib = ecl_library();
    let flips: [&dyn Rule; 2] = [&RippleToCla, &ClaToRipple];
    for nl in stitched_designs() {
        let mut variants = vec![nl.clone()];
        for rule in flips {
            for m in rule.matches(&RuleCtx { nl: &nl, sta: None }) {
                let mut flipped = nl.clone();
                let mut tx = Tx::new(&mut flipped);
                rule.apply(&mut tx, &m).expect("flips");
                tx.commit();
                variants.push(flipped);
            }
        }
        assert!(variants.len() > 1, "{}: no adder to flip", nl.name);
        let mut db = DesignDb::new();
        let mut elab = Elaborator::new();
        for v in &variants {
            let got = elab.measure(v, &mut db, &lib).expect("measures");
            let stitched = elab.elaborate(v, &mut db, &lib).expect("elaborates");
            let reference = reference_elaboration(v, &db, &lib);
            let want = statistics(&reference).expect("analyzes");
            assert_eq!(got.delay.to_bits(), want.delay.to_bits(), "{}", v.name);
            assert_eq!(got.cells, want.cells, "{}", v.name);
            assert_rel_close(&format!("{} area", v.name), got.area, want.area);
            assert_rel_close(&format!("{} power", v.name), got.power, want.power);
            assert_eq!(
                graph_lines(&stitched),
                graph_lines(&reference),
                "{}",
                v.name
            );
        }
    }
}

/// The kind a swap trial gives `kind`: the other carry mode of an adder,
/// or the other design of a [`swap_pin_design`] instance.
fn flipped_kind(kind: &ComponentKind) -> Option<ComponentKind> {
    match kind {
        &ComponentKind::Micro(MicroComponent::ArithmeticUnit { bits, ops, mode }) if bits >= 2 => {
            let mode = match mode {
                CarryMode::Ripple => CarryMode::CarryLookahead,
                CarryMode::CarryLookahead => CarryMode::Ripple,
            };
            Some(ComponentKind::Micro(MicroComponent::ArithmeticUnit {
                bits,
                ops,
                mode,
            }))
        }
        ComponentKind::Instance { design, ports } => {
            let design = match design.as_str() {
                "SWAP_P" => "SWAP_Q",
                "SWAP_Q" => "SWAP_P",
                _ => return None,
            };
            Some(ComponentKind::Instance {
                design: design.into(),
                ports: ports.clone(),
            })
        }
        _ => None,
    }
}

/// `pipelined_datapath(3, 4, 0)` with generic gates on its first
/// adder's outputs (a five-input AND, wider than any ECL cell, and an
/// inverter, to a new output port), so its stitched netlist goes
/// through the mapper and a swap moves arrivals through mapped cells.
fn with_generic_cells() -> Netlist {
    let mut nl = milo::circuits::pipelined_datapath(3, 4, 0);
    nl.name = "pipe3x4_generic".into();
    let adder = nl
        .component_ids()
        .find(|&id| flipped_kind(&nl.component(id).expect("live").kind).is_some())
        .expect("an adder");
    let outs: Vec<NetId> = {
        let c = nl.component(adder).expect("live");
        c.output_pins()
            .filter_map(|pin| c.pins[pin as usize].net)
            .collect()
    };
    let ins: Vec<NetId> = nl
        .ports()
        .iter()
        .filter(|p| p.dir == PinDir::In)
        .map(|p| p.net)
        .collect();
    let and = nl.add_component(
        "glue_and",
        ComponentKind::Generic(GenericMacro::Gate(GateFn::And, 5)),
    );
    for (i, net) in outs.iter().chain(&ins).take(5).enumerate() {
        nl.connect_named(and, &format!("A{i}"), *net)
            .expect("connects");
    }
    let mid = nl.add_net("glue_mid");
    nl.connect_named(and, "Y", mid).expect("connects");
    let inv = nl.add_component(
        "glue_inv",
        ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
    );
    nl.connect_named(inv, "A0", mid).expect("connects");
    let gy = nl.add_net("glue_y");
    nl.connect_named(inv, "Y", gy).expect("connects");
    nl.add_port("glue_y", PinDir::Out, gy);
    nl
}

/// A design whose two bodies use different pins: `SWAP_P` computes
/// `y = !a` and leaves its port `b` unconnected, `SWAP_Q` computes
/// `y = !(a & b)`. The top instantiates one of them twice, with `b` on a
/// net nothing else connects, so only a swap to `SWAP_Q` connects it.
fn swap_pin_design(db: &mut DesignDb) -> Netlist {
    for (name, gate, inputs) in [("SWAP_P", GateFn::Inv, 1), ("SWAP_Q", GateFn::Nand, 2)] {
        let mut inner = Netlist::new(name);
        let [a, b, y] = ["a", "b", "y"].map(|n| inner.add_net(n));
        let g = inner.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(gate, inputs)),
        );
        inner.connect_named(g, "A0", a).expect("connects");
        if inputs == 2 {
            inner.connect_named(g, "A1", b).expect("connects");
        }
        inner.connect_named(g, "Y", y).expect("connects");
        inner.add_port("a", PinDir::In, a);
        inner.add_port("b", PinDir::In, b);
        inner.add_port("y", PinDir::Out, y);
        db.insert(inner);
    }
    let mut nl = Netlist::new("swap_pins");
    let a = nl.add_net("a");
    nl.add_port("a", PinDir::In, a);
    let mut from = a;
    for i in 0..2 {
        let u = nl.add_component(format!("u{i}"), db.instance_kind("SWAP_P").expect("stored"));
        let b = nl.add_net(format!("b{i}"));
        let y = nl.add_net(format!("y{i}"));
        nl.connect_named(u, "a", from).expect("connects");
        nl.connect_named(u, "b", b).expect("connects");
        nl.connect_named(u, "y", y).expect("connects");
        from = y;
    }
    nl.add_port("y", PinDir::Out, from);
    nl
}

/// The graph lines of `elab`'s live stitched netlist, which `at` (a
/// design and step) requires to exist.
fn live_lines(elab: &Elaborator, at: &str) -> Vec<String> {
    let live = elab.stitched();
    graph_lines(live.unwrap_or_else(|| panic!("{at}: the live state was dropped")))
}

/// Statistics as bits, so two measurements compare exactly.
fn stat_bits(s: &DesignStats) -> (u64, u64, usize, u64) {
    (
        s.area.to_bits(),
        s.power.to_bits(),
        s.cells,
        s.delay.to_bits(),
    )
}

/// The oracle for the critic's live stitched netlist: over a seeded
/// sequence of swap trials per design (`Elaborator::measure_swap`),
/// some rolled back and some kept (`Elaborator::keep_swap`), every
/// trial's statistics equal a fresh `measure` of the same micro netlist
/// bit for bit; after a rollback the live netlist is the graph it was
/// before the trial; and after every step it is the graph a fresh
/// elaboration of the current micro netlist builds. Runs on the
/// stitched-elaboration designs, on one with generic cells (the mapper
/// path), and on one whose two bodies use different pins.
#[test]
fn body_swaps_match_fresh_measurements() {
    let lib = ecl_library();
    let mut designs: Vec<(Netlist, DesignDb)> = stitched_designs()
        .into_iter()
        .chain([with_generic_cells()])
        .map(|nl| (nl, DesignDb::new()))
        .collect();
    let mut db = DesignDb::new();
    designs.push((swap_pin_design(&mut db), db));
    for (seed, (mut nl, mut db)) in (1u64..).zip(designs) {
        let mut elab = Elaborator::new();
        elab.measure(&nl, &mut db, &lib).expect("measures");
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let sites: Vec<ComponentId> = nl
            .component_ids()
            .filter(|&id| flipped_kind(&nl.component(id).expect("live").kind).is_some())
            .collect();
        assert!(!sites.is_empty(), "{}: nothing to swap", nl.name);
        for step in 0..3 * sites.len().min(6) {
            let at = format!("{} step {step}", nl.name);
            let site = sites[next() as usize % sites.len()];
            let before = live_lines(&elab, &at);
            let kind = flipped_kind(&nl.component(site).expect("live").kind).expect("swappable");
            let mut tx = Tx::new(&mut nl);
            tx.change_kind(site, kind).expect("re-kinds");
            let got = elab
                .measure_swap(tx.netlist(), site, &mut db, &lib)
                .expect("measures");
            let want = milo_microarch::measure(tx.netlist(), &mut db, &lib).expect("measures");
            assert_eq!(stat_bits(&got), stat_bits(&want), "{at}: trial at {site:?}");
            if next() % 3 == 0 {
                tx.commit();
                elab.keep_swap(&nl, site, &mut db, &lib);
            } else {
                drop(tx);
                assert_eq!(live_lines(&elab, &at), before, "{at}: rollback");
            }
            let fresh = milo_microarch::elaborate(&nl, &mut db, &lib).expect("elaborates");
            assert_eq!(live_lines(&elab, &at), graph_lines(&fresh), "{at}");
        }
    }
}
