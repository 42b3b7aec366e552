//! Equivalence properties guarding the hot-path optimizations: the
//! hashed-dedup division, the memoized kernel extraction, the dense
//! containment pass, parallel per-output minimization, the incremental
//! STA, and the critic's stitched feedback elaboration must all agree
//! exactly with their straightforward (pre-optimization) counterparts.

use milo_logic::{
    divide, espresso, good_factor, good_factor_with_cache, Cover, Cube, KernelCache, TruthTable,
};
use milo_microarch::{ClaToRipple, Elaborator, RippleToCla};
use milo_netlist::{ComponentKind, DesignDb, Netlist, NetlistError, PinDir, PinRef, TechCell};
use milo_rules::{refresh_or_rebuild, Engine, Locality, MatchIndex, Rule, RuleCtx, RuleMatch, Tx};
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

    /// Memoized kernel extraction factors to the same expression as the
    /// uncached path, and the factored form preserves the function.
    #[test]
    fn kernel_cache_is_transparent(vars in 2u8..=6, bits in any::<u64>()) {
        let tt = masked_truth(vars, bits);
        let cover = espresso::minimize(&Cover::from_truth(&tt), None).cover;
        let plain = good_factor(&cover);
        let mut cache = KernelCache::new();
        let cached = good_factor_with_cache(&cover, &mut cache);
        prop_assert_eq!(&plain, &cached);
        // Run a second time through the warm cache: still identical.
        let warm = good_factor_with_cache(&cover, &mut cache);
        prop_assert_eq!(&plain, &warm);
        for row in 0..(1u32 << vars) {
            prop_assert_eq!(cached.eval(row), tt.eval(row), "row {}", row);
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
            let conflict = engine.conflict_set(&nl, Some(inc.sta()), None);
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
        let mut index = engine.build_index(&nl, None, None);
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
            let conflict = engine.conflict_set(&nl, None, None);
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
                let conflict = engine.conflict_set(&nl, Some(inc.sta()), None);
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
        let mut rules = milo_opt::logic_rules(&lib);
        rules.push(Box::new(milo_opt::critics::FanoutRepair::new(lib.clone())));
        let engine = Engine::new(rules);
        let mut index = MatchIndex::build(engine.rules(), &RuleCtx { nl: &nl, sta: None }, None);
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
                let conflict = engine.conflict_set(&nl, None, None);
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
    /// STA the power critics read refreshed from the same touch sets —
    /// each such rule's indexed entries equal `rule.matches()` entry for
    /// entry.
    #[test]
    fn keyed_and_global_index_order_equals_rescan(seed in 0u64..300, script in any::<u64>()) {
        let lib = ecl_library();
        let mut nl = map_netlist(&milo::circuits::random_control(150, 8, seed), &lib).expect("maps");
        let engine = Engine::new(milo_opt::all_rules(&lib));
        let mut inc = IncrementalSta::new(&nl).ok();
        let mut index = MatchIndex::build(engine.rules(), &sta_ctx(&nl, &inc), None);
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

    /// A full indexed sweep run with the rescan oracle enabled: every
    /// conflict set the engine serves from the repaired index is
    /// asserted equal to a full rescan, and the result still preserves
    /// the circuit function.
    #[test]
    fn indexed_sweeps_agree_with_oracle(seed in 0u64..60) {
        let lib = cmos_library();
        let mut nl = map_netlist(&milo::circuits::random_logic(60, 10, seed), &lib).expect("maps");
        let golden = nl.clone();
        let mut engine = Engine::new(milo_bench::metarule_rules::metarule_rule_set(&lib));
        engine.set_match_oracle(true);
        engine.run_sweeps(&mut nl, None, 20);
        milo_compilers::verify::check_comb_equivalence(&golden, &nl, 64).expect("function preserved");
    }
}

/// Multiset comparison of the index's conflict set against a raw
/// full-rescan of every rule (no refraction is recorded in these tests,
/// so `Engine::conflict_set` is exactly the rescan).
fn assert_index_equals_rescan(engine: &Engine, index: &MatchIndex, nl: &Netlist) {
    type Key = (
        usize,
        milo_netlist::ComponentId,
        Vec<milo_netlist::ComponentId>,
        Vec<PinRef>,
        usize,
        String,
    );
    let key = |(i, m): &(usize, milo_rules::RuleMatch)| -> Key {
        (
            *i,
            m.site,
            m.aux.clone(),
            m.pins.clone(),
            m.choice,
            m.note.clone(),
        )
    };
    let mut indexed: Vec<Key> = index.iter().map(|(i, m)| key(&(i, m.clone()))).collect();
    let mut rescan: Vec<Key> = engine
        .conflict_set(nl, None, None)
        .iter()
        .map(key)
        .collect();
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
    let key = |m: &RuleMatch| {
        (
            m.site,
            m.aux.clone(),
            m.pins.clone(),
            m.choice,
            m.note.clone(),
        )
    };
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
    let flips: [&dyn Rule; 2] = [&RippleToCla, &ClaToRipple];
    for nl in designs {
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
