//! Property-based tests over the core invariants, spanning crates.

use milo_compilers::verify::{
    check_comb_equivalence, check_seq_equivalence, micro_wrapper, XorShift,
};
use milo_logic::{espresso, good_factor, Cover, TruthTable};
use milo_netlist::{
    ArithOps, CarryMode, CmpOp, ComponentId, ComponentKind, ControlSet, CounterFunctions, DesignDb,
    GateFn, GenericMacro, MicroComponent, NetId, Netlist, PinDir, PinRef, RegFunctions, Trigger,
};
use milo_rules::{Engine, Selection, Tx, UndoLog};
use milo_techmap::{cmos_library, ecl_library, map_netlist};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ESPRESSO minimization preserves the function exactly and never
    /// increases the literal count.
    #[test]
    fn espresso_preserves_function(vars in 2u8..=5, bits in any::<u64>()) {
        let mask = if vars == 6 { u64::MAX } else { (1u64 << (1u32 << vars)) - 1 };
        let tt = TruthTable::new(vars, bits & mask);
        let flat = Cover::from_truth(&tt);
        let res = espresso::minimize(&flat, None);
        prop_assert_eq!(res.cover.to_truth(), tt);
        prop_assert!(res.literals_after <= res.literals_before);
        prop_assert!(espresso::verify(&res.cover, &flat, None));
    }

    /// Weak-division factoring preserves the function.
    #[test]
    fn factoring_preserves_function(vars in 2u8..=5, bits in any::<u64>()) {
        let mask = if vars == 6 { u64::MAX } else { (1u64 << (1u32 << vars)) - 1 };
        let tt = TruthTable::new(vars, bits & mask);
        let cover = espresso::minimize(&Cover::from_truth(&tt), None).cover;
        let expr = good_factor(&cover);
        for row in 0..(1u32 << vars) {
            prop_assert_eq!(expr.eval(row), tt.eval(row), "row {}", row);
        }
        prop_assert!(expr.literal_count() <= cover.literal_count());
    }

    /// The arithmetic-unit compiler is correct for every parameter
    /// combination (checked against the word-level model by simulation).
    #[test]
    fn arith_compiler_correct(
        bits in 1u8..=5,
        add in any::<bool>(),
        sub in any::<bool>(),
        inc in any::<bool>(),
        dec in any::<bool>(),
        cla in any::<bool>(),
    ) {
        let ops = ArithOps { add, sub, inc, dec };
        prop_assume!(!ops.ops().is_empty());
        let mode = if cla { CarryMode::CarryLookahead } else { CarryMode::Ripple };
        let micro = MicroComponent::ArithmeticUnit { bits, ops, mode };
        let mut db = DesignDb::new();
        let name = milo_compilers::compile(&micro, &mut db).expect("compiles");
        let flat = db.flatten(&name).expect("flattens");
        check_comb_equivalence(&micro_wrapper(micro), &flat, 2000)
            .map_err(TestCaseError::fail)?;
    }

    /// The register compiler is correct for every parameter combination.
    #[test]
    fn register_compiler_correct(
        bits in 1u8..=4,
        shift_left in any::<bool>(),
        shift_right in any::<bool>(),
        set in any::<bool>(),
        reset in any::<bool>(),
        enable in any::<bool>(),
    ) {
        let funcs = RegFunctions { load: true, shift_left, shift_right };
        let ctrl = ControlSet { set, reset, enable };
        let micro = MicroComponent::Register {
            bits,
            trigger: Trigger::EdgeTriggered,
            funcs,
            ctrl,
        };
        let mut db = DesignDb::new();
        let name = milo_compilers::compile(&micro, &mut db).expect("compiles");
        let flat = db.flatten(&name).expect("flattens");
        check_seq_equivalence(&micro_wrapper(micro), &flat, 120, 5)
            .map_err(TestCaseError::fail)?;
    }

    /// The counter compiler is correct for every parameter combination.
    #[test]
    fn counter_compiler_correct(
        bits in 1u8..=4,
        load in any::<bool>(),
        up in any::<bool>(),
        down in any::<bool>(),
        reset in any::<bool>(),
        enable in any::<bool>(),
    ) {
        let funcs = CounterFunctions { load, up, down };
        let ctrl = ControlSet { set: false, reset, enable };
        let micro = MicroComponent::Counter { bits, funcs, ctrl };
        let mut db = DesignDb::new();
        let name = milo_compilers::compile(&micro, &mut db).expect("compiles");
        let flat = db.flatten(&name).expect("flattens");
        check_seq_equivalence(&micro_wrapper(micro), &flat, 150, 9)
            .map_err(TestCaseError::fail)?;
    }

    /// The comparator compiler is correct for every predicate and width.
    #[test]
    fn comparator_compiler_correct(bits in 1u8..=5, op_idx in 0usize..6) {
        let function = [CmpOp::Eq, CmpOp::Lt, CmpOp::Gt, CmpOp::Le, CmpOp::Ge, CmpOp::Ne][op_idx];
        let micro = MicroComponent::Comparator { bits, function };
        let mut db = DesignDb::new();
        let name = milo_compilers::compile(&micro, &mut db).expect("compiles");
        let flat = db.flatten(&name).expect("flattens");
        check_comb_equivalence(&micro_wrapper(micro), &flat, 2000)
            .map_err(TestCaseError::fail)?;
    }

    /// Technology mapping preserves combinational behaviour on random
    /// logic, in both libraries.
    #[test]
    fn mapping_preserves_random_logic(seed in 0u64..5000, ecl in any::<bool>()) {
        let nl = milo::circuits::random_logic(40, 8, seed);
        let lib = if ecl { ecl_library() } else { cmos_library() };
        let mapped = map_netlist(&nl, &lib).expect("maps");
        check_comb_equivalence(&nl, &mapped, 300).map_err(TestCaseError::fail)?;
    }

    /// The logic-critic rule engine never changes circuit behaviour.
    #[test]
    fn logic_rules_preserve_function(seed in 0u64..5000) {
        let lib = cmos_library();
        let nl = milo::circuits::random_logic(50, 8, seed);
        let mapped = map_netlist(&nl, &lib).expect("maps");
        let mut work = mapped.clone();
        let mut engine = Engine::new(milo_opt::logic_rules(&lib));
        engine.run(&mut work, Selection::OpsOrder, 500);
        check_comb_equivalence(&mapped, &work, 300).map_err(TestCaseError::fail)?;
    }

    /// Wide-gate compilation matches the gate function for every width.
    #[test]
    fn wide_gate_compiler_correct(inputs in 2u8..=10, fn_idx in 0usize..6) {
        let function = [GateFn::And, GateFn::Or, GateFn::Nand, GateFn::Nor, GateFn::Xor, GateFn::Xnor][fn_idx];
        let micro = MicroComponent::Gate { function, inputs };
        let mut db = DesignDb::new();
        let name = milo_compilers::compile(&micro, &mut db).expect("compiles");
        let flat = db.flatten(&name).expect("flattens");
        check_comb_equivalence(&micro_wrapper(micro), &flat, 1024)
            .map_err(TestCaseError::fail)?;
    }

    /// The multiplexor compiler is correct for every width/way/enable
    /// combination the generic library supports.
    #[test]
    fn mux_compiler_correct(
        bits in 1u8..=3,
        ways_log in 1u32..=3,
        enable in any::<bool>(),
    ) {
        let inputs = 1u8 << ways_log;
        let micro = MicroComponent::Multiplexor { bits, inputs, enable };
        let mut db = DesignDb::new();
        let name = milo_compilers::compile(&micro, &mut db).expect("compiles");
        let flat = db.flatten(&name).expect("flattens");
        check_comb_equivalence(&micro_wrapper(micro), &flat, 2000)
            .map_err(TestCaseError::fail)?;
    }

    /// The decoder compiler is correct for every width/enable combination.
    #[test]
    fn decoder_compiler_correct(bits in 1u8..=4, enable in any::<bool>()) {
        let micro = MicroComponent::Decoder { bits, enable };
        let mut db = DesignDb::new();
        let name = milo_compilers::compile(&micro, &mut db).expect("compiles");
        let flat = db.flatten(&name).expect("flattens");
        check_comb_equivalence(&micro_wrapper(micro), &flat, 0)
            .map_err(TestCaseError::fail)?;
    }

    /// The logic-unit compiler is correct across functions/widths/fanins.
    #[test]
    fn logic_unit_compiler_correct(
        bits in 1u8..=3,
        inputs in 2u8..=6,
        fn_idx in 0usize..6,
    ) {
        let function = [GateFn::And, GateFn::Or, GateFn::Nand, GateFn::Nor, GateFn::Xor, GateFn::Xnor][fn_idx];
        let micro = MicroComponent::LogicUnit { function, inputs, bits };
        let mut db = DesignDb::new();
        let name = milo_compilers::compile(&micro, &mut db).expect("compiles");
        let flat = db.flatten(&name).expect("flattens");
        check_comb_equivalence(&micro_wrapper(micro), &flat, 2000)
            .map_err(TestCaseError::fail)?;
    }
}

/// One net's answers to `driver`, `drivers`, `driver_count`,
/// `load_count`, `fanout`, `net_is_port_bound` and `net_is_port_driven`.
type NetAnswers = (Option<PinRef>, Vec<PinRef>, usize, usize, usize, bool, bool);

/// The answers as the netlist's maintained counts give them.
fn queried(nl: &Netlist, net: NetId) -> NetAnswers {
    (
        nl.driver(net),
        nl.drivers(net).collect(),
        nl.driver_count(net),
        nl.load_count(net),
        nl.fanout(net),
        nl.net_is_port_bound(net),
        nl.net_is_port_driven(net),
    )
}

/// The oracle: the answers by the scans the counts replaced, over the
/// net's connections and the whole port list.
fn scanned(nl: &Netlist, net: NetId) -> NetAnswers {
    let pins = |dir: PinDir| -> Vec<PinRef> {
        let Ok(n) = nl.net(net) else {
            return Vec::new();
        };
        n.connections
            .iter()
            .copied()
            .filter(|p| {
                nl.component(p.component)
                    .ok()
                    .and_then(|c| c.pins.get(p.pin as usize))
                    .is_some_and(|pin| pin.dir == dir)
            })
            .collect()
    };
    let ports = |dir: Option<PinDir>| {
        nl.ports()
            .iter()
            .filter(|p| p.net == net && dir.is_none_or(|d| p.dir == d))
            .count()
    };
    let (drivers, loads) = (pins(PinDir::Out), pins(PinDir::In));
    (
        drivers.first().copied(),
        drivers.clone(),
        drivers.len(),
        loads.len(),
        loads.len() + ports(Some(PinDir::Out)),
        ports(None) > 0,
        ports(Some(PinDir::In)) > 0,
    )
}

fn pick<T: Copy>(rng: &mut XorShift, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[(rng.next_u64() % items.len() as u64) as usize])
}

/// A random pin of a random live component, and the net it is on.
fn random_pin(rng: &mut XorShift, nl: &Netlist) -> Option<(PinRef, PinDir, Option<NetId>)> {
    let comp = pick(rng, &nl.component_ids().collect::<Vec<_>>())?;
    let pins = &nl.component(comp).ok()?.pins;
    let i = (rng.next_u64() % pins.len() as u64) as usize;
    Some((PinRef::new(comp, i as u16), pins[i].dir, pins[i].net))
}

/// One random edit inside a transaction. Refused edits (a removal of a
/// net in use, a connection of a connected pin) are part of the mix:
/// they must leave the counts as they were.
fn random_edit(rng: &mut XorShift, tx: &mut Tx, nets: &mut Vec<NetId>) {
    let live: Vec<NetId> = tx.netlist().net_ids().collect();
    let comps: Vec<ComponentId> = tx.netlist().component_ids().collect();
    match rng.next_u64() % 9 {
        0 => {
            let net = tx.add_net(format!("n{}", nets.len()));
            if !nets.contains(&net) {
                nets.push(net);
            }
        }
        1 => {
            let kind = match rng.next_u64() % 4 {
                0 => GenericMacro::Gate(GateFn::Inv, 1),
                1 => GenericMacro::Gate(GateFn::And, 2),
                2 => GenericMacro::Gate(GateFn::Or, 3),
                _ => GenericMacro::Dff {
                    set: false,
                    reset: false,
                    enable: false,
                },
            };
            tx.add_component("g", ComponentKind::Generic(kind));
        }
        2 | 3 => {
            if let (Some((pin, _, None)), Some(net)) =
                (random_pin(rng, tx.netlist()), pick(rng, &live))
            {
                let _ = tx.connect(pin, net);
            }
        }
        4 => {
            if let Some((pin, _, Some(_))) = random_pin(rng, tx.netlist()) {
                let _ = tx.disconnect(pin);
            }
        }
        5 => {
            if let Some(id) = pick(rng, &comps) {
                let _ = tx.remove_component(id);
            }
        }
        6 => {
            if let Some(net) = pick(rng, &live) {
                let _ = tx.remove_net(net);
            }
        }
        7 => {
            // A multi-driven rewire, as `FaultInjector::corrupt` makes:
            // an output pin moves onto a net another pin already drives.
            let driven: Vec<NetId> = live
                .iter()
                .copied()
                .filter(|&n| tx.netlist().driver(n).is_some())
                .collect();
            if let (Some((pin, PinDir::Out, Some(_))), Some(target)) =
                (random_pin(rng, tx.netlist()), pick(rng, &driven))
            {
                let _ = tx.disconnect(pin);
                let _ = tx.connect(pin, target);
            }
        }
        _ => {
            // A kind swap with an identical pin layout.
            if let Some(id) = pick(rng, &comps) {
                let swapped = match tx.netlist().component(id).map(|c| &c.kind) {
                    Ok(ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1))) => GateFn::Buf,
                    Ok(ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1))) => GateFn::Inv,
                    _ => return,
                };
                let kind = ComponentKind::Generic(GenericMacro::Gate(swapped, 1));
                tx.change_kind(id, kind).expect("live component");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-net counts the netlist maintains answer every query as
    /// the scans they replaced, across random edits in committed and
    /// rolled-back transactions, undone logs (which free tail slots),
    /// port additions and fault-injected multi-driven rewires.
    #[test]
    fn net_counts_match_scans(seed in 0u64..5000) {
        let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut nl = Netlist::new("counts");
        let mut nets = Vec::new();
        let mut logs: Vec<UndoLog> = Vec::new();
        for step in 0..60 {
            match rng.next_u64() % 10 {
                0..=5 => {
                    let mut tx = Tx::new(&mut nl);
                    for _ in 0..1 + rng.next_u64() % 6 {
                        random_edit(&mut rng, &mut tx, &mut nets);
                    }
                    if rng.next_u64().is_multiple_of(3) {
                        drop(tx); // rolled back
                    } else {
                        logs.push(tx.commit());
                    }
                }
                6 | 7 => {
                    if let Some(log) = logs.pop() {
                        log.undo(&mut nl);
                    }
                }
                // Edits outside any transaction make the logs taken so far
                // unreplayable: drop them.
                8 => {
                    if let Some(net) = pick(&mut rng, &nl.net_ids().collect::<Vec<_>>()) {
                        let dir = if rng.next_u64().is_multiple_of(2) { PinDir::In } else { PinDir::Out };
                        nl.add_port(format!("p{step}"), dir, net);
                        logs.clear();
                    }
                }
                _ => {
                    if milo::FaultInjector::corrupt(&mut nl) {
                        logs.clear();
                    }
                }
            }
            // Every net ever allocated, live or not.
            for &net in &nets {
                prop_assert_eq!(queried(&nl, net), scanned(&nl, net), "{:?} after step {}", net, step);
            }
        }
    }
}
