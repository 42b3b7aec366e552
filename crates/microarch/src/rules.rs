//! Microarchitecture-level rewrite rules (§6.3).
//!
//! Rules here match on parameterized [`MicroComponent`]s and their
//! interconnection — "rules at the microarchitectural level are based
//! primarily on the parameters that describe each component as well as
//! their interconnection to other components".

#[cfg(test)]
use milo_netlist::ArithOps;
use milo_netlist::{
    ArithOp, CarryMode, ComponentId, ComponentKind, ControlSet, CounterFunctions, GateFn,
    GenericMacro, MicroComponent, NetId, Netlist, NetlistError, PinDir, RegFunctions, Trigger,
};
use milo_rules::{Rule, RuleClass, RuleCtx, RuleMatch, Tx};

/// Constant value driven onto `net`, if its driver is a constant source.
pub fn const_value(nl: &Netlist, net: NetId) -> Option<bool> {
    let drv = nl.driver(net)?;
    match &nl.component(drv.component).ok()?.kind {
        ComponentKind::Generic(GenericMacro::Vdd) => Some(true),
        ComponentKind::Generic(GenericMacro::Vss) => Some(false),
        ComponentKind::Tech(c) => match c.function {
            milo_netlist::CellFunction::Const(b) => Some(b),
            _ => None,
        },
        _ => None,
    }
}

fn micro_of(nl: &Netlist, id: ComponentId) -> Option<MicroComponent> {
    match nl.component(id).ok()?.kind {
        ComponentKind::Micro(m) => Some(m),
        _ => None,
    }
}

/// Fig. 14/15: an adder that increments a register feeding back into it is
/// a counter. The antecedent follows Fig. 15: adder + register, SUM → D,
/// Q → adder input, the other adder operand is the constant 1, COUT
/// unconnected, and the register has a Reset pin.
pub struct AdderRegToCounter;

impl AdderRegToCounter {
    fn match_at(nl: &Netlist, au_id: ComponentId) -> Option<RuleMatch> {
        let au = micro_of(nl, au_id)?;
        let MicroComponent::ArithmeticUnit { bits, ops, .. } = au else {
            return None;
        };
        let inc_only = ops.ops() == [ArithOp::Inc];
        let add_only = ops.ops() == [ArithOp::Add];
        if !inc_only && !add_only {
            return None;
        }
        // COUT must be unconnected or dead.
        if let Some(co) = nl.pin_net(au_id, "COUT") {
            if nl.fanout(co) > 0 {
                return None;
            }
        }
        // For add-only units, B must be the constant 1 and CIN constant 0.
        if add_only {
            for i in 0..bits {
                let b = nl.pin_net(au_id, &format!("B{i}"))?;
                let want = i == 0;
                if const_value(nl, b) != Some(want) {
                    return None;
                }
            }
            if let Some(cin) = nl.pin_net(au_id, "CIN") {
                if nl.fanout(cin) > 0 || nl.net_is_port_driven(cin) {
                    // CIN is an input pin; check constant-0 drive instead.
                }
                if const_value(nl, cin) != Some(false) && nl.driver(cin).is_some() {
                    return None;
                }
                if nl.net_is_port_driven(cin) {
                    return None; // externally controlled carry-in
                }
            }
        }
        // Every sum bit must feed exactly one register's D input.
        let mut reg_id: Option<ComponentId> = None;
        for i in 0..bits {
            let s = nl.pin_net(au_id, &format!("S{i}"))?;
            let loads = nl.loads(s);
            if loads.len() != 1 || nl.fanout(s) != 1 {
                return None;
            }
            let load = loads[0];
            let comp = nl.component(load.component).ok()?;
            if comp.pins[load.pin as usize].name != format!("D{i}") {
                return None;
            }
            match reg_id {
                None => reg_id = Some(load.component),
                Some(r) if r == load.component => {}
                _ => return None,
            }
        }
        let reg_id = reg_id?;
        let reg = micro_of(nl, reg_id)?;
        let MicroComponent::Register {
            bits: rbits,
            trigger,
            funcs,
            ctrl,
        } = reg
        else {
            return None;
        };
        if rbits != bits
            || trigger != Trigger::EdgeTriggered
            || funcs != RegFunctions::LOAD
            || !ctrl.reset
            || ctrl.set
            || ctrl.enable
        {
            return None;
        }
        // Q must feed back into the adder's A inputs.
        for i in 0..bits {
            let q = nl.pin_net(reg_id, &format!("Q{i}"))?;
            let a = nl.pin_net(au_id, &format!("A{i}"))?;
            if q != a {
                return None;
            }
        }
        Some(
            RuleMatch::at(au_id)
                .with_aux(vec![reg_id])
                .with_note(format!("adder+register -> {bits}-bit counter")),
        )
    }
}

impl Rule for AdderRegToCounter {
    fn name(&self) -> &'static str {
        "adder-register-to-counter"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Micro
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        ctx.nl
            .component_ids()
            .filter_map(|id| Self::match_at(ctx.nl, id))
            .collect()
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let nl = tx.netlist();
        let au_id = m.site;
        let reg_id = m.aux[0];
        let Some(MicroComponent::ArithmeticUnit { bits, .. }) = micro_of(nl, au_id) else {
            return Err(NetlistError::NoSuchComponent(au_id));
        };
        // Gather the register's nets.
        let rst = nl
            .pin_net(reg_id, "RST")
            .ok_or(NetlistError::NoSuchComponent(reg_id))?;
        let clk = nl
            .pin_net(reg_id, "CLK")
            .ok_or(NetlistError::NoSuchComponent(reg_id))?;
        let f0 = nl.pin_net(reg_id, "F0");
        let q_nets: Vec<NetId> = (0..bits)
            .map(|i| nl.pin_net(reg_id, &format!("Q{i}")).expect("matched"))
            .collect();
        // The load-select line becomes the counter enable, unless it is
        // tied high ("always counting").
        let enable_net = f0.filter(|&n| const_value(nl, n) != Some(true));
        let ctr = MicroComponent::Counter {
            bits,
            funcs: CounterFunctions::UP,
            ctrl: ControlSet {
                set: false,
                reset: true,
                enable: enable_net.is_some(),
            },
        };
        tx.remove_component(au_id)?;
        tx.remove_component(reg_id)?;
        let c = tx.add_component(format!("ctr{}", au_id.index()), ComponentKind::Micro(ctr));
        tx.connect_named(c, "RST", rst)?;
        tx.connect_named(c, "CLK", clk)?;
        if let Some(en) = enable_net {
            tx.connect_named(c, "EN", en)?;
        }
        for (i, q) in q_nets.iter().enumerate() {
            tx.connect_named(c, &format!("Q{i}"), *q)?;
        }
        Ok(())
    }
}

/// Ripple → carry-lookahead swap: "changing the parameters of the adder to
/// instantiate a carry-lookahead model" (§6.3) — a time-for-area tradeoff.
pub struct RippleToCla;

impl Rule for RippleToCla {
    fn name(&self) -> &'static str {
        "ripple-to-carry-lookahead"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Timing
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        ctx.nl
            .component_ids()
            .filter(|&id| {
                matches!(
                    micro_of(ctx.nl, id),
                    Some(MicroComponent::ArithmeticUnit { mode: CarryMode::Ripple, bits, .. })
                        if bits >= 2
                )
            })
            .map(|id| RuleMatch::at(id).with_note("ripple -> CLA"))
            .collect()
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let Some(MicroComponent::ArithmeticUnit { bits, ops, .. }) = micro_of(tx.netlist(), m.site)
        else {
            return Err(NetlistError::NoSuchComponent(m.site));
        };
        tx.change_kind(
            m.site,
            ComponentKind::Micro(MicroComponent::ArithmeticUnit {
                bits,
                ops,
                mode: CarryMode::CarryLookahead,
            }),
        )
    }
}

/// Carry-lookahead → ripple: recovers area on paths with timing slack.
pub struct ClaToRipple;

impl Rule for ClaToRipple {
    fn name(&self) -> &'static str {
        "carry-lookahead-to-ripple"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Area
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        ctx.nl
            .component_ids()
            .filter(|&id| {
                matches!(
                    micro_of(ctx.nl, id),
                    Some(MicroComponent::ArithmeticUnit {
                        mode: CarryMode::CarryLookahead,
                        ..
                    })
                )
            })
            .map(|id| RuleMatch::at(id).with_note("CLA -> ripple"))
            .collect()
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let Some(MicroComponent::ArithmeticUnit { bits, ops, .. }) = micro_of(tx.netlist(), m.site)
        else {
            return Err(NetlistError::NoSuchComponent(m.site));
        };
        tx.change_kind(
            m.site,
            ComponentKind::Micro(MicroComponent::ArithmeticUnit {
                bits,
                ops,
                mode: CarryMode::Ripple,
            }),
        )
    }
}

/// Merges two cascaded 2:1 word multiplexors into one 4:1 multiplexor.
pub struct MuxCascadeMerge;

impl MuxCascadeMerge {
    /// Returns (inner, outer, feeds_d1) when `inner`'s outputs exclusively
    /// feed one data word of `outer`.
    fn match_at(nl: &Netlist, inner_id: ComponentId) -> Option<RuleMatch> {
        let Some(MicroComponent::Multiplexor {
            bits,
            inputs: 2,
            enable: false,
        }) = micro_of(nl, inner_id)
        else {
            return None;
        };
        let mut outer: Option<(ComponentId, u8)> = None; // (id, which data word)
        for j in 0..bits {
            let y = nl.pin_net(inner_id, &format!("Y{j}"))?;
            if nl.fanout(y) != 1 {
                return None;
            }
            let load = nl.loads(y).into_iter().next()?;
            let comp = nl.component(load.component).ok()?;
            let pin_name = comp.pins[load.pin as usize].name.clone();
            let word = if pin_name == format!("D0_{j}") {
                0u8
            } else if pin_name == format!("D1_{j}") {
                1u8
            } else {
                return None;
            };
            match outer {
                None => outer = Some((load.component, word)),
                Some((id, w)) if id == load.component && w == word => {}
                _ => return None,
            }
        }
        let (outer_id, word) = outer?;
        let Some(MicroComponent::Multiplexor {
            bits: ob,
            inputs: 2,
            enable: false,
        }) = micro_of(nl, outer_id)
        else {
            return None;
        };
        if ob != bits || outer_id == inner_id {
            return None;
        }
        Some(
            RuleMatch::at(inner_id)
                .with_aux(vec![outer_id])
                .with_choice(word as usize)
                .with_note(format!("2:1 mux cascade -> 4:1 ({bits} bits)")),
        )
    }
}

impl Rule for MuxCascadeMerge {
    fn name(&self) -> &'static str {
        "mux-cascade-merge"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Micro
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        ctx.nl
            .component_ids()
            .filter_map(|id| Self::match_at(ctx.nl, id))
            .collect()
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let nl = tx.netlist();
        let inner = m.site;
        let outer = m.aux[0];
        let feeds_word = m.choice as u8;
        let Some(MicroComponent::Multiplexor { bits, .. }) = micro_of(nl, inner) else {
            return Err(NetlistError::NoSuchComponent(inner));
        };
        let get = |id: ComponentId, pin: String| nl.pin_net(id, &pin);
        let a: Vec<NetId> = (0..bits)
            .map(|j| get(inner, format!("D0_{j}")).expect("matched"))
            .collect();
        let b: Vec<NetId> = (0..bits)
            .map(|j| get(inner, format!("D1_{j}")).expect("matched"))
            .collect();
        let other_word = 1 - feeds_word;
        let c: Vec<NetId> = (0..bits)
            .map(|j| get(outer, format!("D{other_word}_{j}")).expect("matched"))
            .collect();
        let y: Vec<NetId> = (0..bits)
            .map(|j| get(outer, format!("Y{j}")).expect("matched"))
            .collect();
        let s = get(inner, "S0".into()).expect("matched");
        let t = get(outer, "S0".into()).expect("matched");
        tx.remove_component(inner)?;
        tx.remove_component(outer)?;
        let mux = MicroComponent::Multiplexor {
            bits,
            inputs: 4,
            enable: false,
        };
        let mid = tx.add_component(format!("mx4_{}", inner.index()), ComponentKind::Micro(mux));
        // Y = T ? C : (S?B:A) when inner feeds D0 → order (A,B,C,C);
        // Y = T ? (S?B:A) : C when inner feeds D1 → order (C,C,A,B).
        let words: [&Vec<NetId>; 4] = if feeds_word == 0 {
            [&a, &b, &c, &c]
        } else {
            [&c, &c, &a, &b]
        };
        for (w, nets) in words.iter().enumerate() {
            for (j, net) in nets.iter().enumerate() {
                tx.connect_named(mid, &format!("D{w}_{j}"), *net)?;
            }
        }
        tx.connect_named(mid, "S0", s)?;
        tx.connect_named(mid, "S1", t)?;
        for (j, net) in y.iter().enumerate() {
            tx.connect_named(mid, &format!("Y{j}"), *net)?;
        }
        Ok(())
    }
}

/// LSS-style decoder/OR simplification (Fig. 7a): an OR over one-hot
/// decoder outputs is a simple function of the address; when the covered
/// minterm set is a single address literal, the OR collapses to a
/// buffer/inverter on that address line.
pub struct DecoderOrSimplify;

impl DecoderOrSimplify {
    fn match_at(nl: &Netlist, or_id: ComponentId) -> Option<RuleMatch> {
        let comp = nl.component(or_id).ok()?;
        let ComponentKind::Generic(GenericMacro::Gate(GateFn::Or, _)) = comp.kind else {
            return None;
        };
        // Every input must come from the same decoder, exclusively.
        let mut dec: Option<ComponentId> = None;
        let mut minterms: Vec<u32> = Vec::new();
        for pin_idx in comp.input_pins() {
            let net = comp.pins[pin_idx as usize].net?;
            if nl.fanout(net) != 1 {
                return None;
            }
            let drv = nl.driver(net)?;
            let d = nl.component(drv.component).ok()?;
            let rest = d.pins[drv.pin as usize].name.strip_prefix('Y')?;
            let idx: u32 = rest.parse().ok()?;
            match &d.kind {
                ComponentKind::Micro(MicroComponent::Decoder { enable: false, .. }) => {}
                _ => return None,
            }
            match dec {
                None => dec = Some(drv.component),
                Some(x) if x == drv.component => {}
                _ => return None,
            }
            minterms.push(idx);
        }
        let dec = dec?;
        let Some(MicroComponent::Decoder { bits, .. }) = micro_of(nl, dec) else {
            return None;
        };
        minterms.sort_unstable();
        minterms.dedup();
        // Single-literal check: S == {i : bit k of i == phase}.
        for k in 0..bits {
            for phase in [true, false] {
                let expect: Vec<u32> = (0..(1u32 << bits))
                    .filter(|i| (i >> k & 1 == 1) == phase)
                    .collect();
                if minterms == expect {
                    return Some(
                        RuleMatch::at(or_id)
                            .with_aux(vec![dec])
                            .with_choice((k as usize) << 1 | usize::from(phase))
                            .with_note(format!(
                                "OR of decoder outputs = {}A{k}",
                                if phase { "" } else { "!" }
                            )),
                    );
                }
            }
        }
        None
    }
}

impl Rule for DecoderOrSimplify {
    fn name(&self) -> &'static str {
        "decoder-or-simplify"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Micro
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        ctx.nl
            .component_ids()
            .filter_map(|id| Self::match_at(ctx.nl, id))
            .collect()
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let or_id = m.site;
        let dec = m.aux[0];
        let k = (m.choice >> 1) as u8;
        let phase = m.choice & 1 == 1;
        let addr = tx
            .netlist()
            .pin_net(dec, &format!("A{k}"))
            .expect("matched");
        let y = tx
            .netlist()
            .component(or_id)?
            .pins
            .iter()
            .find(|p| p.dir == PinDir::Out)
            .and_then(|p| p.net)
            .ok_or(NetlistError::NoSuchComponent(or_id))?;
        tx.remove_component(or_id)?;
        let g = tx.add_component(
            format!("dor{}", or_id.index()),
            ComponentKind::Generic(GenericMacro::Gate(
                if phase { GateFn::Buf } else { GateFn::Inv },
                1,
            )),
        );
        tx.connect_named(g, "A0", addr)?;
        tx.connect_named(g, "Y", y)?;
        Ok(())
    }
}

/// Word-level constant propagation: a multiplexor whose select lines are
/// all constant passes one data word straight through.
pub struct MuxConstSelect;

impl Rule for MuxConstSelect {
    fn name(&self) -> &'static str {
        "mux-constant-select"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Micro
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        let nl = ctx.nl;
        let mut out = Vec::new();
        for id in nl.component_ids() {
            let Some(MicroComponent::Multiplexor {
                inputs,
                enable: false,
                ..
            }) = micro_of(nl, id)
            else {
                continue;
            };
            let selects = milo_netlist::sel_bits(inputs);
            let mut sel = 0usize;
            let mut all_const = true;
            for s in 0..selects {
                match nl
                    .pin_net(id, &format!("S{s}"))
                    .and_then(|n| const_value(nl, n))
                {
                    Some(v) => sel |= usize::from(v) << s,
                    None => {
                        all_const = false;
                        break;
                    }
                }
            }
            if all_const {
                out.push(
                    RuleMatch::at(id)
                        .with_choice(sel)
                        .with_note(format!("mux select constant {sel}")),
                );
            }
        }
        out
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let nl = tx.netlist();
        let Some(MicroComponent::Multiplexor { bits, .. }) = micro_of(nl, m.site) else {
            return Err(NetlistError::NoSuchComponent(m.site));
        };
        let sel = m.choice;
        let src: Vec<NetId> = (0..bits)
            .map(|j| nl.pin_net(m.site, &format!("D{sel}_{j}")).expect("matched"))
            .collect();
        let y: Vec<NetId> = (0..bits)
            .map(|j| nl.pin_net(m.site, &format!("Y{j}")).expect("matched"))
            .collect();
        let port_bound: Vec<bool> = y
            .iter()
            .map(|&n| tx.netlist().net_is_port_bound(n))
            .collect();
        tx.remove_component(m.site)?;
        for j in 0..bits as usize {
            if port_bound[j] {
                // Keep the output net alive via a buffer.
                let g = tx.add_component(
                    format!("mcs{}_{j}", m.site.index()),
                    ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)),
                );
                tx.connect_named(g, "A0", src[j])?;
                tx.connect_named(g, "Y", y[j])?;
            } else {
                tx.move_loads(y[j], src[j])?;
            }
        }
        Ok(())
    }
}

/// Dead-logic removal (cleanup): non-sequential components none of whose
/// outputs drive anything.
pub struct DeadLogicRemoval;

impl Rule for DeadLogicRemoval {
    fn name(&self) -> &'static str {
        "dead-logic-removal"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Cleanup
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        let nl = ctx.nl;
        let mut out = Vec::new();
        for id in nl.component_ids() {
            let Ok(comp) = nl.component(id) else { continue };
            if comp.kind.is_sequential() {
                continue;
            }
            let mut has_output = false;
            let mut dead = true;
            for p in &comp.pins {
                if p.dir == PinDir::Out {
                    has_output = true;
                    if let Some(net) = p.net {
                        if nl.fanout(net) > 0 || nl.net_is_port_bound(net) {
                            dead = false;
                            break;
                        }
                    }
                }
            }
            if has_output && dead {
                out.push(RuleMatch::at(id).with_note("dead logic"));
            }
        }
        out
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        tx.remove_component(m.site)
    }
}

/// The standard microarchitecture rule set.
pub fn standard_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(AdderRegToCounter),
        Box::new(MuxCascadeMerge),
        Box::new(DecoderOrSimplify),
        Box::new(MuxConstSelect),
        Box::new(DeadLogicRemoval),
    ]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use milo_rules::Engine;

    /// Builds the Fig. 14 structure: N-bit adder + register with feedback.
    pub(crate) fn fig14_netlist(bits: u8) -> Netlist {
        let mut nl = Netlist::new("fig14");
        let au = nl.add_component(
            "add",
            ComponentKind::Micro(MicroComponent::ArithmeticUnit {
                bits,
                ops: ArithOps::ADD,
                mode: CarryMode::Ripple,
            }),
        );
        let reg = nl.add_component(
            "reg",
            ComponentKind::Micro(MicroComponent::Register {
                bits,
                trigger: Trigger::EdgeTriggered,
                funcs: RegFunctions::LOAD,
                ctrl: ControlSet::RESET,
            }),
        );
        let vdd = nl.add_component("vdd", ComponentKind::Generic(GenericMacro::Vdd));
        let vss = nl.add_component("vss", ComponentKind::Generic(GenericMacro::Vss));
        let one = nl.add_net("one");
        let zero = nl.add_net("zero");
        nl.connect_named(vdd, "Y", one).unwrap();
        nl.connect_named(vss, "Y", zero).unwrap();
        for i in 0..bits {
            let q = nl.add_net(format!("q{i}"));
            nl.connect_named(reg, &format!("Q{i}"), q).unwrap();
            nl.connect_named(au, &format!("A{i}"), q).unwrap();
            nl.add_port(format!("q{i}"), PinDir::Out, q);
            let s = nl.add_net(format!("s{i}"));
            nl.connect_named(au, &format!("S{i}"), s).unwrap();
            nl.connect_named(reg, &format!("D{i}"), s).unwrap();
            nl.connect_named(au, &format!("B{i}"), if i == 0 { one } else { zero })
                .unwrap();
        }
        nl.connect_named(au, "CIN", zero).unwrap();
        let rst = nl.add_net("rst");
        let clk = nl.add_net("clk");
        let ld = nl.add_net("one_f"); // always load
        nl.connect_named(reg, "RST", rst).unwrap();
        nl.connect_named(reg, "CLK", clk).unwrap();
        // F0 tied high: the register always loads.
        let vdd2 = nl.driver(one).unwrap();
        let _ = vdd2;
        nl.connect_named(reg, "F0", one).unwrap();
        let _ = ld;
        nl.add_port("rst", PinDir::In, rst);
        nl.add_port("clk", PinDir::In, clk);
        nl
    }

    #[test]
    fn fig14_rule_fires() {
        let mut nl = fig14_netlist(4);
        let mut engine = Engine::new(standard_rules());
        let fired = engine.run(&mut nl, milo_rules::Selection::OpsOrder, None, 20);
        assert!(fired >= 1, "counter recognition fired");
        let counters = nl
            .component_ids()
            .filter(|&id| matches!(micro_of(&nl, id), Some(MicroComponent::Counter { .. })))
            .count();
        assert_eq!(counters, 1);
        let aus = nl
            .component_ids()
            .filter(|&id| {
                matches!(
                    micro_of(&nl, id),
                    Some(MicroComponent::ArithmeticUnit { .. })
                )
            })
            .count();
        assert_eq!(aus, 0);
    }

    #[test]
    fn fig14_counter_behaves_like_original() {
        use milo_compilers::verify::check_seq_equivalence;
        use milo_netlist::DesignDb;
        // Original (adder+register) vs rewritten (counter), both compiled
        // to gates, must behave identically.
        let original = fig14_netlist(3);
        let mut rewritten = original.clone();
        let mut engine = Engine::new(standard_rules());
        engine.run(&mut rewritten, milo_rules::Selection::OpsOrder, None, 20);

        let mut db = DesignDb::new();
        let elaborate = |nl: &Netlist, db: &mut DesignDb, name: &str| -> Netlist {
            let mut w = nl.clone();
            w.name = name.to_owned();
            milo_compilers::expand_micro_components(&mut w, db).unwrap();
            db.insert(w);
            db.flatten(name).unwrap()
        };
        let flat_a = elaborate(&original, &mut db, "A");
        let flat_b = elaborate(&rewritten, &mut db, "B");
        check_seq_equivalence(&flat_a, &flat_b, 40, 3).unwrap();
    }

    #[test]
    fn counter_rule_rejects_external_cin() {
        let mut nl = fig14_netlist(4);
        // Drive CIN from a port instead of a constant.
        let au = nl
            .component_ids()
            .find(|&id| {
                matches!(
                    micro_of(&nl, id),
                    Some(MicroComponent::ArithmeticUnit { .. })
                )
            })
            .unwrap();
        let cin_pin = nl.component(au).unwrap().pin_index("CIN").unwrap();
        nl.disconnect(milo_netlist::PinRef::new(au, cin_pin))
            .unwrap();
        let ext = nl.add_net("ext_cin");
        nl.add_port("ext_cin", PinDir::In, ext);
        nl.connect_named(au, "CIN", ext).unwrap();
        assert!(AdderRegToCounter::match_at(&nl, au).is_none());
    }

    #[test]
    fn cla_swap_roundtrip() {
        let mut nl = Netlist::new("t");
        let au = nl.add_component(
            "a",
            ComponentKind::Micro(MicroComponent::ArithmeticUnit {
                bits: 4,
                ops: ArithOps::ADD,
                mode: CarryMode::Ripple,
            }),
        );
        let ctx_rule = RippleToCla;
        let m = RuleMatch::at(au);
        let mut tx = Tx::new(&mut nl);
        ctx_rule.apply(&mut tx, &m).unwrap();
        tx.commit();
        assert!(matches!(
            micro_of(&nl, au),
            Some(MicroComponent::ArithmeticUnit {
                mode: CarryMode::CarryLookahead,
                ..
            })
        ));
        let back = ClaToRipple;
        let mut tx = Tx::new(&mut nl);
        back.apply(&mut tx, &m).unwrap();
        tx.commit();
        assert!(matches!(
            micro_of(&nl, au),
            Some(MicroComponent::ArithmeticUnit {
                mode: CarryMode::Ripple,
                ..
            })
        ));
    }

    #[test]
    fn mux_cascade_merges() {
        use milo_compilers::verify::check_comb_equivalence;
        let mut nl = Netlist::new("m");
        let bits = 2u8;
        let m1 = nl.add_component(
            "m1",
            ComponentKind::Micro(MicroComponent::Multiplexor {
                bits,
                inputs: 2,
                enable: false,
            }),
        );
        let m2 = nl.add_component(
            "m2",
            ComponentKind::Micro(MicroComponent::Multiplexor {
                bits,
                inputs: 2,
                enable: false,
            }),
        );
        // a, b into m1; m1 -> m2.D0 ; c into m2.D1.
        for w in 0..2 {
            for j in 0..bits {
                let n = nl.add_net(format!("i{w}_{j}"));
                nl.connect_named(m1, &format!("D{w}_{j}"), n).unwrap();
                nl.add_port(format!("i{w}_{j}"), PinDir::In, n);
            }
        }
        for j in 0..bits {
            let mid = nl.add_net(format!("mid{j}"));
            nl.connect_named(m1, &format!("Y{j}"), mid).unwrap();
            nl.connect_named(m2, &format!("D0_{j}"), mid).unwrap();
            let c = nl.add_net(format!("c{j}"));
            nl.connect_named(m2, &format!("D1_{j}"), c).unwrap();
            nl.add_port(format!("c{j}"), PinDir::In, c);
            let y = nl.add_net(format!("y{j}"));
            nl.connect_named(m2, &format!("Y{j}"), y).unwrap();
            nl.add_port(format!("y{j}"), PinDir::Out, y);
        }
        let s = nl.add_net("s");
        let t = nl.add_net("t");
        nl.connect_named(m1, "S0", s).unwrap();
        nl.connect_named(m2, "S0", t).unwrap();
        nl.add_port("s", PinDir::In, s);
        nl.add_port("t", PinDir::In, t);

        let golden = nl.clone();
        let mut engine = Engine::new(standard_rules());
        let fired = engine.run(&mut nl, milo_rules::Selection::OpsOrder, None, 10);
        assert!(fired >= 1);
        let mux4 = nl
            .component_ids()
            .filter(|&id| {
                matches!(
                    micro_of(&nl, id),
                    Some(MicroComponent::Multiplexor { inputs: 4, .. })
                )
            })
            .count();
        assert_eq!(mux4, 1);
        check_comb_equivalence(&golden, &nl, 0).unwrap();
    }

    #[test]
    fn decoder_or_simplifies_to_literal() {
        use milo_compilers::verify::check_comb_equivalence;
        let mut nl = Netlist::new("d");
        let dec = nl.add_component(
            "dec",
            ComponentKind::Micro(MicroComponent::Decoder {
                bits: 2,
                enable: false,
            }),
        );
        let a0 = nl.add_net("a0");
        let a1 = nl.add_net("a1");
        nl.connect_named(dec, "A0", a0).unwrap();
        nl.connect_named(dec, "A1", a1).unwrap();
        nl.add_port("a0", PinDir::In, a0);
        nl.add_port("a1", PinDir::In, a1);
        // OR of Y1 and Y3 = minterms {1,3} = A0.
        let or = nl.add_component(
            "or",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Or, 2)),
        );
        let y1 = nl.add_net("y1");
        let y3 = nl.add_net("y3");
        nl.connect_named(dec, "Y1", y1).unwrap();
        nl.connect_named(dec, "Y3", y3).unwrap();
        nl.connect_named(or, "A0", y1).unwrap();
        nl.connect_named(or, "A1", y3).unwrap();
        let f = nl.add_net("f");
        nl.connect_named(or, "Y", f).unwrap();
        nl.add_port("f", PinDir::Out, f);
        // Keep the other decoder outputs connected to ports so the decoder
        // itself is not dead.
        for i in [0u8, 2] {
            let y = nl.add_net(format!("yo{i}"));
            nl.connect_named(dec, &format!("Y{i}"), y).unwrap();
            nl.add_port(format!("yo{i}"), PinDir::Out, y);
        }
        let golden = nl.clone();
        let mut engine = Engine::new(standard_rules());
        let fired = engine.run(&mut nl, milo_rules::Selection::OpsOrder, None, 10);
        assert!(fired >= 1, "decoder-or rule fired");
        check_comb_equivalence(&golden, &nl, 0).unwrap();
        // The OR is gone.
        let ors = nl
            .component_ids()
            .filter(|&id| {
                matches!(
                    nl.component(id).map(|c| &c.kind),
                    Ok(ComponentKind::Generic(GenericMacro::Gate(GateFn::Or, _)))
                )
            })
            .count();
        assert_eq!(ors, 0);
    }

    #[test]
    fn mux_const_select_passthrough() {
        use milo_compilers::verify::check_comb_equivalence;
        let mut nl = Netlist::new("m");
        let m1 = nl.add_component(
            "m1",
            ComponentKind::Micro(MicroComponent::Multiplexor {
                bits: 1,
                inputs: 2,
                enable: false,
            }),
        );
        let vdd = nl.add_component("vdd", ComponentKind::Generic(GenericMacro::Vdd));
        let one = nl.add_net("one");
        nl.connect_named(vdd, "Y", one).unwrap();
        let d0 = nl.add_net("d0");
        let d1 = nl.add_net("d1");
        let y = nl.add_net("y");
        nl.connect_named(m1, "D0_0", d0).unwrap();
        nl.connect_named(m1, "D1_0", d1).unwrap();
        nl.connect_named(m1, "S0", one).unwrap();
        nl.connect_named(m1, "Y0", y).unwrap();
        nl.add_port("d0", PinDir::In, d0);
        nl.add_port("d1", PinDir::In, d1);
        nl.add_port("y", PinDir::Out, y);
        let golden = nl.clone();
        let mut engine = Engine::new(standard_rules());
        let fired = engine.run(&mut nl, milo_rules::Selection::OpsOrder, None, 10);
        assert!(fired >= 1);
        check_comb_equivalence(&golden, &nl, 0).unwrap();
    }
}
