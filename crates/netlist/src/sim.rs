//! A cycle-based netlist simulator.
//!
//! Used throughout the workspace to prove that every transformation —
//! logic compilation, technology mapping, microarchitecture rewrites,
//! logic optimization — preserves circuit behaviour.

use crate::kind::{CellFunction, GenericMacro, MicroComponent, PinDir, TechCell};
use crate::netlist::{ComponentKind, Netlist, NetlistError};
use crate::ComponentId;
use std::collections::HashMap;

/// A simulator bound to a (flat) netlist.
///
/// Combinational settling is iterated to a fixed point, so latches and
/// components whose outputs combinationally depend on their inputs (e.g. a
/// counter's carry-out) are handled. [`Simulator::step`] models one rising
/// clock edge on every sequential element.
///
/// # Examples
///
/// ```
/// use milo_netlist::{Netlist, ComponentKind, GenericMacro, GateFn, PinDir, Simulator};
///
/// let mut nl = Netlist::new("inv");
/// let a = nl.add_net("a");
/// let y = nl.add_net("y");
/// let g = nl.add_component("u1", ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)));
/// nl.connect_named(g, "A0", a)?;
/// nl.connect_named(g, "Y", y)?;
/// nl.add_port("a", PinDir::In, a);
/// nl.add_port("y", PinDir::Out, y);
///
/// let mut sim = Simulator::new(&nl)?;
/// sim.set_input("a", false)?;
/// sim.settle();
/// assert!(sim.output("y")?);
/// # Ok::<(), milo_netlist::NetlistError>(())
/// ```
pub struct Simulator<'a> {
    nl: &'a Netlist,
    order: Vec<ComponentId>,
    net_vals: Vec<bool>,
    state: HashMap<ComponentId, u64>,
    inputs: HashMap<String, bool>,
}

impl<'a> Simulator<'a> {
    /// Binds a simulator to `netlist`.
    ///
    /// # Errors
    ///
    /// Fails if the netlist still contains design instances
    /// ([`NetlistError::HierarchyPresent`]) or has a combinational cycle.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        if let Some(id) = netlist.component_ids().find(|&id| {
            matches!(
                netlist.component(id).map(|c| &c.kind),
                Ok(ComponentKind::Instance { .. })
            )
        }) {
            return Err(NetlistError::HierarchyPresent(id));
        }
        let order = netlist.topo_order()?;
        let max_net = netlist.net_ids().map(|n| n.index() + 1).max().unwrap_or(0);
        let state = netlist
            .component_ids()
            .filter(|&id| netlist.component(id).is_ok_and(|c| c.kind.is_sequential()))
            .map(|id| (id, 0u64))
            .collect();
        Ok(Self {
            nl: netlist,
            order,
            net_vals: vec![false; max_net],
            state,
            inputs: HashMap::new(),
        })
    }

    /// Sets the value of a top-level input port.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NoSuchPort`] if the port is unknown or not an input.
    pub fn set_input(&mut self, name: &str, value: bool) -> Result<(), NetlistError> {
        match self.nl.port(name) {
            Some(p) if p.dir == PinDir::In => {
                self.inputs.insert(name.to_owned(), value);
                Ok(())
            }
            _ => Err(NetlistError::NoSuchPort(name.to_owned())),
        }
    }

    /// Directly sets the internal state word of a sequential component
    /// (useful for establishing initial conditions in tests).
    pub fn set_state(&mut self, id: ComponentId, value: u64) {
        self.state.insert(id, value);
    }

    /// The internal state word of a sequential component.
    pub fn state(&self, id: ComponentId) -> Option<u64> {
        self.state.get(&id).copied()
    }

    /// Propagates values until the combinational part stabilizes.
    pub fn settle(&mut self) {
        // Drive input-port nets.
        for p in self.nl.ports() {
            if p.dir == PinDir::In {
                let v = self.inputs.get(p.name.as_str()).copied().unwrap_or(false);
                self.net_vals[p.net.index()] = v;
            }
        }
        // Iterate to fixed point (bounded; each pass at least finalizes one
        // level, and latch feedback converges because values are binary).
        let max_passes = self.order.len() + 2;
        for _ in 0..max_passes {
            let mut changed = false;
            for &id in &self.order {
                let comp = self.nl.component(id).expect("order holds live ids");
                let ins = self.gather_inputs(id);
                let st = self.state.get(&id).copied().unwrap_or(0);
                let outs = eval_component(&comp.kind, &ins, st);
                let mut oi = 0;
                for (pin_idx, pin) in comp.pins.iter().enumerate() {
                    if pin.dir != PinDir::Out {
                        continue;
                    }
                    let v = outs[oi];
                    oi += 1;
                    let _ = pin_idx;
                    if let Some(net) = pin.net {
                        if self.net_vals[net.index()] != v {
                            self.net_vals[net.index()] = v;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// One rising clock edge: settle, latch next state into every
    /// sequential component, settle again.
    pub fn step(&mut self) {
        self.settle();
        let mut next: Vec<(ComponentId, u64)> = Vec::with_capacity(self.state.len());
        for (&id, &st) in &self.state {
            let comp = self.nl.component(id).expect("live id");
            let ins = self.gather_inputs(id);
            next.push((id, next_state(&comp.kind, &ins, st)));
        }
        for (id, st) in next {
            self.state.insert(id, st);
        }
        self.settle();
    }

    /// Value of a top-level output port after the last [`Simulator::settle`].
    ///
    /// # Errors
    ///
    /// [`NetlistError::NoSuchPort`] if the port is unknown.
    pub fn output(&self, name: &str) -> Result<bool, NetlistError> {
        let p = self
            .nl
            .port(name)
            .ok_or_else(|| NetlistError::NoSuchPort(name.to_owned()))?;
        Ok(self.net_vals[p.net.index()])
    }

    fn gather_inputs(&self, id: ComponentId) -> Vec<bool> {
        let comp = self.nl.component(id).expect("live id");
        comp.pins
            .iter()
            .filter(|p| p.dir == PinDir::In)
            .map(|p| p.net.is_some_and(|n| self.net_vals[n.index()]))
            .collect()
    }
}

fn word(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

fn unword(v: u64, n: u8) -> Vec<bool> {
    (0..n).map(|i| v >> i & 1 == 1).collect()
}

fn mask(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Evaluates the combinational outputs of a component given its input pin
/// values (in pin order) and its current state word.
pub fn eval_component(kind: &ComponentKind, ins: &[bool], state: u64) -> Vec<bool> {
    match kind {
        ComponentKind::Generic(m) => eval_generic(m, ins, state),
        ComponentKind::Micro(m) => eval_micro(m, ins, state),
        ComponentKind::Tech(c) => eval_tech(c, ins, state),
        ComponentKind::Instance { .. } => panic!("cannot evaluate an unexpanded instance"),
    }
}

fn eval_generic(m: &GenericMacro, ins: &[bool], state: u64) -> Vec<bool> {
    match *m {
        GenericMacro::Gate(f, n) => vec![f.eval(word(ins), n)],
        GenericMacro::Vdd => vec![true],
        GenericMacro::Vss => vec![false],
        GenericMacro::Mux { selects } => {
            let data = 1usize << selects;
            let sel = word(&ins[data..data + selects as usize]) as usize;
            vec![ins[sel]]
        }
        GenericMacro::Decoder { inputs } => {
            let addr = word(&ins[..inputs as usize]) as usize;
            (0..(1usize << inputs)).map(|i| i == addr).collect()
        }
        GenericMacro::Adder { bits, .. } => {
            let b = bits as usize;
            let a = word(&ins[..b]);
            let bb = word(&ins[b..2 * b]);
            let cin = u64::from(ins[2 * b]);
            let sum = a + bb + cin;
            let mut out = unword(sum, bits);
            out.push(sum >> bits & 1 == 1);
            out
        }
        GenericMacro::Comparator { bits } => {
            let b = bits as usize;
            let a = word(&ins[..b]);
            let bb = word(&ins[b..2 * b]);
            vec![a == bb, a < bb, a > bb]
        }
        GenericMacro::Counter { bits } => unword(state, bits),
        GenericMacro::Dff { .. } => vec![state & 1 == 1],
        GenericMacro::Latch { set, reset } => {
            // ins: D, G, [SET], [RST]
            let mut idx = 2;
            let s = if set {
                let v = ins[idx];
                idx += 1;
                v
            } else {
                false
            };
            let r = reset && ins[idx];
            let d = ins[0];
            let g = ins[1];
            let q = if s {
                true
            } else if r {
                false
            } else if g {
                d
            } else {
                state & 1 == 1
            };
            vec![q]
        }
    }
}

fn eval_micro(m: &MicroComponent, ins: &[bool], state: u64) -> Vec<bool> {
    match *m {
        MicroComponent::Gate { function, inputs } => vec![function.eval(word(ins), inputs)],
        MicroComponent::Multiplexor {
            bits,
            inputs,
            enable,
        } => {
            let b = bits as usize;
            let n = inputs as usize;
            let selects = crate::kind::sel_bits(inputs) as usize;
            let sel = word(&ins[n * b..n * b + selects]) as usize;
            let en = !enable || ins[n * b + selects];
            (0..b).map(|j| en && ins[sel * b + j]).collect()
        }
        MicroComponent::Decoder { bits, enable } => {
            let k = bits as usize;
            let addr = word(&ins[..k]) as usize;
            let en = !enable || ins[k];
            (0..(1usize << k)).map(|i| en && i == addr).collect()
        }
        MicroComponent::Comparator { bits, function } => {
            let b = bits as usize;
            let a = word(&ins[..b]);
            let bb = word(&ins[b..2 * b]);
            vec![function.eval(a, bb)]
        }
        MicroComponent::LogicUnit {
            function,
            inputs,
            bits,
        } => {
            let b = bits as usize;
            (0..b)
                .map(|j| {
                    let mut packed = 0u64;
                    for i in 0..inputs as usize {
                        packed |= u64::from(ins[i * b + j]) << i;
                    }
                    function.eval(packed, inputs)
                })
                .collect()
        }
        MicroComponent::ArithmeticUnit { bits, ops, .. } => {
            let b = bits as usize;
            let a = word(&ins[..b]);
            let mut idx = b;
            let bb = if ops.needs_b() {
                let v = word(&ins[idx..idx + b]);
                idx += b;
                v
            } else {
                0
            };
            let op_list = ops.ops();
            let op = if op_list.len() > 1 {
                let sel_pins = ops.select_pins() as usize;
                let sel = word(&ins[idx..idx + sel_pins]) as usize;
                idx += sel_pins;
                op_list[sel.min(op_list.len() - 1)]
            } else {
                op_list[0]
            };
            let cin = u64::from(ins[idx]);
            let m = mask(bits);
            let full = match op {
                crate::kind::ArithOp::Add => a + bb + cin,
                crate::kind::ArithOp::Sub => a + (!bb & m) + cin,
                // Inc = A + 0…01 with carry-in forced high; Dec = A + 1…1
                // with carry-in low (two's-complement −1). COUT is the raw
                // adder carry in every mode, matching the compiled designs.
                crate::kind::ArithOp::Inc => a + 1,
                crate::kind::ArithOp::Dec => a + m,
            };
            let mut out = unword(full & m, bits);
            out.push(full >> bits & 1 == 1);
            out
        }
        MicroComponent::Register { bits, .. } => unword(state, bits),
        MicroComponent::Counter { bits, funcs, ctrl } => {
            let mut out = unword(state, bits);
            // CO: at terminal count while enabled and counting.
            let lay = counter_layout(bits, funcs, ctrl);
            let en = lay.en.is_none_or(|i| ins[i]);
            let up = if funcs.up && funcs.down {
                ins[lay.up.expect("up pin")]
            } else {
                funcs.up
            };
            let loading = lay.load.is_some_and(|i| ins[i]);
            let m = mask(bits);
            let counts = funcs.up || funcs.down;
            let co = counts && en && !loading && ((up && state == m) || (!up && state == 0));
            out.push(co);
            out
        }
    }
}

fn eval_tech(c: &TechCell, ins: &[bool], state: u64) -> Vec<bool> {
    match &c.function {
        CellFunction::Gate(f, n) => vec![f.eval(word(ins), *n)],
        CellFunction::Table(tt) => vec![tt.eval(word(ins) as u32)],
        CellFunction::Mux { selects } => {
            let data = 1usize << selects;
            let sel = word(&ins[data..data + *selects as usize]) as usize;
            vec![ins[sel]]
        }
        CellFunction::Dff { .. } | CellFunction::MuxDff { .. } => vec![state & 1 == 1],
        CellFunction::Latch { set, reset } => eval_generic(
            &GenericMacro::Latch {
                set: *set,
                reset: *reset,
            },
            ins,
            state,
        ),
        CellFunction::Const(b) => vec![*b],
        CellFunction::Adder { bits, cla } => eval_generic(
            &GenericMacro::Adder {
                bits: *bits,
                cla: *cla,
            },
            ins,
            state,
        ),
        CellFunction::Decoder { inputs } => {
            eval_generic(&GenericMacro::Decoder { inputs: *inputs }, ins, state)
        }
        CellFunction::Comparator { bits } => {
            eval_generic(&GenericMacro::Comparator { bits: *bits }, ins, state)
        }
        CellFunction::Counter { bits } => {
            eval_generic(&GenericMacro::Counter { bits: *bits }, ins, state)
        }
    }
}

/// Pin-layout bookkeeping for the microarchitectural counter.
struct CounterLayout {
    load: Option<usize>,
    up: Option<usize>,
    set: Option<usize>,
    rst: Option<usize>,
    en: Option<usize>,
    d_base: Option<usize>,
}

fn counter_layout(
    bits: u8,
    funcs: crate::kind::CounterFunctions,
    ctrl: crate::kind::ControlSet,
) -> CounterLayout {
    let mut idx = 0usize;
    let d_base = funcs.load.then_some(0);
    if funcs.load {
        idx += bits as usize;
    }
    let load = funcs.load.then(|| {
        let i = idx;
        idx += 1;
        i
    });
    let up = (funcs.up && funcs.down).then(|| {
        let i = idx;
        idx += 1;
        i
    });
    let set = ctrl.set.then(|| {
        let i = idx;
        idx += 1;
        i
    });
    let rst = ctrl.reset.then(|| {
        let i = idx;
        idx += 1;
        i
    });
    let en = ctrl.enable.then(|| {
        let i = idx;
        idx += 1;
        i
    });
    // CLK follows but is not needed by the cycle-based model.
    CounterLayout {
        load,
        up,
        set,
        rst,
        en,
        d_base,
    }
}

/// Computes the post-clock-edge state of a sequential component.
pub fn next_state(kind: &ComponentKind, ins: &[bool], state: u64) -> u64 {
    match kind {
        ComponentKind::Generic(GenericMacro::Dff { set, reset, enable }) => {
            // ins: D, CLK, [SET], [RST], [EN]
            let mut idx = 2;
            let s = *set && {
                let v = ins[idx];
                idx += 1;
                v
            };
            let r = *reset && {
                let v = ins[idx];
                idx += 1;
                v
            };
            let e = !*enable || ins[idx];
            if s {
                1
            } else if r {
                0
            } else if e {
                u64::from(ins[0])
            } else {
                state
            }
        }
        ComponentKind::Generic(GenericMacro::Latch { set, reset }) => {
            let q = eval_generic(
                &GenericMacro::Latch {
                    set: *set,
                    reset: *reset,
                },
                ins,
                state,
            );
            u64::from(q[0])
        }
        ComponentKind::Generic(GenericMacro::Counter { bits }) => {
            // ins: D0..D{b-1}, LOAD, UP, EN, RST, CLK
            let b = *bits as usize;
            let d = word(&ins[..b]);
            let load = ins[b];
            let up = ins[b + 1];
            let en = ins[b + 2];
            let rst = ins[b + 3];
            let m = mask(*bits);
            if rst {
                0
            } else if load {
                d
            } else if en {
                if up {
                    (state + 1) & m
                } else {
                    state.wrapping_sub(1) & m
                }
            } else {
                state
            }
        }
        ComponentKind::Micro(MicroComponent::Register {
            bits, funcs, ctrl, ..
        }) => {
            // pins: [D bits] [SIL] [SIR] [F sel] [SET] [RST] [EN] CLK
            let b = *bits as usize;
            let mut idx = 0usize;
            let d = if funcs.load {
                let v = word(&ins[..b]);
                idx += b;
                Some(v)
            } else {
                None
            };
            let sil = funcs.shift_left.then(|| {
                let v = ins[idx];
                idx += 1;
                v
            });
            let sir = funcs.shift_right.then(|| {
                let v = ins[idx];
                idx += 1;
                v
            });
            let nsel = if funcs.source_count() > 1 {
                funcs.select_pins() as usize
            } else {
                0
            };
            let sel = word(&ins[idx..idx + nsel]) as usize;
            idx += nsel;
            let s = ctrl.set && {
                let v = ins[idx];
                idx += 1;
                v
            };
            let r = ctrl.reset && {
                let v = ins[idx];
                idx += 1;
                v
            };
            let e = !ctrl.enable || ins[idx];
            let m = mask(*bits);
            if s {
                return m;
            }
            if r {
                return 0;
            }
            if !e {
                return state;
            }
            // Source order: hold, load, shift-left, shift-right (enabled subset).
            let mut sources: Vec<u64> = vec![state];
            if let Some(dv) = d {
                sources.push(dv);
            }
            if let Some(si) = sil {
                sources.push(((state << 1) | u64::from(si)) & m);
            }
            if let Some(si) = sir {
                sources.push((state >> 1) | (u64::from(si) << (bits - 1)));
            }
            // Out-of-range selects hold: the compiled designs pad unused
            // multiplexor inputs with the hold value.
            sources.get(sel).copied().unwrap_or(sources[0])
        }
        ComponentKind::Micro(MicroComponent::Counter { bits, funcs, ctrl }) => {
            let lay = counter_layout(*bits, *funcs, *ctrl);
            let m = mask(*bits);
            if lay.set.is_some_and(|i| ins[i]) {
                return m;
            }
            if lay.rst.is_some_and(|i| ins[i]) {
                return 0;
            }
            if !lay.en.is_none_or(|i| ins[i]) {
                return state;
            }
            if lay.load.is_some_and(|i| ins[i]) {
                let base = lay.d_base.expect("load implies data bus");
                return word(&ins[base..base + *bits as usize]);
            }
            let up = if funcs.up && funcs.down {
                ins[lay.up.expect("up pin present")]
            } else {
                funcs.up
            };
            if !funcs.up && !funcs.down {
                return state;
            }
            if up {
                (state + 1) & m
            } else {
                state.wrapping_sub(1) & m
            }
        }
        ComponentKind::Tech(c) => match &c.function {
            CellFunction::Dff { set, reset, enable } => next_state(
                &ComponentKind::Generic(GenericMacro::Dff {
                    set: *set,
                    reset: *reset,
                    enable: *enable,
                }),
                ins,
                state,
            ),
            CellFunction::MuxDff { selects } => {
                let data = 1usize << *selects;
                let sel = word(&ins[data..data + *selects as usize]) as usize;
                u64::from(ins[sel])
            }
            CellFunction::Latch { set, reset } => {
                let q = eval_generic(
                    &GenericMacro::Latch {
                        set: *set,
                        reset: *reset,
                    },
                    ins,
                    state,
                );
                u64::from(q[0])
            }
            CellFunction::Counter { bits } => next_state(
                &ComponentKind::Generic(GenericMacro::Counter { bits: *bits }),
                ins,
                state,
            ),
            _ => state,
        },
        _ => state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{
        ArithOps, CarryMode, CmpOp, ControlSet, CounterFunctions, GateFn, RegFunctions, Trigger,
    };

    #[test]
    fn adder_generic_eval() {
        let kind = ComponentKind::Generic(GenericMacro::Adder {
            bits: 4,
            cla: false,
        });
        // A=5, B=9, CIN=1 -> 15, COUT=0
        let mut ins = vec![true, false, true, false]; // A=5
        ins.extend([true, false, false, true]); // B=9
        ins.push(true); // CIN
        let out = eval_component(&kind, &ins, 0);
        assert_eq!(word(&out[..4]), 15);
        assert!(!out[4]);
        // A=15, B=1, CIN=0 -> 0, COUT=1
        let mut ins = vec![true; 4];
        ins.extend([true, false, false, false]);
        ins.push(false);
        let out = eval_component(&kind, &ins, 0);
        assert_eq!(word(&out[..4]), 0);
        assert!(out[4]);
    }

    #[test]
    fn micro_mux_selects_word() {
        let kind = ComponentKind::Micro(MicroComponent::Multiplexor {
            bits: 2,
            inputs: 2,
            enable: false,
        });
        // D0 = 01, D1 = 10, S=1 -> Y = 10
        let ins = vec![true, false, false, true, true];
        let out = eval_component(&kind, &ins, 0);
        assert_eq!(out, vec![false, true]);
    }

    #[test]
    fn micro_arith_sub() {
        let kind = ComponentKind::Micro(MicroComponent::ArithmeticUnit {
            bits: 4,
            ops: ArithOps::ADD_SUB,
            mode: CarryMode::Ripple,
        });
        // A=9, B=3, OP=1 (sub), CIN=1 -> 6
        let mut ins = vec![true, false, false, true]; // A=9
        ins.extend([true, true, false, false]); // B=3
        ins.push(true); // OP=sub
        ins.push(true); // CIN=1 completes two's complement
        let out = eval_component(&kind, &ins, 0);
        assert_eq!(word(&out[..4]), 6);
    }

    #[test]
    fn micro_comparator() {
        let kind = ComponentKind::Micro(MicroComponent::Comparator {
            bits: 3,
            function: CmpOp::Lt,
        });
        let mut ins = vec![false, true, false]; // A=2
        ins.extend([true, false, true]); // B=5
        assert_eq!(eval_component(&kind, &ins, 0), vec![true]);
    }

    #[test]
    fn register_full_cycle() {
        let mut nl = Netlist::new("reg");
        let kind = ComponentKind::Micro(MicroComponent::Register {
            bits: 2,
            trigger: Trigger::EdgeTriggered,
            funcs: RegFunctions::LOAD,
            ctrl: ControlSet::RESET,
        });
        let r = nl.add_component("r", kind);
        let d0 = nl.add_net("d0");
        let d1 = nl.add_net("d1");
        let f0 = nl.add_net("f0");
        let rst = nl.add_net("rst");
        let clk = nl.add_net("clk");
        let q0 = nl.add_net("q0");
        let q1 = nl.add_net("q1");
        for (p, n) in [
            ("D0", d0),
            ("D1", d1),
            ("F0", f0),
            ("RST", rst),
            ("CLK", clk),
            ("Q0", q0),
            ("Q1", q1),
        ] {
            nl.connect_named(r, p, n).unwrap();
        }
        for (n, d) in [
            (d0, "d0"),
            (d1, "d1"),
            (f0, "f0"),
            (rst, "rst"),
            (clk, "clk"),
        ] {
            nl.add_port(d, PinDir::In, n);
        }
        nl.add_port("q0", PinDir::Out, q0);
        nl.add_port("q1", PinDir::Out, q1);

        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("d0", true).unwrap();
        sim.set_input("d1", true).unwrap();
        sim.set_input("f0", true).unwrap(); // select load
        sim.step();
        assert!(sim.output("q0").unwrap());
        assert!(sim.output("q1").unwrap());
        // Hold (f0 = 0)
        sim.set_input("d0", false).unwrap();
        sim.set_input("f0", false).unwrap();
        sim.step();
        assert!(sim.output("q0").unwrap());
        // Reset dominates
        sim.set_input("rst", true).unwrap();
        sim.step();
        assert!(!sim.output("q0").unwrap());
        assert!(!sim.output("q1").unwrap());
    }

    #[test]
    fn counter_counts_up_with_carry() {
        let kind = ComponentKind::Micro(MicroComponent::Counter {
            bits: 2,
            funcs: CounterFunctions::UP,
            ctrl: ControlSet::NONE,
        });
        // pins: CLK, Q0, Q1, CO — only CLK input.
        let ins = vec![false]; // CLK (unused by model)
        assert_eq!(next_state(&kind, &ins, 0), 1);
        assert_eq!(next_state(&kind, &ins, 3), 0);
        let out = eval_component(&kind, &ins, 3);
        assert_eq!(out, vec![true, true, true]); // Q=11, CO at terminal count
    }

    #[test]
    fn dff_with_enable_holds() {
        let kind = ComponentKind::Generic(GenericMacro::Dff {
            set: false,
            reset: false,
            enable: true,
        });
        // ins: D, CLK, EN
        assert_eq!(next_state(&kind, &[true, false, false], 0), 0);
        assert_eq!(next_state(&kind, &[true, false, true], 0), 1);
    }

    #[test]
    fn gate_chain_settles() {
        let mut nl = Netlist::new("chain");
        let a = nl.add_net("a");
        let m = nl.add_net("m");
        let y = nl.add_net("y");
        let g1 = nl.add_component(
            "g1",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        let g2 = nl.add_component(
            "g2",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        nl.connect_named(g1, "A0", a).unwrap();
        nl.connect_named(g1, "Y", m).unwrap();
        nl.connect_named(g2, "A0", m).unwrap();
        nl.connect_named(g2, "Y", y).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("y", PinDir::Out, y);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("a", true).unwrap();
        sim.settle();
        assert!(sim.output("y").unwrap());
    }

    #[test]
    fn logic_unit_bitwise() {
        let kind = ComponentKind::Micro(MicroComponent::LogicUnit {
            function: GateFn::Xor,
            inputs: 2,
            bits: 3,
        });
        // A0 = 0b101, A1 = 0b011 -> Y = 0b110
        let ins = vec![true, false, true, true, true, false];
        let out = eval_component(&kind, &ins, 0);
        assert_eq!(word(&out), 0b110);
    }
}
