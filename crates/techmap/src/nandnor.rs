//! The LSS-style NAND/NOR description level (§2.1.3): "depending on the
//! technology, the design will be converted to one consisting entirely of
//! generic NAND and NOR gates. … the translator that produces this
//! description is achieved through naive transformations that may produce
//! unnecessary NANDs and NORs. These 'extra' gates are removed by the
//! optimizer at this level."
//!
//! MILO itself skips this level (it keeps MSI structure), but the paper
//! discusses it at length as LSS's approach; having the pass lets the
//! bench harness and users compare an LSS-like gate-universal flow with
//! MILO's macro-preserving flow on the same circuits.

use crate::mapper::MapError;
use milo_netlist::{ComponentId, ComponentKind, GateFn, GenericMacro, NetId, Netlist, PinDir};

/// The target gate family for the conversion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UniversalGate {
    /// Convert to NAND gates (CMOS-natural).
    Nand,
    /// Convert to NOR gates (ECL-natural).
    Nor,
}

/// Converts every combinational generic gate of `nl` into the chosen
/// universal gate family plus inverters (naively, as LSS's translator
/// does). Non-gate components (storage, MSI macros) pass through
/// unchanged. Follow with [`simplify_inverters`] to remove the
/// "unnecessary NANDs and NORs".
///
/// # Errors
///
/// Propagates netlist manipulation failures.
pub fn to_universal(nl: &Netlist, family: UniversalGate) -> Result<Netlist, MapError> {
    let mut out = nl.clone();
    let ids: Vec<ComponentId> = out.component_ids().collect();
    for id in ids {
        let ComponentKind::Generic(GenericMacro::Gate(f, n)) = out.component(id)?.kind else {
            continue;
        };
        convert_gate(&mut out, id, f, n, family)?;
    }
    Ok(out)
}

fn add_gate(out: &mut Netlist, f: GateFn, inputs: &[NetId], name: &str) -> Result<NetId, MapError> {
    let g = out.add_component(
        name,
        ComponentKind::Generic(GenericMacro::Gate(f, inputs.len() as u8)),
    );
    for (i, net) in inputs.iter().enumerate() {
        out.connect_named(g, &format!("A{i}"), *net)?;
    }
    let y = out.add_net(format!("{name}_y"));
    out.connect_named(g, "Y", y)?;
    Ok(y)
}

fn add_gate_to(
    out: &mut Netlist,
    f: GateFn,
    inputs: &[NetId],
    y: NetId,
    name: &str,
) -> Result<(), MapError> {
    let g = out.add_component(
        name,
        ComponentKind::Generic(GenericMacro::Gate(f, inputs.len() as u8)),
    );
    for (i, net) in inputs.iter().enumerate() {
        out.connect_named(g, &format!("A{i}"), *net)?;
    }
    out.connect_named(g, "Y", y)?;
    Ok(())
}

fn convert_gate(
    out: &mut Netlist,
    id: ComponentId,
    f: GateFn,
    n: u8,
    family: UniversalGate,
) -> Result<(), MapError> {
    let comp = out.component(id)?;
    let name = comp.name.clone();
    let ins: Vec<NetId> = comp
        .pins
        .iter()
        .filter(|p| p.dir == PinDir::In)
        .filter_map(|p| p.net)
        .collect();
    let y = comp
        .pins
        .iter()
        .find(|p| p.dir == PinDir::Out)
        .and_then(|p| p.net)
        .ok_or_else(|| MapError::Unmapped(format!("{name} has no output net")))?;
    let (base, inv_of) = match family {
        UniversalGate::Nand => (GateFn::Nand, GateFn::Nand), // INV = NAND1? use NAND with doubled input
        UniversalGate::Nor => (GateFn::Nor, GateFn::Nor),
    };
    let _ = inv_of;
    // Inverter in the universal family: a 2-input gate with tied inputs.
    let mk_inv = |out: &mut Netlist, x: NetId, tag: &str| -> Result<NetId, MapError> {
        add_gate(out, base, &[x, x], tag)
    };
    let mk_inv_to = |out: &mut Netlist, x: NetId, y: NetId, tag: &str| -> Result<(), MapError> {
        add_gate_to(out, base, &[x, x], y, tag)
    };
    let _ = n;
    out.remove_component(id)?;
    match (f, family) {
        // Native matches.
        (GateFn::Nand, UniversalGate::Nand) | (GateFn::Nor, UniversalGate::Nor) => {
            add_gate_to(out, base, &ins, y, &format!("{name}_u"))?;
        }
        (GateFn::And, UniversalGate::Nand) | (GateFn::Or, UniversalGate::Nor) => {
            let t = add_gate(out, base, &ins, &format!("{name}_u"))?;
            mk_inv_to(out, t, y, &format!("{name}_i"))?;
        }
        // De Morgan: OR(a..) = NAND(!a..); AND(a..) = NOR(!a..).
        (GateFn::Or, UniversalGate::Nand) | (GateFn::And, UniversalGate::Nor) => {
            let inverted: Vec<NetId> = ins
                .iter()
                .enumerate()
                .map(|(i, &x)| mk_inv(out, x, &format!("{name}_n{i}")))
                .collect::<Result<_, _>>()?;
            add_gate_to(out, base, &inverted, y, &format!("{name}_u"))?;
        }
        (GateFn::Nor, UniversalGate::Nand) | (GateFn::Nand, UniversalGate::Nor) => {
            let inverted: Vec<NetId> = ins
                .iter()
                .enumerate()
                .map(|(i, &x)| mk_inv(out, x, &format!("{name}_n{i}")))
                .collect::<Result<_, _>>()?;
            let t = add_gate(out, base, &inverted, &format!("{name}_u"))?;
            mk_inv_to(out, t, y, &format!("{name}_i"))?;
        }
        (GateFn::Inv, _) => {
            mk_inv_to(out, ins[0], y, &format!("{name}_u"))?;
        }
        (GateFn::Buf, _) => {
            let t = mk_inv(out, ins[0], &format!("{name}_u"))?;
            mk_inv_to(out, t, y, &format!("{name}_i"))?;
        }
        (GateFn::Xor | GateFn::Xnor, _) => {
            // Chain 2-input XORs, each as the 4-gate universal structure.
            let mut acc = ins[0];
            for (k, &b) in ins.iter().enumerate().skip(1) {
                let last = k == ins.len() - 1 && f == GateFn::Xor;
                let target = if last { Some(y) } else { None };
                acc = xor2_universal(out, acc, b, target, family, &format!("{name}_x{k}"))?;
            }
            if f == GateFn::Xnor {
                mk_inv_to(out, acc, y, &format!("{name}_i"))?;
            }
        }
    }
    Ok(())
}

/// 2-input XOR in the universal family.
/// NAND form: xor = NAND(NAND(a, NAND(a,b)), NAND(b, NAND(a,b))).
/// NOR form:  xor = NOR(NOR(a, NOR(a,b)), NOR(b, NOR(a,b))) is XNOR-ish;
/// use xor = INV(xnor) built from NORs.
fn xor2_universal(
    out: &mut Netlist,
    a: NetId,
    b: NetId,
    target: Option<NetId>,
    family: UniversalGate,
    tag: &str,
) -> Result<NetId, MapError> {
    let base = match family {
        UniversalGate::Nand => GateFn::Nand,
        UniversalGate::Nor => GateFn::Nor,
    };
    match family {
        UniversalGate::Nand => {
            let ab = add_gate(out, base, &[a, b], &format!("{tag}_m"))?;
            let p = add_gate(out, base, &[a, ab], &format!("{tag}_p"))?;
            let q = add_gate(out, base, &[b, ab], &format!("{tag}_q"))?;
            match target {
                Some(y) => {
                    add_gate_to(out, base, &[p, q], y, &format!("{tag}_r"))?;
                    Ok(y)
                }
                None => add_gate(out, base, &[p, q], &format!("{tag}_r")),
            }
        }
        UniversalGate::Nor => {
            // xnor = NOR(NOR(a,b), AND(a,b)); with NORs:
            // AND(a,b) = NOR(!a,!b); xor = !xnor.
            let na = add_gate(out, base, &[a, a], &format!("{tag}_na"))?;
            let nb = add_gate(out, base, &[b, b], &format!("{tag}_nb"))?;
            let and_ab = add_gate(out, base, &[na, nb], &format!("{tag}_and"))?;
            let nor_ab = add_gate(out, base, &[a, b], &format!("{tag}_nor"))?;
            let xnor = add_gate(out, base, &[nor_ab, and_ab], &format!("{tag}_xn"))?;
            // xnor here = NOR(nor_ab, and_ab) = !(xnor)... check: xor =
            // !(a==b) = !( !(a|b) | (a&b) ) = NOR(nor_ab, and_ab). So this
            // IS xor directly.
            match target {
                Some(y) => {
                    // Re-drive y from the xor net via inverter pair-free
                    // move: rebuild with target.
                    let inv1 = add_gate(out, base, &[xnor, xnor], &format!("{tag}_i1"))?;
                    add_gate_to(out, base, &[inv1, inv1], y, &format!("{tag}_i2"))?;
                    Ok(y)
                }
                None => Ok(xnor),
            }
        }
    }
}

/// Removes the "unnecessary" gates the naive translation produces:
/// tied-input inverter pairs in series (INV(INV(x)) → x). Returns the
/// number of pairs removed.
pub fn simplify_inverters(nl: &mut Netlist) -> usize {
    fn is_universal_inv(nl: &Netlist, id: ComponentId) -> Option<(NetId, NetId)> {
        let comp = nl.component(id).ok()?;
        let ComponentKind::Generic(GenericMacro::Gate(f, 2)) = comp.kind else {
            return None;
        };
        if !matches!(f, GateFn::Nand | GateFn::Nor) {
            return None;
        }
        let ins: Vec<NetId> = comp
            .pins
            .iter()
            .filter(|p| p.dir == PinDir::In)
            .filter_map(|p| p.net)
            .collect();
        if ins.len() != 2 || ins[0] != ins[1] {
            return None;
        }
        let y = comp
            .pins
            .iter()
            .find(|p| p.dir == PinDir::Out)
            .and_then(|p| p.net)?;
        Some((ins[0], y))
    }
    let mut removed = 0usize;
    loop {
        let mut victim = None;
        for id in nl.component_ids() {
            let Some((input, mid)) = is_universal_inv(nl, id) else {
                continue;
            };
            if nl.net_is_port_bound(mid) {
                continue;
            }
            // All loads of the middle net must be the tied inputs of one
            // follower (a tied-input inverter loads its net twice).
            let loads = nl.loads(mid);
            let Some(first) = loads.first().copied() else {
                continue;
            };
            if loads.iter().any(|p| p.component != first.component) {
                continue;
            }
            let load = first;
            let Some((_, out)) = is_universal_inv(nl, load.component) else {
                continue;
            };
            if nl.net_is_port_bound(out) {
                continue;
            }
            victim = Some((id, load.component, input, out));
            break;
        }
        let Some((first, second, input, out)) = victim else {
            break;
        };
        nl.remove_component(first).expect("live");
        nl.remove_component(second).expect("live");
        let loads = nl.loads(out);
        for pin in loads {
            nl.disconnect(pin).expect("connected");
            nl.connect(pin, input).expect("fresh");
        }
        removed += 1;
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_circuits_free::gate_soup;
    use milo_compilers::verify::check_comb_equivalence;

    /// Local builder (avoids a circular dev-dependency on milo-circuits).
    mod milo_circuits_free {
        use milo_netlist::{ComponentKind, GateFn, GenericMacro, Netlist, PinDir};

        pub fn gate_soup() -> Netlist {
            let mut nl = Netlist::new("soup");
            let a = nl.add_net("a");
            let b = nl.add_net("b");
            let c = nl.add_net("c");
            for (n, net) in [("a", a), ("b", b), ("c", c)] {
                nl.add_port(n, PinDir::In, net);
            }
            let mut outs = Vec::new();
            for (i, (f, n)) in [
                (GateFn::And, 2),
                (GateFn::Or, 3),
                (GateFn::Nand, 2),
                (GateFn::Nor, 3),
                (GateFn::Xor, 2),
                (GateFn::Xnor, 3),
                (GateFn::Inv, 1),
                (GateFn::Buf, 1),
            ]
            .into_iter()
            .enumerate()
            {
                let g = nl.add_component(
                    format!("g{i}"),
                    ComponentKind::Generic(GenericMacro::Gate(f, n)),
                );
                for (k, net) in [a, b, c].iter().take(n as usize).enumerate() {
                    nl.connect_named(g, &format!("A{k}"), *net).unwrap();
                }
                let y = nl.add_net(format!("y{i}"));
                nl.connect_named(g, "Y", y).unwrap();
                nl.add_port(format!("y{i}"), PinDir::Out, y);
                outs.push(y);
            }
            nl
        }
    }

    #[test]
    fn nand_conversion_preserves_function() {
        let nl = gate_soup();
        let converted = to_universal(&nl, UniversalGate::Nand).unwrap();
        // Only NAND gates remain among combinational gates.
        for id in converted.component_ids() {
            if let Ok(c) = converted.component(id) {
                if let ComponentKind::Generic(GenericMacro::Gate(f, _)) = c.kind {
                    assert_eq!(f, GateFn::Nand, "{c:?}");
                }
            }
        }
        check_comb_equivalence(&nl, &converted, 0).unwrap();
    }

    #[test]
    fn nor_conversion_preserves_function() {
        let nl = gate_soup();
        let converted = to_universal(&nl, UniversalGate::Nor).unwrap();
        for id in converted.component_ids() {
            if let Ok(c) = converted.component(id) {
                if let ComponentKind::Generic(GenericMacro::Gate(f, _)) = c.kind {
                    assert_eq!(f, GateFn::Nor, "{c:?}");
                }
            }
        }
        check_comb_equivalence(&nl, &converted, 0).unwrap();
    }

    #[test]
    fn simplify_removes_naive_pairs() {
        // LSS: "naive transformations that may produce unnecessary NANDs
        // and NORs. These extra gates are removed by the optimizer."
        // a -> BUF -> INV -> y converts to a chain of three tied-input
        // NANDs; the leading pair is removable.
        use milo_netlist::{ComponentKind, GenericMacro, Netlist, PinDir};
        let mut nl = Netlist::new("chain");
        let a = nl.add_net("a");
        nl.add_port("a", PinDir::In, a);
        let b = nl.add_component(
            "b",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)),
        );
        nl.connect_named(b, "A0", a).unwrap();
        let m = nl.add_net("m");
        nl.connect_named(b, "Y", m).unwrap();
        let i = nl.add_component(
            "i",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        nl.connect_named(i, "A0", m).unwrap();
        let y = nl.add_net("y");
        nl.connect_named(i, "Y", y).unwrap();
        nl.add_port("y", PinDir::Out, y);

        let mut converted = to_universal(&nl, UniversalGate::Nand).unwrap();
        let before = converted.component_count();
        assert_eq!(before, 3, "BUF -> two NANDs, INV -> one NAND");
        let removed = simplify_inverters(&mut converted);
        assert_eq!(removed, 1);
        assert_eq!(converted.component_count(), 1);
        check_comb_equivalence(&nl, &converted, 0).unwrap();
    }
}
