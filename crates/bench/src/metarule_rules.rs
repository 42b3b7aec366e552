//! Rule set for the metarules experiment (§2.2.2 / CoBa85 numbers the
//! paper quotes).
//!
//! The experiment needs rules where one-step greedy selection is
//! provably weaker than lookahead: [`NandToInvOr`] rewrites a NAND into
//! inverters plus an OR (an immediate area *loss*) which, when the NAND's
//! inputs are already inverted, lets [`milo_opt::critics`]'s inverter-pair
//! elimination collapse the whole structure (a two-step net win the
//! greedy optimizer never sees).

use milo_netlist::{
    CellFunction, ComponentKind, GateFn, Netlist, NetlistError, PinDir, PowerLevel,
};
use milo_rules::{Locality, Rule, RuleClass, RuleCtx, RuleMatch, Tx};
use milo_techmap::TechLibrary;

/// De Morgan rewrite: `NAND2(a,b) → OR2(INV a, INV b)`.
pub struct NandToInvOr {
    lib: TechLibrary,
}

impl NandToInvOr {
    /// Creates the rule bound to a library.
    pub fn new(lib: TechLibrary) -> Self {
        Self { lib }
    }
}

impl Rule for NandToInvOr {
    fn name(&self) -> &'static str {
        "nand-to-inv-or"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Area
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        milo_rules::scan_all_components(self, ctx)
    }
    // Support: only the anchor's own kind; no net is read.
    fn locality(&self) -> Locality {
        Locality::Local
    }
    fn matches_at(&self, ctx: &RuleCtx, id: milo_netlist::ComponentId) -> Vec<RuleMatch> {
        let Ok(c) = ctx.nl.component(id) else {
            return Vec::new();
        };
        let ComponentKind::Tech(cell) = &c.kind else {
            return Vec::new();
        };
        if matches!(cell.function, CellFunction::Gate(GateFn::Nand, 2)) {
            vec![RuleMatch::at(id).with_note("NAND2 -> INV+INV+OR2")]
        } else {
            Vec::new()
        }
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let or2 = self
            .lib
            .cell_at_level(&CellFunction::Gate(GateFn::Or, 2), PowerLevel::Standard)
            .ok_or(NetlistError::NoSuchPort("OR2".into()))?
            .clone();
        let inv = self
            .lib
            .cell_at_level(&CellFunction::Gate(GateFn::Inv, 1), PowerLevel::Standard)
            .ok_or(NetlistError::NoSuchPort("INV".into()))?
            .clone();
        let nl = tx.netlist();
        let a = nl
            .pin_net(m.site, "A0")
            .ok_or(NetlistError::NoSuchComponent(m.site))?;
        let b = nl
            .pin_net(m.site, "A1")
            .ok_or(NetlistError::NoSuchComponent(m.site))?;
        let y = nl
            .pin_net(m.site, "Y")
            .ok_or(NetlistError::NoSuchComponent(m.site))?;
        tx.remove_component(m.site)?;
        let ia = tx.add_component(
            format!("dm{}a", m.site.index()),
            ComponentKind::Tech(inv.clone()),
        );
        let ib = tx.add_component(format!("dm{}b", m.site.index()), ComponentKind::Tech(inv));
        let na = tx.add_net(format!("dm{}na", m.site.index()));
        let nb = tx.add_net(format!("dm{}nb", m.site.index()));
        tx.connect_named(ia, "A0", a)?;
        tx.connect_named(ia, "Y", na)?;
        tx.connect_named(ib, "A0", b)?;
        tx.connect_named(ib, "Y", nb)?;
        let g = tx.add_component(format!("dm{}o", m.site.index()), ComponentKind::Tech(or2));
        tx.connect_named(g, "A0", na)?;
        tx.connect_named(g, "A1", nb)?;
        tx.connect_named(g, "Y", y)?;
        Ok(())
    }
}

/// The rule set for the metarules experiment: the enabler plus the logic
/// critic's cleanups.
pub fn metarule_rule_set(lib: &TechLibrary) -> Vec<Box<dyn Rule>> {
    let mut rules = milo_opt::logic_rules(lib);
    rules.push(Box::new(NandToInvOr::new(lib.clone())));
    rules
}

/// A circuit where lookahead wins: inverter-driven NAND pairs
/// (`NAND(!a, !b)` ≡ `OR... actually AND(a,b) after double-negation`).
pub fn lookahead_opportunity_circuit(copies: usize) -> Netlist {
    use milo_netlist::{GenericMacro, Netlist};
    let mut nl = Netlist::new("meta");
    for k in 0..copies {
        let a = nl.add_net(format!("a{k}"));
        let b = nl.add_net(format!("b{k}"));
        nl.add_port(format!("a{k}"), PinDir::In, a);
        nl.add_port(format!("b{k}"), PinDir::In, b);
        let ia = nl.add_component(
            format!("ia{k}"),
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        let ib = nl.add_component(
            format!("ib{k}"),
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        let na = nl.add_net(format!("na{k}"));
        let nb = nl.add_net(format!("nb{k}"));
        nl.connect_named(ia, "A0", a).unwrap();
        nl.connect_named(ia, "Y", na).unwrap();
        nl.connect_named(ib, "A0", b).unwrap();
        nl.connect_named(ib, "Y", nb).unwrap();
        let g = nl.add_component(
            format!("g{k}"),
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Nand, 2)),
        );
        nl.connect_named(g, "A0", na).unwrap();
        nl.connect_named(g, "A1", nb).unwrap();
        let y = nl.add_net(format!("y{k}"));
        nl.connect_named(g, "Y", y).unwrap();
        // Greedy-visible work: a four-inverter chain on the output (two
        // removable pairs), so the no-lookahead baseline also spends time.
        let mut prev = y;
        for j in 0..4 {
            let iv = nl.add_component(
                format!("nz{k}_{j}"),
                ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
            );
            nl.connect_named(iv, "A0", prev).unwrap();
            let ny = nl.add_net(format!("nzn{k}_{j}"));
            nl.connect_named(iv, "Y", ny).unwrap();
            prev = ny;
        }
        nl.add_port(format!("y{k}"), PinDir::Out, prev);
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_compilers::verify::check_comb_equivalence;
    use milo_rules::{greedy_optimize, lookahead_optimize, Engine, MetaParams};
    use milo_techmap::{cmos_library, map_netlist};
    use milo_timing::statistics;

    #[test]
    fn lookahead_beats_greedy_on_area() {
        let lib = cmos_library();
        let entry = lookahead_opportunity_circuit(3);
        let mapped = map_netlist(&entry, &lib).unwrap();

        let mut greedy_nl = mapped.clone();
        let mut engine = Engine::new(metarule_rule_set(&lib));
        greedy_optimize(&mut greedy_nl, &mut engine, MetaParams::default(), 100);
        let greedy_area = statistics(&greedy_nl).unwrap().area;

        let mut look_nl = mapped.clone();
        let mut engine2 = Engine::new(metarule_rule_set(&lib));
        let params = MetaParams {
            depth: 4,
            breadth: 4,
            apply_depth: 3,
            ..MetaParams::default()
        };
        lookahead_optimize(&mut look_nl, &mut engine2, params, false, 100);
        let look_area = statistics(&look_nl).unwrap().area;

        assert!(
            look_area < greedy_area,
            "lookahead {look_area} < greedy {greedy_area}"
        );
        check_comb_equivalence(&mapped, &look_nl, 64).unwrap();
    }
}
