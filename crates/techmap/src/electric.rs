//! Electric-rule repair: buffer insertion for fanout violations.
//!
//! "During the conversion process, various design rules may be violated
//! (such as a component's fanout). These must be detected and corrected by
//! the electric critic" (§6.2). Detection lives in
//! [`milo_netlist::validate`]; this module performs the correction.

use crate::library::TechLibrary;
use crate::mapper::MapError;
use milo_netlist::{ComponentKind, Netlist};
use std::collections::VecDeque;

/// Splits over-loaded nets by inserting buffers from `lib` until every net
/// respects its driver's `max_fanout`. Returns the number of buffers
/// inserted.
///
/// Output ports count toward fanout but cannot be moved behind a buffer
/// (the net *is* the design interface), so each port permanently consumes
/// one slot of its net's budget. A net whose out-port count alone reaches
/// the limit is left for [`milo_netlist::validate`] to report — buffering
/// its loads could never clear the violation.
///
/// # Errors
///
/// [`MapError::NoCell`] if the library has no standard buffer cell.
pub fn enforce_fanout(nl: &mut Netlist, lib: &TechLibrary) -> Result<usize, MapError> {
    let buf_cell = lib
        .buffer()
        .ok_or_else(|| MapError::NoCell("BUF".to_owned()))?
        .clone();
    let mut inserted = 0usize;
    // Worklist: every net once, plus each freshly inserted buffer net —
    // whose load set may itself exceed the buffer's limit, extending the
    // chain. A repaired net never re-violates, so no full rescans.
    let mut pending: VecDeque<_> = nl.net_ids().collect();
    while let Some(net) = pending.pop_front() {
        let Some(driver) = nl.driver(net) else {
            continue;
        };
        let Ok(comp) = nl.component(driver.component) else {
            continue;
        };
        let ComponentKind::Tech(cell) = &comp.kind else {
            continue;
        };
        let limit = cell.max_fanout as usize;
        let fanout = nl.fanout(net);
        if fanout <= limit {
            continue;
        }
        // Fanout beyond the load pins is output ports: fixed sinks.
        let ports = fanout - nl.load_count(net);
        // Budget: the immovable ports each take a slot, the buffer's own
        // input takes another; whatever is left stays on the net.
        let Some(keep) = limit.checked_sub(ports + 1) else {
            continue; // ports alone saturate the limit: unrepairable here
        };
        let moved: Vec<_> = nl.loads(net).into_iter().skip(keep).collect();
        let buf = nl.add_component(
            format!("fobuf{inserted}"),
            ComponentKind::Tech(buf_cell.clone()),
        );
        nl.connect_named(buf, "A0", net)?;
        let out = nl.add_net(format!("fobuf{inserted}_y"));
        nl.connect_named(buf, "Y", out)?;
        for pin in moved {
            nl.disconnect(pin)?;
            nl.connect(pin, out)?;
        }
        inserted += 1;
        pending.push_back(out);
    }
    Ok(inserted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libraries::cmos_library;
    use crate::mapper::map_netlist;
    use milo_compilers::verify::check_comb_equivalence;
    use milo_netlist::{validate, GateFn, GenericMacro, PinDir, Violation};

    /// One inverter driving `n` AND gates.
    fn high_fanout(n: usize) -> Netlist {
        let mut nl = Netlist::new("fo");
        let a = nl.add_net("a");
        let mid = nl.add_net("mid");
        let inv = nl.add_component(
            "i",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        nl.connect_named(inv, "A0", a).unwrap();
        nl.connect_named(inv, "Y", mid).unwrap();
        nl.add_port("a", PinDir::In, a);
        for k in 0..n {
            let g = nl.add_component(
                format!("g{k}"),
                ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)),
            );
            nl.connect_named(g, "A0", mid).unwrap();
            let y = nl.add_net(format!("y{k}"));
            nl.connect_named(g, "Y", y).unwrap();
            nl.add_port(format!("y{k}"), PinDir::Out, y);
        }
        nl
    }

    #[test]
    fn fixes_fanout_violation() {
        let lib = cmos_library();
        let nl = high_fanout(25);
        let mut mapped = map_netlist(&nl, &lib).unwrap();
        let before = validate(&mapped, true);
        assert!(before
            .iter()
            .any(|v| matches!(v, Violation::FanoutExceeded { .. })));
        let inserted = enforce_fanout(&mut mapped, &lib).unwrap();
        assert!(inserted >= 1);
        let after = validate(&mapped, true);
        assert!(
            !after
                .iter()
                .any(|v| matches!(v, Violation::FanoutExceeded { .. })),
            "still violated: {after:?}"
        );
        // Behaviour unchanged.
        check_comb_equivalence(&nl, &mapped, 0).unwrap();
    }

    #[test]
    fn clean_netlist_untouched() {
        let lib = cmos_library();
        let nl = high_fanout(3);
        let mut mapped = map_netlist(&nl, &lib).unwrap();
        assert_eq!(enforce_fanout(&mut mapped, &lib).unwrap(), 0);
    }

    /// Regression: a violating net that also carries an out port used to
    /// loop forever — the port counts toward fanout but the repair only
    /// moved component loads, and each inserted buffer *added* a load, so
    /// the net never dropped back under its limit.
    #[test]
    fn port_bound_violation_converges() {
        let lib = cmos_library();
        let mut nl = high_fanout(25);
        // Bind an out port directly to the overloaded net.
        let over = nl
            .net_ids()
            .find(|&n| nl.fanout(n) > 20)
            .expect("the inverter output is overloaded");
        nl.add_port("probe", PinDir::Out, over);
        let mut mapped = map_netlist(&nl, &lib).unwrap();
        let inserted = enforce_fanout(&mut mapped, &lib).unwrap();
        assert!(inserted >= 1);
        let after = validate(&mapped, true);
        assert!(
            !after
                .iter()
                .any(|v| matches!(v, Violation::FanoutExceeded { .. })),
            "still violated: {after:?}"
        );
        check_comb_equivalence(&nl, &mapped, 0).unwrap();
    }
}
