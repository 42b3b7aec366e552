//! Scale regression tests for `IncrementalSta`'s fallbacks and its
//! early cutoff.
//!
//! The incremental refresh path is property-tested against from-scratch
//! `analyze` on small designs; these tests pin its behaviour at 10k
//! gates — the scale where silently degenerating to full rebuilds (or
//! whole-cone re-propagation) on every refresh, or refreshing from stale
//! cached port tables, would either tank flow performance or corrupt
//! arrival times:
//!
//! * a multi-driven net on an evaluated component must force a rebuild;
//! * a port-list change must force a rebuild (the cached per-net port
//!   tables are stale);
//! * a healthy local rewrite (power-level kind change) must *not* force
//!   a rebuild, and must still match a fresh analysis exactly;
//! * power-level swaps must re-evaluate only what changed, on average
//!   well under the fan-out cone;
//! * a transaction closing a combinational loop must be reported as a
//!   cycle, not raise levels forever.

use milo::circuits::random_control;
use milo_netlist::{
    ComponentId, ComponentKind, Netlist, NetlistError, PinDir, PinRef, TechCell, TouchSet,
};
use milo_rules::{refresh_or_rebuild, Tx};
use milo_techmap::{cmos_library, ecl_library, map_netlist, TechLibrary};
use milo_timing::{analyze, IncrementalSta};

const GATES: usize = 10_000;

fn big_mapped() -> Netlist {
    map_netlist(&random_control(GATES, 24, 11), &cmos_library()).expect("maps")
}

/// Every net's arrival (and the worst delay) must agree bitwise with a
/// from-scratch analysis of the same netlist.
fn assert_matches_fresh(inc: &IncrementalSta, nl: &Netlist) {
    let fresh = analyze(nl).expect("analyzes");
    for net in nl.net_ids() {
        let a = inc.sta().arrival(net);
        let b = fresh.arrival(net);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "net {net:?}: incremental arrival {a} vs fresh {b}"
        );
    }
    let (a, b) = (inc.sta().worst_delay(), fresh.worst_delay());
    assert_eq!(a.to_bits(), b.to_bits(), "worst delay: {a} vs {b}");
}

/// The ECL-mapped 10k design — the library the default flow rewrites
/// under, and the one with power-level variants.
fn big_ecl() -> (Netlist, TechLibrary) {
    let lib = ecl_library();
    let nl = map_netlist(&random_control(GATES, 24, 11), &lib).expect("maps");
    (nl, lib)
}

/// A power variant of `id`'s cell other than the cell itself, when `id`
/// is a combinational technology cell that has one.
fn power_swap(nl: &Netlist, lib: &TechLibrary, id: ComponentId) -> Option<TechCell> {
    let c = nl.component(id).ok()?;
    let ComponentKind::Tech(cell) = &c.kind else {
        return None;
    };
    if c.kind.is_sequential() {
        return None;
    }
    lib.power_variants(cell)
        .into_iter()
        .find(|v| v.name != cell.name)
        .cloned()
}

#[test]
fn multi_driven_net_falls_back_to_rebuild() {
    let lib = cmos_library();
    let mut nl = big_mapped();
    let mut inc = IncrementalSta::new(&nl).expect("analyzes");
    assert_eq!(inc.full_rebuilds, 1, "only the initial build");

    // Attach a second driver to an already-driven net. Feeding the extra
    // buffer from a primary input keeps the graph acyclic.
    let victim = nl
        .net_ids()
        .find(|&n| nl.driver(n).is_some() && nl.load_count(n) > 0)
        .expect("a driven net with loads");
    let src = nl
        .ports()
        .iter()
        .find(|p| p.dir == PinDir::In)
        .expect("an input port")
        .net;
    let buf_cell = lib.buffer().expect("buffer cell").clone();
    let buf = nl.add_component("dup_drv", ComponentKind::Tech(buf_cell));
    nl.connect_named(buf, "A0", src).expect("connects");
    nl.connect_named(buf, "Y", victim).expect("connects");

    let mut touched = TouchSet::new();
    touched.component(buf);
    touched.net(victim);
    inc.refresh(&nl, &touched).expect("refreshes");
    assert_eq!(
        inc.full_rebuilds, 2,
        "a multi-driven net must force a full rebuild"
    );
    assert_matches_fresh(&inc, &nl);
}

#[test]
fn port_list_change_falls_back_to_rebuild() {
    let mut nl = big_mapped();
    let mut inc = IncrementalSta::new(&nl).expect("analyzes");
    assert_eq!(inc.full_rebuilds, 1, "only the initial build");

    // A new out port adds fanout (and thus delay) its net's cached port
    // tables know nothing about.
    let net = nl
        .net_ids()
        .find(|&n| nl.driver(n).is_some() && nl.load_count(n) > 0)
        .expect("a driven net");
    nl.add_port("late_probe", PinDir::Out, net);

    let mut touched = TouchSet::new();
    touched.net(net);
    inc.refresh(&nl, &touched).expect("refreshes");
    assert_eq!(
        inc.full_rebuilds, 2,
        "a port-list change must force a full rebuild"
    );
    assert_matches_fresh(&inc, &nl);
}

#[test]
fn power_level_kind_change_refreshes_without_rebuild() {
    // The ECL library carries power-level variants (the CMOS one does
    // not); it is also the library the default flow rewrites under.
    let (mut nl, lib) = big_ecl();
    let mut inc = IncrementalSta::new(&nl).expect("analyzes");
    assert_eq!(inc.full_rebuilds, 1, "only the initial build");

    // The timing-area pass's bread-and-butter rewrite: swap a cell for a
    // power variant of the same function. Pins are unchanged, so the
    // refresh must stay on the incremental path.
    let (victim, alt) = nl
        .component_ids()
        .find_map(|id| Some((id, power_swap(&nl, &lib, id)?)))
        .expect("a cell with a power variant");
    nl.set_kind(victim, ComponentKind::Tech(alt))
        .expect("live id");

    let mut touched = TouchSet::new();
    touched.component(victim);
    inc.refresh(&nl, &touched).expect("refreshes");
    assert_eq!(
        inc.full_rebuilds, 1,
        "a healthy local rewrite must stay incremental"
    );
    assert!(
        inc.incremental_props > 0,
        "the swapped cell must re-evaluate"
    );
    assert_matches_fresh(&inc, &nl);
}

/// The early cutoff, by count. Every 97th combinational cell of the
/// ECL-mapped 10k design is swapped to a power variant, refreshed,
/// swapped back and refreshed again. The mean number of components
/// re-evaluated per refresh must stay under 2 % of the design: a
/// whole-cone refresh averages ~21 % on these swaps, while stopping at
/// unchanged nets re-evaluates ~0.3 %. Single swaps near the inputs
/// still reach ~16 %, so the mean is bounded, not the maximum. Every
/// refresh must match a fresh analysis bitwise.
#[test]
fn power_swaps_reevaluate_only_what_changed() {
    let (mut nl, lib) = big_ecl();
    let mut inc = IncrementalSta::new(&nl).expect("analyzes");
    let swaps: Vec<(ComponentId, TechCell)> = nl
        .component_ids()
        .filter(|&id| nl.component(id).is_ok_and(|c| !c.kind.is_sequential()))
        .step_by(97)
        .filter_map(|id| Some((id, power_swap(&nl, &lib, id)?)))
        .collect();
    assert!(swaps.len() >= 50, "only {} swappable cells", swaps.len());

    let mut refreshes = 0u32;
    for (victim, alt) in swaps {
        let mut tx = Tx::new(&mut nl);
        tx.change_kind(victim, ComponentKind::Tech(alt))
            .expect("a power variant keeps the pins");
        let log = tx.commit();
        let ts = log.touch_set();
        inc.refresh(&nl, &ts).expect("refreshes");
        assert_matches_fresh(&inc, &nl);
        log.undo(&mut nl);
        inc.refresh(&nl, &ts).expect("refreshes");
        assert_matches_fresh(&inc, &nl);
        refreshes += 2;
    }
    assert_eq!(inc.full_rebuilds, 1, "no swap may fall back to a rebuild");
    let mean = inc.incremental_props as f64 / f64::from(refreshes);
    let bound = 0.02 * nl.component_count() as f64;
    assert!(
        mean < bound,
        "{mean:.1} components re-evaluated per refresh on average, bound {bound:.1}"
    );
}

/// A transaction that closes a combinational loop in the 10k design:
/// `refresh` must report the cycle instead of raising levels forever,
/// and the engine's `refresh_or_rebuild` must drop the analysis.
#[test]
fn closing_a_loop_reports_a_cycle() {
    let (mut nl, _) = big_ecl();
    let mut inc = IncrementalSta::new(&nl).expect("analyzes");
    let mut tracked = Some(inc.clone());
    let combinational = |id: ComponentId| nl.component(id).is_ok_and(|c| !c.kind.is_sequential());
    let out_net = |id: ComponentId| {
        let comp = nl.component(id).ok()?;
        comp.pins.iter().find(|p| p.dir == PinDir::Out)?.net
    };
    // Gate `g` drives combinational `h`; feeding `h`'s output back into
    // an input of `g` closes g → h → g. Take the first such gate, near
    // the inputs, so the loop sits upstream of most of the design.
    let (g, pin, back) = nl
        .component_ids()
        .filter(|&g| combinational(g))
        .find_map(|g| {
            let comp = nl.component(g).ok()?;
            let pin = comp
                .pins
                .iter()
                .position(|p| p.dir == PinDir::In && p.net.is_some())?;
            let h = nl
                .loads(out_net(g)?)
                .into_iter()
                .map(|l| l.component)
                .find(|&h| h != g && combinational(h))?;
            Some((g, pin as u16, out_net(h)?))
        })
        .expect("a gate with a combinational load");
    let mut tx = Tx::new(&mut nl);
    tx.disconnect(PinRef::new(g, pin)).expect("disconnects");
    tx.connect(PinRef::new(g, pin), back).expect("connects");
    let ts = tx.commit().touch_set();

    assert!(
        matches!(inc.refresh(&nl, &ts), Err(NetlistError::CombinationalCycle)),
        "a closed loop must be reported"
    );
    refresh_or_rebuild(&mut tracked, &nl, &ts);
    assert!(tracked.is_none(), "no analysis survives a cycle");
}
