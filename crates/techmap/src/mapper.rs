//! The technology mapper (§6.2): "uses a lookup table to replace a generic
//! component with the corresponding technology-specific component or set
//! of components".

use crate::library::TechLibrary;
use milo_netlist::{
    CellFunction, ComponentId, ComponentKind, GateFn, GenericMacro, Netlist, NetlistError,
    PowerLevel,
};
use std::fmt;

/// Errors from technology mapping.
#[derive(Debug)]
pub enum MapError {
    /// No cell (or cell combination) implements the generic macro.
    NoCell(String),
    /// The netlist still contains microarchitecture components or design
    /// instances — run the logic compilers / flattening first.
    Unmapped(String),
    /// Underlying netlist manipulation failed.
    Netlist(NetlistError),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::NoCell(m) => write!(f, "no technology cell implements {m}"),
            MapError::Unmapped(m) => write!(f, "cannot map unexpanded component {m}"),
            MapError::Netlist(e) => write!(f, "netlist error during mapping: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<NetlistError> for MapError {
    fn from(e: NetlistError) -> Self {
        MapError::Netlist(e)
    }
}

/// The lookup table: the cell function corresponding to a generic macro.
fn target_function(m: &GenericMacro) -> CellFunction {
    match *m {
        GenericMacro::Gate(f, n) => CellFunction::Gate(f, n),
        GenericMacro::Vdd => CellFunction::Const(true),
        GenericMacro::Vss => CellFunction::Const(false),
        GenericMacro::Mux { selects } => CellFunction::Mux { selects },
        GenericMacro::Decoder { inputs } => CellFunction::Decoder { inputs },
        GenericMacro::Adder { bits, cla } => CellFunction::Adder { bits, cla },
        GenericMacro::Comparator { bits } => CellFunction::Comparator { bits },
        GenericMacro::Counter { bits } => CellFunction::Counter { bits },
        GenericMacro::Dff { set, reset, enable } => CellFunction::Dff { set, reset, enable },
        GenericMacro::Latch { set, reset } => CellFunction::Latch { set, reset },
    }
}

/// Maps every generic component of `nl` into technology cells from `lib`,
/// returning a new netlist. Gate macros without a direct cell are replaced
/// by the inverted-function cell plus an inverter (the "set of components"
/// path), e.g. XNOR2 → XOR2 + INV in the shipped ECL library.
///
/// # Errors
///
/// * [`MapError::Unmapped`] if micro components or instances remain;
/// * [`MapError::NoCell`] if neither a direct cell nor a fallback exists.
pub fn map_netlist(nl: &Netlist, lib: &TechLibrary) -> Result<Netlist, MapError> {
    let mut out = nl.clone();
    let ids: Vec<ComponentId> = out.component_ids().collect();
    for id in ids {
        let kind = out.component(id)?.kind.clone();
        match kind {
            ComponentKind::Generic(m) => map_generic(&mut out, id, &m, lib)?,
            ComponentKind::Tech(c) => {
                if c.family != lib.name {
                    // Re-target to the new library by function.
                    let cell = lib
                        .cell_at_level(&c.function, PowerLevel::Standard)
                        .or_else(|| lib.cells_with_function(&c.function).into_iter().next())
                        .ok_or_else(|| MapError::NoCell(c.name.clone()))?;
                    out.set_kind(id, ComponentKind::Tech(cell.clone()))?;
                }
            }
            ComponentKind::Micro(m) => return Err(MapError::Unmapped(m.describe())),
            ComponentKind::Instance { design, .. } => return Err(MapError::Unmapped(design)),
        }
    }
    Ok(out)
}

fn map_generic(
    out: &mut Netlist,
    id: ComponentId,
    m: &GenericMacro,
    lib: &TechLibrary,
) -> Result<(), MapError> {
    let want = target_function(m);
    if let Some(cell) = lib.cell_at_level(&want, PowerLevel::Standard) {
        // Pin layouts are identical by construction; swap the kind in
        // place, keeping all connections.
        debug_assert_eq!(cell.pin_specs(), m.pin_specs());
        out.set_kind(id, ComponentKind::Tech(cell.clone()))?;
        return Ok(());
    }
    // Fallback for wide associative gates: tree of two-input cells of the
    // de-inverted function, inverted at the root if needed.
    if let CellFunction::Gate(f, n) = want {
        if n > 2 && f.is_associative() {
            let base_fn = f.deinverted().unwrap_or(f);
            let two = lib
                .cell_at_level(&CellFunction::Gate(base_fn, 2), PowerLevel::Standard)
                .cloned();
            let invc = lib
                .cell_at_level(&CellFunction::Gate(GateFn::Inv, 1), PowerLevel::Standard)
                .cloned();
            if let Some(two) = two {
                if f.deinverted().is_none() || invc.is_some() {
                    return decompose_wide_gate(out, id, f, two, invc, lib);
                }
            }
        }
    }
    // Fallback for simple gates: inverted-function cell + INV.
    if let CellFunction::Gate(f, n) = want {
        let inv_fn = f.inverted();
        let base_cell = lib.cell_at_level(&CellFunction::Gate(inv_fn, n), PowerLevel::Standard);
        let inv_cell = lib.cell_at_level(&CellFunction::Gate(GateFn::Inv, 1), PowerLevel::Standard);
        if let (Some(base), Some(invc)) = (base_cell, inv_cell) {
            let comp = out.component(id)?;
            let name = comp.name.clone();
            let input_nets: Vec<_> = comp
                .pins
                .iter()
                .filter(|p| p.dir == milo_netlist::PinDir::In)
                .map(|p| p.net)
                .collect();
            let y_net = comp
                .pins
                .iter()
                .find(|p| p.dir == milo_netlist::PinDir::Out)
                .and_then(|p| p.net);
            out.remove_component(id)?;
            let b = out.add_component(format!("{name}_base"), ComponentKind::Tech(base.clone()));
            for (i, net) in input_nets.iter().enumerate() {
                if let Some(net) = net {
                    out.connect_named(b, &format!("A{i}"), *net)?;
                }
            }
            let mid = out.add_net(format!("{name}_mid"));
            out.connect_named(b, "Y", mid)?;
            let iv = out.add_component(format!("{name}_inv"), ComponentKind::Tech(invc.clone()));
            out.connect_named(iv, "A0", mid)?;
            if let Some(y) = y_net {
                out.connect_named(iv, "Y", y)?;
            }
            return Ok(());
        }
    }
    Err(MapError::NoCell(m.catalog_name()))
}

/// Replaces a wide associative gate with a left-deep tree of two-input
/// cells of the de-inverted function, adding an inverter at the root for
/// NAND/NOR/XNOR.
fn decompose_wide_gate(
    out: &mut Netlist,
    id: ComponentId,
    f: GateFn,
    two: milo_netlist::TechCell,
    invc: Option<milo_netlist::TechCell>,
    _lib: &TechLibrary,
) -> Result<(), MapError> {
    let comp = out.component(id)?;
    let name = comp.name.clone();
    let input_nets: Vec<milo_netlist::NetId> = comp
        .pins
        .iter()
        .filter(|p| p.dir == milo_netlist::PinDir::In)
        .filter_map(|p| p.net)
        .collect();
    let y_net = comp
        .pins
        .iter()
        .find(|p| p.dir == milo_netlist::PinDir::Out)
        .and_then(|p| p.net);
    out.remove_component(id)?;
    let mut acc = input_nets[0];
    let inverted_root = f.deinverted().is_some();
    for (k, &net) in input_nets.iter().enumerate().skip(1) {
        let g = out.add_component(format!("{name}_t{k}"), ComponentKind::Tech(two.clone()));
        out.connect_named(g, "A0", acc)?;
        out.connect_named(g, "A1", net)?;
        let last = k == input_nets.len() - 1;
        if last && !inverted_root {
            if let Some(y) = y_net {
                out.connect_named(g, "Y", y)?;
            }
            return Ok(());
        }
        let mid = out.add_net(format!("{name}_n{k}"));
        out.connect_named(g, "Y", mid)?;
        acc = mid;
    }
    // Inverted root.
    let invc = invc.expect("checked by caller");
    let iv = out.add_component(format!("{name}_inv"), ComponentKind::Tech(invc));
    out.connect_named(iv, "A0", acc)?;
    if let Some(y) = y_net {
        out.connect_named(iv, "Y", y)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libraries::{cmos_library, ecl_library};
    use milo_compilers::verify::check_comb_equivalence;
    use milo_netlist::PinDir;

    fn xnor_netlist() -> Netlist {
        let mut nl = Netlist::new("x");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let y = nl.add_net("y");
        let g = nl.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Xnor, 2)),
        );
        nl.connect_named(g, "A0", a).unwrap();
        nl.connect_named(g, "A1", b).unwrap();
        nl.connect_named(g, "Y", y).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("b", PinDir::In, b);
        nl.add_port("y", PinDir::Out, y);
        nl
    }

    #[test]
    fn direct_mapping_preserves_function() {
        let nl = xnor_netlist();
        let mapped = map_netlist(&nl, &cmos_library()).unwrap();
        assert_eq!(mapped.component_count(), 1);
        check_comb_equivalence(&nl, &mapped, 0).unwrap();
    }

    #[test]
    fn fallback_mapping_xnor_in_ecl() {
        let nl = xnor_netlist();
        let mapped = map_netlist(&nl, &ecl_library()).unwrap();
        // XOR2 + INV.
        assert_eq!(mapped.component_count(), 2);
        check_comb_equivalence(&nl, &mapped, 0).unwrap();
    }

    #[test]
    fn remap_between_libraries() {
        let nl = xnor_netlist();
        let cmos = map_netlist(&nl, &cmos_library()).unwrap();
        let back = map_netlist(&cmos, &ecl_library());
        // CMOS XNOR2 has no ECL equivalent cell function match... it does:
        // function Gate(Xnor,2) is absent in ECL, so this must fail.
        assert!(back.is_err());
        // But a NAND2 netlist remaps fine.
        let mut nl2 = Netlist::new("n");
        let a = nl2.add_net("a");
        let b = nl2.add_net("b");
        let y = nl2.add_net("y");
        let g = nl2.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Nand, 2)),
        );
        nl2.connect_named(g, "A0", a).unwrap();
        nl2.connect_named(g, "A1", b).unwrap();
        nl2.connect_named(g, "Y", y).unwrap();
        nl2.add_port("a", PinDir::In, a);
        nl2.add_port("b", PinDir::In, b);
        nl2.add_port("y", PinDir::Out, y);
        let cmos2 = map_netlist(&nl2, &cmos_library()).unwrap();
        let ecl2 = map_netlist(&cmos2, &ecl_library()).unwrap();
        let ComponentKind::Tech(cell) = &ecl2
            .component(ecl2.component_ids().next().unwrap())
            .unwrap()
            .kind
        else {
            panic!("expected tech cell");
        };
        assert_eq!(cell.family, "ecl-ga");
    }

    #[test]
    fn micro_component_rejected() {
        let mut nl = Netlist::new("m");
        nl.add_component(
            "u",
            ComponentKind::Micro(milo_netlist::MicroComponent::Gate {
                function: GateFn::And,
                inputs: 6,
            }),
        );
        assert!(matches!(
            map_netlist(&nl, &ecl_library()),
            Err(MapError::Unmapped(_))
        ));
    }

    #[test]
    fn wide_xor_decomposes_to_tree() {
        let mut nl = Netlist::new("x4");
        let nets: Vec<_> = (0..4).map(|i| nl.add_net(format!("a{i}"))).collect();
        let y = nl.add_net("y");
        let g = nl.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Xor, 4)),
        );
        for (i, n) in nets.iter().enumerate() {
            nl.connect_named(g, &format!("A{i}"), *n).unwrap();
        }
        nl.connect_named(g, "Y", y).unwrap();
        for (i, n) in nets.iter().enumerate() {
            nl.add_port(format!("a{i}"), PinDir::In, *n);
        }
        nl.add_port("y", PinDir::Out, y);
        for lib in [ecl_library(), cmos_library()] {
            let mapped = map_netlist(&nl, &lib).unwrap();
            assert_eq!(mapped.component_count(), 3, "{}", lib.name);
            check_comb_equivalence(&nl, &mapped, 0).unwrap();
        }
        // XNOR3 needs the inverted-root path.
        let mut nl2 = Netlist::new("xn3");
        let nets: Vec<_> = (0..3).map(|i| nl2.add_net(format!("a{i}"))).collect();
        let y = nl2.add_net("y");
        let g = nl2.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Xnor, 3)),
        );
        for (i, n) in nets.iter().enumerate() {
            nl2.connect_named(g, &format!("A{i}"), *n).unwrap();
        }
        nl2.connect_named(g, "Y", y).unwrap();
        for (i, n) in nets.iter().enumerate() {
            nl2.add_port(format!("a{i}"), PinDir::In, *n);
        }
        nl2.add_port("y", PinDir::Out, y);
        let mapped = map_netlist(&nl2, &ecl_library()).unwrap();
        check_comb_equivalence(&nl2, &mapped, 0).unwrap();
    }
}
