//! Hierarchical bottom-up optimization (§6.4, Fig. 18): "the logic
//! optimizer … optimizes the design for each microarchitectural component
//! before the designs are combined to form one large design … then the
//! design at the next highest level can be expanded in terms of its
//! lower-level designs and that design can be optimized."

use crate::critics::logic_rules;
use milo_netlist::{ComponentKind, DesignDb, Netlist, NetlistError};
use milo_rules::{Engine, Selection};
use milo_techmap::{map_netlist, MapError, TechLibrary};
use milo_timing::DesignStats;

/// Per-design record of the bottom-up pass.
#[derive(Clone, Debug)]
pub struct LevelReport {
    /// Design name.
    pub design: String,
    /// Statistics when first mapped (`DesignStats::default()` where
    /// `milo_timing::statistics` fails, e.g. on a cyclic level).
    pub before: DesignStats,
    /// Statistics after local optimization, likewise.
    pub after: DesignStats,
    /// Rules fired at this level.
    pub fired: usize,
}

/// Errors from the hierarchy pass.
#[derive(Debug)]
pub enum HierarchyError {
    /// Mapping failed.
    Map(MapError),
    /// Netlist manipulation failed.
    Netlist(NetlistError),
}

impl std::fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierarchyError::Map(e) => write!(f, "map: {e}"),
            HierarchyError::Netlist(e) => write!(f, "netlist: {e}"),
        }
    }
}

impl std::error::Error for HierarchyError {}

impl From<MapError> for HierarchyError {
    fn from(e: MapError) -> Self {
        HierarchyError::Map(e)
    }
}

impl From<NetlistError> for HierarchyError {
    fn from(e: NetlistError) -> Self {
        HierarchyError::Netlist(e)
    }
}

/// Names of designs instantiated by `nl`.
fn instance_deps(nl: &Netlist) -> Vec<String> {
    let mut out = Vec::new();
    for id in nl.component_ids() {
        if let Ok(c) = nl.component(id) {
            if let ComponentKind::Instance { design, .. } = &c.kind {
                if !out.contains(design) {
                    out.push(design.clone());
                }
            }
        }
    }
    out
}

/// Leaf-first ordering of the sub-designs reachable from `top`'s own
/// instances (`top` itself is not listed). Sub-designs are looked up in
/// `db`; a name `db` lacks is still listed, so the caller reports it.
fn dependency_order(top: &Netlist, db: &DesignDb) -> Vec<String> {
    let mut order = Vec::new();
    let mut visiting = vec![top.name.clone()];
    fn visit(name: &str, db: &DesignDb, order: &mut Vec<String>, visiting: &mut Vec<String>) {
        if order.iter().any(|n| n == name) || visiting.iter().any(|n| n == name) {
            return;
        }
        visiting.push(name.to_owned());
        if let Some(design) = db.get(name) {
            for dep in instance_deps(design) {
                visit(&dep, db, order, visiting);
            }
        }
        visiting.pop();
        order.push(name.to_owned());
    }
    for dep in instance_deps(top) {
        visit(&dep, db, &mut order, &mut visiting);
    }
    order
}

/// One level of the bottom-up pass: `raw` flattened over the
/// sub-designs optimized so far (`opt`), technology-mapped and run to
/// quiescence under the logic critic, keeping `raw`'s name and ports.
fn optimize_level(
    raw: &Netlist,
    opt: &DesignDb,
    lib: &TechLibrary,
    reports: &mut Vec<LevelReport>,
) -> Result<Netlist, HierarchyError> {
    let flat = opt.flatten_netlist(raw)?;
    let mut mapped = map_netlist(&flat, lib)?;
    // The run's own analysis measures the level before and after.
    let mut engine = Engine::new(logic_rules(lib));
    let run = engine.run_tracked(&mut mapped, &mut None, Selection::OpsOrder, 10_000);
    reports.push(LevelReport {
        design: raw.name.clone(),
        before: run.first,
        after: run.last,
        fired: run.fired,
    });
    mapped.name.clone_from(&raw.name);
    Ok(mapped)
}

/// Bottom-up optimization of a hierarchical design.
///
/// For every sub-design reachable from `top`, leaf-first: take its raw
/// body from `db`, flatten it over the sub-designs optimized so far,
/// technology-map it, and run the logic critic to quiescence (mux+FF
/// merges, inverter cleanup, …). The optimized body is kept, under the
/// same name and ports, in a database private to this call, so the next
/// level up expands into it. The top, once every sub-design has been
/// optimized and substituted, gets a final pass — where the Fig. 18
/// second-level merges (2:1 mux + MXFF2 → MXFF4) become visible.
///
/// `db` is only read: it holds compiler output, and no optimized,
/// technology-mapped body is ever written back to it, so the result is
/// the same whatever else `db` has cached.
///
/// Returns the fully optimized flat top netlist and per-level reports.
///
/// # Errors
///
/// Propagates flatten and mapping errors; a design missing from `db`
/// fails with [`NetlistError::NoSuchPort`].
pub fn optimize_bottom_up(
    top: &Netlist,
    db: &DesignDb,
    lib: &TechLibrary,
) -> Result<(Netlist, Vec<LevelReport>), HierarchyError> {
    let mut opt = DesignDb::new();
    let mut reports = Vec::new();
    for name in dependency_order(top, db) {
        let raw = db
            .get(&name)
            .ok_or_else(|| NetlistError::NoSuchPort(format!("design {name}")))?;
        // `raw`'s own sub-designs come earlier in the order, so `opt`
        // already holds them as optimized tech netlists.
        opt.insert(optimize_level(raw, &opt, lib, &mut reports)?);
    }
    // The optimized top has no instances left, so flattening it would
    // only copy it and sweep its dead nets: sweep in place instead.
    let mut final_top = optimize_level(top, &opt, lib, &mut reports)?;
    final_top.sweep_dead_nets();
    Ok((final_top, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_compilers::{compile, expand_micro_components};
    use milo_netlist::{
        ArithOps, CarryMode, ControlSet, MicroComponent, PinDir, RegFunctions, Trigger,
    };
    use milo_techmap::ecl_library;
    use milo_timing::statistics;

    /// The ABADD design of Fig. 16: ADD4 → MUX2:1:4 → REG4 (shift right).
    pub(crate) fn abadd(db: &mut DesignDb) -> Netlist {
        let mut nl = Netlist::new("ABADD");
        let au = MicroComponent::ArithmeticUnit {
            bits: 4,
            ops: ArithOps::ADD,
            mode: CarryMode::Ripple,
        };
        let mux = MicroComponent::Multiplexor {
            bits: 4,
            inputs: 2,
            enable: false,
        };
        let reg = MicroComponent::Register {
            bits: 4,
            trigger: Trigger::EdgeTriggered,
            funcs: RegFunctions {
                load: true,
                shift_left: false,
                shift_right: true,
            },
            ctrl: ControlSet::NONE,
        };
        let a_c = nl.add_component("add", ComponentKind::Micro(au));
        let m_c = nl.add_component("mux", ComponentKind::Micro(mux));
        let r_c = nl.add_component("reg", ComponentKind::Micro(reg));
        // A, B buses into the adder.
        for i in 0..4 {
            for (bus, comp, pin) in [("A", a_c, format!("A{i}")), ("B", a_c, format!("B{i}"))] {
                let net = nl.add_net(format!("{bus}{i}"));
                nl.connect_named(comp, &pin, net).unwrap();
                nl.add_port(format!("{bus}{i}"), PinDir::In, net);
            }
        }
        let cin = nl.add_net("CIN");
        nl.connect_named(a_c, "CIN", cin).unwrap();
        nl.add_port("CIN", PinDir::In, cin);
        let cout = nl.add_net("COUT");
        nl.connect_named(a_c, "COUT", cout).unwrap();
        nl.add_port("COUT", PinDir::Out, cout);
        // Sum → mux D0; external bus IN1 → mux D1.
        for i in 0..4 {
            let s = nl.add_net(format!("S{i}"));
            nl.connect_named(a_c, &format!("S{i}"), s).unwrap();
            nl.connect_named(m_c, &format!("D0_{i}"), s).unwrap();
            let d1 = nl.add_net(format!("IN1_{i}"));
            nl.connect_named(m_c, &format!("D1_{i}"), d1).unwrap();
            nl.add_port(format!("IN1_{i}"), PinDir::In, d1);
        }
        let sel = nl.add_net("SEL");
        nl.connect_named(m_c, "S0", sel).unwrap();
        nl.add_port("SEL", PinDir::In, sel);
        // Mux → register D; register outputs C.
        for i in 0..4 {
            let y = nl.add_net(format!("MY{i}"));
            nl.connect_named(m_c, &format!("Y{i}"), y).unwrap();
            nl.connect_named(r_c, &format!("D{i}"), y).unwrap();
            let q = nl.add_net(format!("C{i}"));
            nl.connect_named(r_c, &format!("Q{i}"), q).unwrap();
            nl.add_port(format!("C{i}"), PinDir::Out, q);
        }
        let sir = nl.add_net("SHIFTIN");
        nl.connect_named(r_c, "SIR", sir).unwrap();
        nl.add_port("SHIFTIN", PinDir::In, sir);
        // Register function select (hold/load/shift-right) and clock.
        for i in 0..2 {
            let f = nl.add_net(format!("F{i}"));
            nl.connect_named(r_c, &format!("F{i}"), f).unwrap();
            nl.add_port(format!("F{i}"), PinDir::In, f);
        }
        let clk = nl.add_net("CLK");
        nl.connect_named(r_c, "CLK", clk).unwrap();
        nl.add_port("CLK", PinDir::In, clk);

        // Compile the micro components into the database (Fig. 16's
        // compiler calls, including the nested MUX4:1:1 inside REG4).
        let mut work = nl.clone();
        expand_micro_components(&mut work, db).unwrap();
        // Also ensure the designs named in the paper exist.
        compile(
            &MicroComponent::ArithmeticUnit {
                bits: 4,
                ops: ArithOps::ADD,
                mode: CarryMode::Ripple,
            },
            db,
        )
        .unwrap();
        work
    }

    #[test]
    fn fig18_bottom_up_merges_mux_ff() {
        let mut db = DesignDb::new();
        let lib = ecl_library();
        let top = abadd(&mut db);

        // Reference: plain flatten + map, no optimization.
        let reference = map_netlist(&db.flatten_netlist(&top).unwrap(), &lib).unwrap();
        let ref_stats = statistics(&reference).unwrap();

        let (optimized, reports) = optimize_bottom_up(&top, &db, &lib).unwrap();
        let opt_stats = statistics(&optimized).unwrap();
        assert!(
            opt_stats.area < ref_stats.area,
            "bottom-up merge shrinks area: {opt_stats:?} vs {ref_stats:?}"
        );
        // Merged mux-FF macros must appear.
        let mxff = optimized
            .component_ids()
            .filter(|&id| {
                matches!(
                    optimized.component(id).map(|c| &c.kind),
                    Ok(ComponentKind::Tech(c)) if c.name.starts_with("MXFF")
                )
            })
            .count();
        assert!(mxff >= 4, "one merged mux-FF per register bit, got {mxff}");
        // Reports cover multiple hierarchy levels.
        assert!(reports.len() >= 2, "{reports:?}");

        // Behaviour preserved vs the unoptimized reference.
        milo_compilers::verify::check_seq_equivalence(&reference, &optimized, 60, 9).unwrap();
    }

    /// Replays `optimize_bottom_up(top, db)` level by level: each
    /// report must carry `statistics()` of that level's netlists bit for
    /// bit — the mapped body before the logic critic, and the optimized
    /// body after it.
    fn assert_level_reports_match_statistics(top: &Netlist, db: &DesignDb) {
        let lib = ecl_library();
        let (_, reports) = optimize_bottom_up(top, db, &lib).unwrap();
        let mut levels: Vec<&Netlist> = dependency_order(top, db)
            .iter()
            .map(|name| db.get(name).expect("compiled"))
            .collect();
        levels.push(top);
        assert_eq!(levels.len(), reports.len());
        let bits = |s: &DesignStats| {
            (
                s.area.to_bits(),
                s.power.to_bits(),
                s.cells,
                s.delay.to_bits(),
            )
        };
        let mut opt = DesignDb::new();
        for (raw, report) in levels.into_iter().zip(&reports) {
            let mapped = map_netlist(&opt.flatten_netlist(raw).unwrap(), &lib).unwrap();
            let before = statistics(&mapped).unwrap_or_default();
            let optimized = optimize_level(raw, &opt, &lib, &mut Vec::new()).unwrap();
            let after = statistics(&optimized).unwrap_or_default();
            assert_eq!(report.design, raw.name);
            assert_eq!(bits(&report.before), bits(&before), "{} before", raw.name);
            assert_eq!(bits(&report.after), bits(&after), "{} after", raw.name);
            opt.insert(optimized);
        }
    }

    #[test]
    fn level_reports_equal_statistics_of_their_netlists() {
        let mut db = DesignDb::new();
        let top = abadd(&mut db);
        assert_level_reports_match_statistics(&top, &db);

        let mut db = DesignDb::new();
        let mut top = milo_circuits::pipelined_datapath(4, 8, 7);
        expand_micro_components(&mut top, &mut db).unwrap();
        assert_level_reports_match_statistics(&top, &db);
    }

    #[test]
    fn dependency_order_is_leaf_first() {
        let mut db = DesignDb::new();
        let top = abadd(&mut db);
        let order = dependency_order(&top, &db);
        let pos = |n: &str| order.iter().position(|x| x == n);
        // REG4-variant depends on MUX4:1:1; top depends on both.
        let reg_pos = order
            .iter()
            .position(|n| n.starts_with("REG4"))
            .expect("register design present");
        let mux_pos = order
            .iter()
            .position(|n| n.starts_with("MUX4:1:1"))
            .expect("nested mux compiled");
        assert!(mux_pos < reg_pos);
        assert_eq!(
            pos(&top.name),
            None,
            "the top is optimized last, not listed"
        );
    }

    #[test]
    fn missing_design_is_reported_by_name() {
        let mut top = Netlist::new("TOP");
        top.add_component(
            "u0",
            ComponentKind::Instance {
                design: "NOPE".to_owned(),
                ports: Vec::new(),
            },
        );
        let err = optimize_bottom_up(&top, &DesignDb::new(), &ecl_library()).unwrap_err();
        assert!(
            matches!(&err, HierarchyError::Netlist(NetlistError::NoSuchPort(d)) if d == "design NOPE"),
            "{err}"
        );
    }
}
