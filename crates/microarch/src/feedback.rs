//! The statistics feedback loop of §6.3: "the critic calls upon the logic
//! compilers to generate the low-level generic designs … a technology
//! mapper converts these … statistics can then be generated from this
//! design."
//!
//! An [`Elaborator`] holds the loop's one piece of state: the flattened,
//! technology-mapped *body* of every compiled design it has met, built
//! once on first use. A measurement compiles each micro component (a
//! cache hit in the design database after the first time, as §6.1's
//! compilers "see if the requested design already exists"), splices the
//! cached bodies under the micro-level top with [`Netlist::splice`] —
//! the binding rules of [`DesignDb::flatten`] — copies every other
//! component as it is, and takes [`statistics`] of the result. The
//! stitched netlist is the same graph a fresh expand → flatten → map
//! would build; only its component and net order differ. Nothing is
//! stored in the caller's database besides the compiled designs.

use milo_compilers::compile;
use milo_netlist::{ComponentKind, DesignDb, NetId, Netlist, NetlistError, PinRef};
use milo_techmap::{map_netlist, TechLibrary};
use milo_timing::{statistics, DesignStats};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// `critic.measures`: feedback measurements taken.
fn obs_measures() -> &'static milo_trace::Counter {
    static C: OnceLock<Arc<milo_trace::Counter>> = OnceLock::new();
    C.get_or_init(|| milo_trace::Registry::global().counter("critic.measures"))
}

/// `critic.measure_ns`: wall time of each feedback measurement, from
/// compilation through statistics.
fn obs_measure_ns() -> &'static milo_trace::Histogram {
    static H: OnceLock<Arc<milo_trace::Histogram>> = OnceLock::new();
    H.get_or_init(|| milo_trace::Registry::global().histogram("critic.measure_ns"))
}

/// Errors from the feedback measurement.
#[derive(Debug)]
pub enum FeedbackError {
    /// Logic compilation failed.
    Compile(milo_compilers::CompileError),
    /// Technology mapping failed.
    Map(milo_techmap::MapError),
    /// Netlist manipulation failed.
    Netlist(NetlistError),
}

impl std::fmt::Display for FeedbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedbackError::Compile(e) => write!(f, "compile: {e}"),
            FeedbackError::Map(e) => write!(f, "map: {e}"),
            FeedbackError::Netlist(e) => write!(f, "netlist: {e}"),
        }
    }
}

impl std::error::Error for FeedbackError {}

impl From<milo_compilers::CompileError> for FeedbackError {
    fn from(e: milo_compilers::CompileError) -> Self {
        FeedbackError::Compile(e)
    }
}

impl From<milo_techmap::MapError> for FeedbackError {
    fn from(e: milo_techmap::MapError) -> Self {
        FeedbackError::Map(e)
    }
}

impl From<NetlistError> for FeedbackError {
    fn from(e: NetlistError) -> Self {
        FeedbackError::Netlist(e)
    }
}

/// The feedback loop's elaboration state: one flattened, mapped body
/// per compiled design, kept for the elaborator's lifetime (one critic
/// run). Bodies are mapped into the library of the calls that built
/// them; a call with another library starts the cache afresh.
#[derive(Debug, Default)]
pub struct Elaborator {
    library: String,
    bodies: HashMap<String, Netlist>,
    measurements: usize,
}

impl Elaborator {
    /// An elaborator with no bodies yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feedback measurements taken so far, failed ones included.
    pub(crate) fn measurements(&self) -> usize {
        self.measurements
    }

    /// Compiles and maps a microarchitecture-level netlist into `lib`,
    /// returning the flat mapped netlist: every micro component (and
    /// design instance) becomes a spliced copy of its cached body, every
    /// other component is copied as it is, and the mapper runs only when
    /// generic or other-library cells remain.
    ///
    /// # Errors
    ///
    /// Propagates compiler / flattening / mapping errors, and fails when
    /// a connected pin of a micro component names no port of its
    /// compiled design.
    pub fn elaborate(
        &mut self,
        nl: &Netlist,
        db: &mut DesignDb,
        lib: &TechLibrary,
    ) -> Result<Netlist, FeedbackError> {
        if self.library != lib.name {
            self.bodies.clear();
            self.library.clone_from(&lib.name);
        }
        let mut out = Netlist::new(format!("{}__elab", nl.name));
        let mut net_map: Vec<Option<NetId>> = vec![None; nl.net_slot_count()];
        for id in nl.net_ids() {
            net_map[id.index()] = Some(out.add_net(nl.net(id)?.name.clone()));
        }
        let outer = |net: NetId| net_map[net.index()].ok_or(NetlistError::NoSuchNet(net));
        for p in nl.ports() {
            out.add_port(p.name.clone(), p.dir, outer(p.net)?);
        }
        // Only cells the bodies do not cover need the mapper.
        let mut unmapped = false;
        for id in nl.component_ids() {
            let c = nl.component(id)?;
            let design = match &c.kind {
                ComponentKind::Micro(m) => Some(compile(m, db)?),
                ComponentKind::Instance { design, .. } => Some(design.clone()),
                ComponentKind::Generic(_) => {
                    unmapped = true;
                    None
                }
                ComponentKind::Tech(cell) => {
                    unmapped |= cell.family != lib.name;
                    None
                }
            };
            let pins = c
                .pins
                .iter()
                .map(|p| Ok((p.name.as_str(), p.net.map(outer).transpose()?)))
                .collect::<Result<Vec<_>, NetlistError>>()?;
            match design {
                Some(design) => out.splice(self.body(&design, db, lib)?, &c.name, &pins)?,
                None => {
                    let copy = out.add_component(c.name.clone(), c.kind.clone());
                    for (pin, (_, net)) in pins.iter().enumerate() {
                        if let Some(net) = net {
                            out.connect(PinRef::new(copy, pin as u16), *net)?;
                        }
                    }
                }
            }
        }
        out.sweep_dead_nets();
        if unmapped {
            out = map_netlist(&out, lib)?;
        }
        Ok(out)
    }

    /// The feedback measurement: true design statistics of a micro-level
    /// netlist, obtained through compilation and technology mapping.
    /// Records `critic.measures` and `critic.measure_ns`.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors.
    pub fn measure(
        &mut self,
        nl: &Netlist,
        db: &mut DesignDb,
        lib: &TechLibrary,
    ) -> Result<DesignStats, FeedbackError> {
        let started = Instant::now();
        self.measurements += 1;
        obs_measures().inc();
        let stats = self
            .elaborate(nl, db, lib)
            .and_then(|mapped| Ok(statistics(&mapped)?));
        obs_measure_ns().record(started.elapsed().as_nanos() as u64);
        stats
    }

    /// The flattened, mapped body of compiled design `design`, built on
    /// first use.
    fn body(
        &mut self,
        design: &str,
        db: &DesignDb,
        lib: &TechLibrary,
    ) -> Result<&Netlist, FeedbackError> {
        if !self.bodies.contains_key(design) {
            let body = map_netlist(&db.flatten(design)?, lib)?;
            self.bodies.insert(design.to_owned(), body);
        }
        Ok(&self.bodies[design])
    }
}

/// [`Elaborator::elaborate`] on a fresh elaborator.
///
/// # Errors
///
/// Propagates elaboration errors.
pub fn elaborate(
    nl: &Netlist,
    db: &mut DesignDb,
    lib: &TechLibrary,
) -> Result<Netlist, FeedbackError> {
    Elaborator::new().elaborate(nl, db, lib)
}

/// [`Elaborator::measure`] on a fresh elaborator.
///
/// # Errors
///
/// Propagates elaboration errors.
pub fn measure(
    nl: &Netlist,
    db: &mut DesignDb,
    lib: &TechLibrary,
) -> Result<DesignStats, FeedbackError> {
    Elaborator::new().measure(nl, db, lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_netlist::{ArithOps, CarryMode, ComponentKind, MicroComponent, PinDir};
    use milo_techmap::ecl_library;

    #[test]
    fn measure_adder_through_pipeline() {
        let mut nl = Netlist::new("top");
        let micro = MicroComponent::ArithmeticUnit {
            bits: 4,
            ops: ArithOps::ADD,
            mode: CarryMode::Ripple,
        };
        let c = nl.add_component("au", ComponentKind::Micro(micro));
        let pins: Vec<(String, PinDir)> = nl
            .component(c)
            .unwrap()
            .pins
            .iter()
            .map(|p| (p.name.clone(), p.dir))
            .collect();
        for (pin, dir) in pins {
            let net = nl.add_net(pin.clone());
            nl.connect_named(c, &pin, net).unwrap();
            nl.add_port(pin, dir, net);
        }
        let mut db = DesignDb::new();
        let lib = ecl_library();
        let stats = measure(&nl, &mut db, &lib).unwrap();
        assert!(stats.cells >= 1, "expanded to cells");
        assert!(stats.delay > 0.0 && stats.area > 0.0);
        // CLA version should elaborate faster but bigger.
        let mut nl2 = Netlist::new("top2");
        let micro2 = MicroComponent::ArithmeticUnit {
            bits: 4,
            ops: ArithOps::ADD,
            mode: CarryMode::CarryLookahead,
        };
        let c2 = nl2.add_component("au", ComponentKind::Micro(micro2));
        let pins: Vec<(String, PinDir)> = nl2
            .component(c2)
            .unwrap()
            .pins
            .iter()
            .map(|p| (p.name.clone(), p.dir))
            .collect();
        for (pin, dir) in pins {
            let net = nl2.add_net(pin.clone());
            nl2.connect_named(c2, &pin, net).unwrap();
            nl2.add_port(pin, dir, net);
        }
        let stats2 = measure(&nl2, &mut db, &lib).unwrap();
        assert!(
            stats2.delay < stats.delay,
            "CLA faster: {stats2:?} vs {stats:?}"
        );
        assert!(stats2.area > stats.area, "CLA bigger");
    }
}
