//! The statistics feedback loop of §6.3: "the critic calls upon the logic
//! compilers to generate the low-level generic designs … a technology
//! mapper converts these … statistics can then be generated from this
//! design."
//!
//! An [`Elaborator`] holds the loop's state: the flattened,
//! technology-mapped *body* of every compiled design it has met, built
//! once on first use, and the stitched netlist of its last full
//! measurement. A full measurement compiles each micro component (a
//! cache hit in the design database after the first time, as §6.1's
//! compilers "see if the requested design already exists"), splices the
//! cached bodies under the micro-level top with [`Netlist::splice`] —
//! the binding rules of [`DesignDb::flatten`] — copies every other
//! component as it is, and takes [`statistics`] of the result. The
//! stitched netlist is the same graph a fresh expand → flatten → map
//! would build; only its component and net order differ.
//!
//! A carry-mode trial changes the kind of one component. Its
//! measurement, [`Elaborator::measure_swap`], swaps only that
//! component's body in the kept stitched netlist under a [`Tx`],
//! refreshes an [`IncrementalSta`] from the transaction's touch set,
//! reads the statistics, undoes the swap and rolls the analysis back
//! ([`judge_trial`]): SOCRATES's change log (§2.2.2) applied to the
//! feedback loop. Nothing is stored in the caller's database besides
//! the compiled designs.

use milo_compilers::compile;
use milo_netlist::{
    ComponentId, ComponentKind, DesignDb, NetId, Netlist, NetlistError, PinRef, Spliced,
};
use milo_rules::{judge_trial, Tx};
use milo_techmap::{map_netlist, TechLibrary};
use milo_timing::{statistics, DesignStats, IncrementalSta};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// `critic.measures`: feedback measurements taken.
fn obs_measures() -> &'static milo_trace::Counter {
    static C: OnceLock<Arc<milo_trace::Counter>> = OnceLock::new();
    C.get_or_init(|| milo_trace::Registry::global().counter("critic.measures"))
}

/// `critic.measure_ns`: wall time of each feedback measurement, from
/// compilation through statistics, or of a trial's body swap.
fn obs_measure_ns() -> &'static milo_trace::Histogram {
    static H: OnceLock<Arc<milo_trace::Histogram>> = OnceLock::new();
    H.get_or_init(|| milo_trace::Registry::global().histogram("critic.measure_ns"))
}

/// `critic.stitched`: components added to a stitched netlist, by a full
/// elaboration or by a body swap.
fn obs_stitched() -> &'static milo_trace::Counter {
    static C: OnceLock<Arc<milo_trace::Counter>> = OnceLock::new();
    C.get_or_init(|| milo_trace::Registry::global().counter("critic.stitched"))
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
/// run), and the live stitched netlist. Bodies are mapped into the
/// library of the calls that built them; a call with another library
/// starts the cache afresh.
#[derive(Debug, Default)]
pub struct Elaborator {
    library: String,
    bodies: HashMap<String, Netlist>,
    measurements: usize,
    live: Option<Live>,
}

/// The stitched netlist of the last full measurement, with every kept
/// swap applied since.
#[derive(Debug)]
struct Live {
    /// The stitched, mapped netlist. Its dead nets stay: a swapped-in
    /// body may join an outer net the old body left unconnected.
    nl: Netlist,
    /// The stitched net of each micro net slot.
    net_map: Vec<Option<NetId>>,
    /// Per micro component slot, what its body added (`None` for a
    /// component copied as it is).
    spans: Vec<Option<Spliced>>,
    /// The analysis of `nl`, built on the first swap, so a critic run
    /// without a trial analyzes the stitched netlist once.
    sta: Option<IncrementalSta>,
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

    /// The live stitched netlist: that of the last full measurement,
    /// with every kept swap applied. Mapped, with its dead nets kept.
    /// `None` before the first measurement and after an error.
    pub fn stitched(&self) -> Option<&Netlist> {
        self.live.as_ref().map(|live| &live.nl)
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
        let (live, unmapped) = self.stitch(nl, db, lib)?;
        let mut out = live.nl;
        obs_stitched().add(out.component_count() as u64);
        out.sweep_dead_nets();
        if unmapped {
            out = map_netlist(&out, lib)?;
        }
        Ok(out)
    }

    /// The feedback measurement: true design statistics of a micro-level
    /// netlist, obtained through compilation and technology mapping.
    /// Keeps the stitched netlist live for later trials. Records
    /// `critic.measures` and `critic.measure_ns`.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors; no live state remains then.
    pub fn measure(
        &mut self,
        nl: &Netlist,
        db: &mut DesignDb,
        lib: &TechLibrary,
    ) -> Result<DesignStats, FeedbackError> {
        let started = Instant::now();
        self.measurements += 1;
        obs_measures().inc();
        self.live = None;
        let stats = self.live_state(nl, db, lib).and_then(|live| {
            let stats = statistics(&live.nl)?;
            self.live = Some(live);
            Ok(stats)
        });
        obs_measure_ns().record(started.elapsed().as_nanos() as u64);
        stats
    }

    /// The feedback measurement of a trial: statistics of `nl`, which
    /// must be the netlist this elaborator last measured in full or
    /// kept, with only the kind of component `site` changed. Swaps
    /// `site`'s body in the live stitched netlist under a [`Tx`],
    /// refreshes the incremental analysis from the touch set, reads the
    /// statistics, undoes the swap and rolls the analysis back, so the
    /// cost follows the body and the arrivals it moves, not the design.
    ///
    /// Measures `nl` in full instead, leaving the live state as it was,
    /// when there is none, `site` has no recorded body, or its new kind
    /// names no design; and after any error, which also drops the live
    /// state. Records `critic.measures` and `critic.measure_ns` as
    /// [`Elaborator::measure`] does. Debug builds check the statistics
    /// against a full measurement of `nl`.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors.
    pub fn measure_swap(
        &mut self,
        nl: &Netlist,
        site: ComponentId,
        db: &mut DesignDb,
        lib: &TechLibrary,
    ) -> Result<DesignStats, FeedbackError> {
        let started = Instant::now();
        self.measurements += 1;
        obs_measures().inc();
        let stats = match self.swap(nl, site, false, db, lib) {
            Some(stats) => Ok(stats),
            None => self
                .live_state(nl, db, lib)
                .and_then(|live| Ok(statistics(&live.nl)?)),
        };
        obs_measure_ns().record(started.elapsed().as_nanos() as u64);
        stats
    }

    /// Keeps a kind change: `nl` is the netlist this elaborator last
    /// measured in full or kept, with the kind of `site` changed and
    /// committed. Swaps `site`'s body in the live stitched netlist for
    /// good, or, where [`Elaborator::measure_swap`] would measure in
    /// full, rebuilds the live state from `nl`; if that fails, no live
    /// state remains and later trials measure in full. Not a feedback
    /// measurement.
    pub fn keep_swap(
        &mut self,
        nl: &Netlist,
        site: ComponentId,
        db: &mut DesignDb,
        lib: &TechLibrary,
    ) {
        if self.swap(nl, site, true, db, lib).is_none() {
            self.live = self.live_state(nl, db, lib).ok();
        }
    }

    /// Stitches `nl` without counting it: every micro component (and
    /// design instance) becomes a spliced copy of its cached body, every
    /// other component is copied as it is. Returns the stitched netlist,
    /// unswept and unmapped, with its bookkeeping, and whether generic or
    /// other-library cells remain for the mapper.
    fn stitch(
        &mut self,
        nl: &Netlist,
        db: &mut DesignDb,
        lib: &TechLibrary,
    ) -> Result<(Live, bool), FeedbackError> {
        if self.library != lib.name {
            self.bodies.clear();
            self.live = None;
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
        let mut spans = vec![None; nl.component_slot_count()];
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
                Some(design) => {
                    let body = self.body(&design, db, lib)?;
                    spans[id.index()] = Some(out.splice(body, &c.name, &pins)?);
                }
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
        let live = Live {
            nl: out,
            net_map,
            spans,
            sta: None,
        };
        Ok((live, unmapped))
    }

    /// The live state of `nl`: stitched, counted in `critic.stitched`,
    /// and mapped, with its dead nets kept.
    fn live_state(
        &mut self,
        nl: &Netlist,
        db: &mut DesignDb,
        lib: &TechLibrary,
    ) -> Result<Live, FeedbackError> {
        let (mut live, unmapped) = self.stitch(nl, db, lib)?;
        obs_stitched().add(live.nl.component_count() as u64);
        if unmapped {
            live.nl = map_netlist(&live.nl, lib)?;
        }
        Ok(live)
    }

    /// Swaps `site`'s body in the live netlist for the body of its kind
    /// in `nl` and returns the statistics after the swap, which stays
    /// when `keep` and is undone otherwise. `None` where
    /// [`Elaborator::measure_swap`] measures in full; an error also
    /// drops the live state.
    fn swap(
        &mut self,
        nl: &Netlist,
        site: ComponentId,
        keep: bool,
        db: &mut DesignDb,
        lib: &TechLibrary,
    ) -> Option<DesignStats> {
        let live = self.live.as_ref().filter(|_| self.library == lib.name)?;
        live.spans.get(site.index())?.as_ref()?;
        let c = nl.component(site).ok()?;
        let pins = c
            .pins
            .iter()
            .map(|p| match p.net {
                Some(net) => Some((p.name.as_str(), Some((*live.net_map.get(net.index())?)?))),
                None => Some((p.name.as_str(), None)),
            })
            .collect::<Option<Vec<_>>>()?;
        let design = match &c.kind {
            ComponentKind::Micro(m) => compile(m, db).map_err(FeedbackError::from),
            ComponentKind::Instance { design, .. } => Ok(design.clone()),
            _ => return None,
        };
        let swapped = design.and_then(|design| {
            self.body(&design, db, lib)?;
            self.swap_body(site, &c.name, &design, &pins, keep)
        });
        match swapped {
            Ok(stats) => {
                self.debug_assert_full_measure(nl, db, lib, stats);
                Some(stats)
            }
            Err(_) => {
                self.live = None;
                None
            }
        }
    }

    /// The swap itself. Under a [`Tx`] on the live netlist, removes the
    /// old body of `site` and splices `design`'s body as `prefix` with
    /// `pins`, then refreshes the analysis (built on the first swap) from
    /// the transaction's touch set and reads the statistics. A trial
    /// undoes the swap and rolls the analysis back; a kept swap records
    /// the new body.
    fn swap_body(
        &mut self,
        site: ComponentId,
        prefix: &str,
        design: &str,
        pins: &[(&str, Option<NetId>)],
        keep: bool,
    ) -> Result<DesignStats, FeedbackError> {
        let Self { bodies, live, .. } = self;
        let live = live.as_mut().expect("checked by the caller");
        let old = live.spans[site.index()]
            .as_ref()
            .expect("checked by the caller");
        if live.sta.is_none() {
            live.sta = Some(IncrementalSta::new(&live.nl)?);
        }
        let mut tx = Tx::new(&mut live.nl);
        for id in old.components() {
            tx.remove_component(id)?;
        }
        for net in old.nets() {
            tx.remove_net(net)?;
        }
        let added = tx.splice(&bodies[design], prefix, pins)?;
        obs_stitched().add(added.components().count() as u64);
        let log = tx.commit();
        let mut stats = Err(NetlistError::CombinationalCycle);
        judge_trial(&mut live.sta, &mut live.nl, log, |sta| {
            // No analysis remains when the swap made a cycle.
            if let Some(sta) = sta {
                stats = sta.stats();
            }
            keep
        });
        if keep {
            live.spans[site.index()] = Some(added);
        }
        Ok(stats?)
    }

    /// The oracle of debug builds: a swap's statistics equal a full
    /// measurement of the same micro netlist, bit for bit. Counts
    /// nothing in `critic.*`.
    fn debug_assert_full_measure(
        &mut self,
        nl: &Netlist,
        db: &mut DesignDb,
        lib: &TechLibrary,
        stats: DesignStats,
    ) {
        if cfg!(debug_assertions) {
            let bits = |s: DesignStats| {
                (
                    s.area.to_bits(),
                    s.power.to_bits(),
                    s.cells,
                    s.delay.to_bits(),
                )
            };
            let full = self.stitch(nl, db, lib).and_then(|(live, unmapped)| {
                let mapped = if unmapped {
                    map_netlist(&live.nl, lib)?
                } else {
                    live.nl
                };
                Ok(statistics(&mapped)?)
            });
            debug_assert_eq!(
                full.ok().map(bits),
                Some(bits(stats)),
                "a body swap's statistics diverged from a full measurement of {}",
                nl.name
            );
        }
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
