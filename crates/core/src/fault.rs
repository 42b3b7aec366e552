//! Deterministic fault injection for the flow engine.
//!
//! The fault-tolerance layer (panic isolation, pass budgets,
//! checkpoint/rollback, batch partial failure — see
//! `docs/ROBUSTNESS.md`) is only trustworthy if its recovery paths run
//! in CI. [`FaultInjector`] makes faults reproducible: it panics,
//! corrupts the work netlist, or exhausts a pass budget at exact
//! (pass, design) coordinates, a bounded number of times.
//!
//! Two ways in, mirroring `MILO_MATCH_ORACLE`:
//!
//! * **Environment** — `MILO_FAULT_INJECT="panic@bottom-up-logic/fig19_3"`
//!   arms the injector for every flow run in the process (parsed per
//!   run; share one injector via the programmatic API when fire counts
//!   must span runs). Multiple faults separate with `;`, `*` wildcards
//!   either coordinate, and a `#N` suffix fires the fault `N` times
//!   (`#inf` forever): `corrupt@compile/*#2;budget@*/abadd`.
//! * **Programmatic** — build [`FaultSpec`]s, wrap in an
//!   `Arc<FaultInjector>`, and hand it to `Milo::set_fault_injector`;
//!   it takes precedence over the environment. A batch shares one
//!   injector across all arms (and their retries), so fire counts are
//!   batch-global.

use milo_netlist::{Netlist, PinDir, PinRef};
use std::sync::atomic::{AtomicU32, Ordering};

/// What kind of fault to inject.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Panic inside the pass (caught by the flow's panic isolation).
    Panic,
    /// Structurally corrupt the work netlist right after the pass runs
    /// (a second driver on a driven net), so validation checkpoints
    /// and the corruption gate have something real to catch.
    Corrupt,
    /// Report the pass's budget as exhausted regardless of actual work.
    Budget,
}

impl FaultKind {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "panic" => Ok(FaultKind::Panic),
            "corrupt" => Ok(FaultKind::Corrupt),
            "budget" => Ok(FaultKind::Budget),
            other => Err(format!(
                "unknown fault kind {other:?} (expected panic|corrupt|budget)"
            )),
        }
    }
}

/// One armed fault: kind plus the (pass, design) coordinates it fires
/// at, and how many times it fires before disarming.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Pass name to fire at; `"*"` matches every pass.
    pub pass: String,
    /// Entry-design name to fire at; `"*"` matches every design.
    pub design: String,
    /// Number of firings before the fault disarms (`u32::MAX` ≈ ∞).
    pub times: u32,
}

impl FaultSpec {
    /// A fault firing once at exact coordinates.
    pub fn once(kind: FaultKind, pass: impl Into<String>, design: impl Into<String>) -> Self {
        Self {
            kind,
            pass: pass.into(),
            design: design.into(),
            times: 1,
        }
    }

    /// Builder: fire `times` times before disarming.
    #[must_use]
    pub fn repeated(mut self, times: u32) -> Self {
        self.times = times;
        self
    }

    fn matches(&self, kind: FaultKind, pass: &str, design: &str) -> bool {
        self.kind == kind
            && (self.pass == "*" || self.pass == pass)
            && (self.design == "*" || self.design == design)
    }
}

/// A set of armed faults with atomic per-fault fire counters, safe to
/// share (`Arc`) across the parallel arms of a batch.
#[derive(Debug, Default)]
pub struct FaultInjector {
    armed: Vec<(FaultSpec, AtomicU32)>,
}

impl FaultInjector {
    /// Arms the given faults.
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        Self {
            armed: specs
                .into_iter()
                .map(|s| {
                    let times = s.times;
                    (s, AtomicU32::new(times))
                })
                .collect(),
        }
    }

    /// Parses the `MILO_FAULT_INJECT` grammar:
    /// `kind@pass/design[#times]` joined by `;` — e.g.
    /// `panic@bottom-up-logic/fig19_3#2;corrupt@compile/*`.
    ///
    /// # Errors
    ///
    /// Describes the first malformed clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut specs = Vec::new();
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            let (kind, rest) = clause
                .split_once('@')
                .ok_or_else(|| format!("fault clause {clause:?} missing `@`"))?;
            let (coords, times) = match rest.rsplit_once('#') {
                Some((coords, "inf")) => (coords, u32::MAX),
                Some((coords, n)) => (
                    coords,
                    n.parse::<u32>()
                        .map_err(|_| format!("bad fire count {n:?} in {clause:?}"))?,
                ),
                None => (rest, 1),
            };
            let (pass, design) = coords
                .split_once('/')
                .ok_or_else(|| format!("fault clause {clause:?} missing `/`"))?;
            if pass.is_empty() || design.is_empty() {
                return Err(format!("fault clause {clause:?} has empty coordinates"));
            }
            specs.push(FaultSpec {
                kind: FaultKind::parse(kind)?,
                pass: pass.to_owned(),
                design: design.to_owned(),
                times,
            });
        }
        Ok(Self::new(specs))
    }

    /// Reads `MILO_FAULT_INJECT`; `None` when unset/empty.
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec — fault injection is a test harness,
    /// and a silently ignored typo would void the CI coverage it exists
    /// to provide.
    pub fn from_env() -> Option<Self> {
        let spec = std::env::var("MILO_FAULT_INJECT").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match Self::parse(&spec) {
            Ok(inj) => Some(inj),
            Err(e) => panic!("MILO_FAULT_INJECT: {e}"),
        }
    }

    /// Whether a fault of `kind` fires at `(pass, design)` — consuming
    /// one charge from the first armed matching spec. Deterministic for
    /// a fixed sequence of queries per (pass, design) coordinate.
    pub fn fires(&self, kind: FaultKind, pass: &str, design: &str) -> bool {
        for (spec, remaining) in &self.armed {
            if !spec.matches(kind, pass, design) {
                continue;
            }
            if spec.times == u32::MAX {
                return true;
            }
            if remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| r.checked_sub(1))
                .is_ok()
            {
                return true;
            }
        }
        false
    }

    /// Deterministically corrupts a netlist: the second connected
    /// output pin (on a different component than the first) is moved
    /// onto the first's net, creating a multi-driven net — and usually
    /// an undriven one where it left. Returns `false` when the netlist
    /// is too small to corrupt this way.
    pub fn corrupt(nl: &mut Netlist) -> bool {
        let mut first_net: Option<milo_netlist::NetId> = None;
        let mut victim: Option<(PinRef, milo_netlist::NetId)> = None;
        'scan: for id in nl.component_ids() {
            let Ok(comp) = nl.component(id) else { continue };
            for (i, pin) in comp.pins.iter().enumerate() {
                let (PinDir::Out, Some(net)) = (pin.dir, pin.net) else {
                    continue;
                };
                let pin_ref = PinRef::new(id, i as u16);
                match first_net {
                    None => {
                        first_net = Some(net);
                        break; // one output per component is enough
                    }
                    Some(target) if target != net => {
                        victim = Some((pin_ref, target));
                        break 'scan;
                    }
                    Some(_) => break,
                }
            }
        }
        match victim {
            Some((pin_ref, target)) => {
                nl.disconnect(pin_ref).is_ok() && nl.connect(pin_ref, target).is_ok()
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_netlist::fatal_violations;

    #[test]
    fn parse_grammar() {
        let inj = FaultInjector::parse("panic@bottom-up-logic/fig19_3#2; corrupt@compile/*")
            .expect("parses");
        assert!(inj.fires(FaultKind::Panic, "bottom-up-logic", "fig19_3"));
        assert!(inj.fires(FaultKind::Panic, "bottom-up-logic", "fig19_3"));
        assert!(
            !inj.fires(FaultKind::Panic, "bottom-up-logic", "fig19_3"),
            "two charges only"
        );
        assert!(!inj.fires(FaultKind::Panic, "compile", "fig19_3"));
        assert!(inj.fires(FaultKind::Corrupt, "compile", "anything"));
        assert!(
            !inj.fires(FaultKind::Corrupt, "compile", "again"),
            "single charge"
        );

        assert!(FaultInjector::parse("panic@x").is_err());
        assert!(FaultInjector::parse("explode@a/b").is_err());
        assert!(FaultInjector::parse("panic@a/b#lots").is_err());
    }

    #[test]
    fn unbounded_fires_forever() {
        let inj = FaultInjector::parse("budget@*/*#inf").expect("parses");
        for _ in 0..100 {
            assert!(inj.fires(FaultKind::Budget, "p", "d"));
        }
    }

    #[test]
    fn corrupt_introduces_fatal_violation() {
        let mut nl = milo_circuits::random_logic(20, 5, 42);
        assert!(fatal_violations(&nl).is_empty(), "clean before");
        assert!(FaultInjector::corrupt(&mut nl), "big enough to corrupt");
        assert!(
            !fatal_violations(&nl).is_empty(),
            "multi-driven (or undriven) net introduced"
        );
    }
}
