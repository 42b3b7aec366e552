//! The MILO pipeline (Fig. 11): microarchitecture critic → logic
//! compilers → technology mapper → logic optimizer, with the statistics
//! generator feeding back at every stage.
//!
//! Since the Flow/pass redesign the stages live in [`crate::flow`] as
//! individual [`crate::Pass`] objects; [`Milo::synthesize`] is a thin
//! shim over the default [`Flow`](crate::Flow), and
//! [`Milo::synthesize_batch`] fans independent designs across all cores.

use crate::constraints::Constraints;
use crate::fault::FaultInjector;
use crate::flow::{json_f64, json_string, Flow, FlowOutput};
use milo_compilers::expand_micro_components;
use milo_microarch::{CriticReport, FeedbackError};
use milo_netlist::{DesignDb, Netlist, Violation};
use milo_opt::{LevelReport, TimingReport};
use milo_techmap::{map_netlist, TechLibrary};
use milo_timing::{statistics, DesignStats};
use std::fmt;
use std::sync::Arc;

/// How the flow driver reacted to a recoverable failure — carried
/// inside the structured [`MiloError`] variants so callers (and the
/// JSON report) can tell a hard abort from a degraded-but-continued
/// run or a retried batch arm.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryAction {
    /// The flow stopped and surfaced the error.
    Aborted,
    /// The failing pass was skipped over and the flow continued.
    SkippedPass,
    /// The pre-pass checkpoint was restored and the flow continued.
    RolledBack,
    /// The batch arm was retried once and still failed.
    Retried,
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryAction::Aborted => "aborted",
            RecoveryAction::SkippedPass => "skipped pass",
            RecoveryAction::RolledBack => "rolled back",
            RecoveryAction::Retried => "retried",
        })
    }
}

/// Errors from the synthesis pipeline.
#[derive(Debug)]
pub enum MiloError {
    /// Microarchitecture critic / feedback failure.
    Feedback(FeedbackError),
    /// Hierarchical optimization failure.
    Hierarchy(milo_opt::HierarchyError),
    /// Mapping failure.
    Map(milo_techmap::MapError),
    /// Netlist failure.
    Netlist(milo_netlist::NetlistError),
    /// Compilation failure.
    Compile(String),
    /// A pass (or batch arm) panicked; the unwind was caught at the
    /// pass boundary and converted into this structured error.
    PassPanicked {
        /// The panicking pass (or `"batch-arm"` / `"baseline"` /
        /// `"flow"` for panics outside any single pass).
        pass: String,
        /// The entry design being synthesized.
        design: String,
        /// The panic message (best-effort string extraction).
        payload: String,
        /// What the driver did about it.
        recovery: RecoveryAction,
    },
    /// A pass exceeded its [`crate::RewriteBudget`].
    BudgetExceeded {
        /// The over-budget pass.
        pass: String,
        /// The entry design being synthesized.
        design: String,
        /// Which limit was exceeded, and by how much.
        detail: String,
        /// What the driver did about it.
        recovery: RecoveryAction,
    },
    /// A post-pass validation checkpoint found fatal structural
    /// violations ([`crate::Flow::validate_each_pass`]).
    ValidationFailed {
        /// The pass after which validation failed.
        pass: String,
        /// The entry design being synthesized.
        design: String,
        /// The fatal violations found.
        violations: Vec<Violation>,
        /// What the driver did about it.
        recovery: RecoveryAction,
    },
    /// The work netlist reached the end of the pass list structurally
    /// corrupt (multi-driven or undriven nets) — nothing downstream can
    /// be trusted, so the flow refuses to map or report it.
    DesignCorrupt {
        /// The entry design being synthesized.
        design: String,
        /// The fatal violations, rendered.
        detail: String,
    },
}

impl MiloError {
    /// Whether this error is a caught panic (the only class the batch
    /// driver retries — everything else is deterministic).
    pub fn is_panic(&self) -> bool {
        matches!(self, MiloError::PassPanicked { .. })
    }

    /// Stamps the recovery action onto the structured variants
    /// (no-op for the plain stage errors, which always abort).
    #[must_use]
    pub(crate) fn with_recovery(mut self, action: RecoveryAction) -> Self {
        match &mut self {
            MiloError::PassPanicked { recovery, .. }
            | MiloError::BudgetExceeded { recovery, .. }
            | MiloError::ValidationFailed { recovery, .. } => *recovery = action,
            _ => {}
        }
        self
    }
}

impl fmt::Display for MiloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiloError::Feedback(e) => write!(f, "feedback: {e}"),
            MiloError::Hierarchy(e) => write!(f, "hierarchy: {e}"),
            MiloError::Map(e) => write!(f, "map: {e}"),
            MiloError::Netlist(e) => write!(f, "netlist: {e}"),
            MiloError::Compile(e) => write!(f, "compile: {e}"),
            MiloError::PassPanicked {
                pass,
                design,
                payload,
                recovery,
            } => write!(
                f,
                "pass {pass:?} panicked on design {design:?} ({recovery}): {payload}"
            ),
            MiloError::BudgetExceeded {
                pass,
                design,
                detail,
                recovery,
            } => write!(
                f,
                "pass {pass:?} exceeded its budget on design {design:?} ({recovery}): {detail}"
            ),
            MiloError::ValidationFailed {
                pass,
                design,
                violations,
                recovery,
            } => {
                write!(
                    f,
                    "validation after pass {pass:?} on design {design:?} ({recovery}): "
                )?;
                for (i, v) in violations.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            MiloError::DesignCorrupt { design, detail } => {
                write!(f, "design {design:?} is structurally corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for MiloError {}

impl From<FeedbackError> for MiloError {
    fn from(e: FeedbackError) -> Self {
        MiloError::Feedback(e)
    }
}
impl From<milo_opt::HierarchyError> for MiloError {
    fn from(e: milo_opt::HierarchyError) -> Self {
        MiloError::Hierarchy(e)
    }
}
impl From<milo_techmap::MapError> for MiloError {
    fn from(e: milo_techmap::MapError) -> Self {
        MiloError::Map(e)
    }
}
impl From<milo_netlist::NetlistError> for MiloError {
    fn from(e: milo_netlist::NetlistError) -> Self {
        MiloError::Netlist(e)
    }
}

/// Everything a synthesis run produces.
#[derive(Debug)]
pub struct SynthesisResult {
    /// The optimized technology-specific netlist.
    pub netlist: Netlist,
    /// Statistics of the optimized design.
    pub stats: DesignStats,
    /// Statistics of the unoptimized direct mapping (the comparison
    /// baseline of Fig. 19).
    pub baseline: DesignStats,
    /// Microarchitecture critic report (None when the input had no
    /// microarchitecture components).
    pub critic: Option<CriticReport>,
    /// Per-level hierarchy optimization reports.
    pub levels: Vec<LevelReport>,
    /// Timing-optimizer report.
    pub timing: TimingReport,
    /// Electric violations remaining after repair (should be only
    /// benign dangling outputs).
    pub violations: Vec<Violation>,
    /// Buffers inserted by the electric critic.
    pub buffers_inserted: usize,
}

impl SynthesisResult {
    /// Delay improvement over the baseline in percent.
    pub fn delay_improvement_pct(&self) -> f64 {
        self.stats.delay_improvement_pct(&self.baseline)
    }

    /// Area improvement over the baseline in percent.
    pub fn area_improvement_pct(&self) -> f64 {
        self.stats.area_improvement_pct(&self.baseline)
    }

    /// Hand-rolled JSON summary (the build environment has no serde):
    /// design name, optimized and baseline statistics, improvements,
    /// critic and timing summaries, level reports, and electric counts.
    pub fn to_json(&self) -> String {
        let stats = |s: &DesignStats| {
            format!(
                "{{\"cells\": {}, \"area\": {}, \"delay\": {}, \"power\": {}}}",
                s.cells,
                json_f64(s.area),
                json_f64(s.delay),
                json_f64(s.power)
            )
        };
        let critic = match &self.critic {
            None => "null".to_owned(),
            Some(c) => {
                let fired: Vec<String> = c.fired.iter().map(|f| json_string(f)).collect();
                format!(
                    "{{\"fired\": [{}], \"cla_upgrades\": {}, \"ripple_downgrades\": {}, \
                     \"met_timing\": {}}}",
                    fired.join(", "),
                    c.cla_upgrades,
                    c.ripple_downgrades,
                    match c.met_timing {
                        Some(m) => m.to_string(),
                        None => "null".to_owned(),
                    }
                )
            }
        };
        let levels: Vec<String> = self
            .levels
            .iter()
            .map(|l| {
                format!(
                    "{{\"design\": {}, \"fired\": {}, \"before\": {}, \"after\": {}}}",
                    json_string(&l.design),
                    l.fired,
                    stats(&l.before),
                    stats(&l.after)
                )
            })
            .collect();
        format!(
            "{{\"design\": {}, \"stats\": {}, \"baseline\": {}, \
             \"delay_improvement_pct\": {}, \"area_improvement_pct\": {}, \
             \"critic\": {}, \"levels\": [{}], \
             \"timing\": {{\"met\": {}, \"initial_delay\": {}, \"final_delay\": {}, \
             \"strategies_applied\": {}}}, \
             \"violations\": {}, \"buffers_inserted\": {}}}",
            json_string(&self.netlist.name),
            stats(&self.stats),
            stats(&self.baseline),
            json_f64(self.delay_improvement_pct()),
            json_f64(self.area_improvement_pct()),
            critic,
            levels.join(", "),
            self.timing.met,
            json_f64(self.timing.initial_delay),
            json_f64(self.timing.final_delay),
            self.timing.applied.len(),
            self.violations.len(),
            self.buffers_inserted,
        )
    }
}

/// The MILO system: a technology library plus the design database the
/// logic compilers populate. The database holds compiler output only:
/// no run stores its top or its optimized bodies there, so a warm
/// instance gives every design the result a fresh one would.
///
/// # Examples
///
/// ```
/// use milo_core::{Constraints, Milo};
/// use milo_techmap::ecl_library;
/// use milo_netlist::{ComponentKind, GateFn, GenericMacro, Netlist, PinDir};
///
/// let mut nl = Netlist::new("inv");
/// let a = nl.add_net("a");
/// let y = nl.add_net("y");
/// let g = nl.add_component("g", ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)));
/// nl.connect_named(g, "A0", a)?;
/// nl.connect_named(g, "Y", y)?;
/// nl.add_port("a", PinDir::In, a);
/// nl.add_port("y", PinDir::Out, y);
///
/// let mut milo = Milo::new(ecl_library());
/// let result = milo.synthesize(&nl, &Constraints::none())?;
/// assert_eq!(result.stats.cells, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Milo {
    pub(crate) lib: TechLibrary,
    pub(crate) db: DesignDb,
    pub(crate) fault: Option<Arc<FaultInjector>>,
}

/// The baseline ("human designer") elaboration as a pure function of a
/// database snapshot: [`Milo::elaborate_unoptimized`] on a throwaway
/// side instance. The flow driver runs this on a parallel arm; the
/// snapshot shares its netlists with the caller's database through
/// `Arc`, so forking costs a name-table copy, not a deep clone (and the
/// library clone is a reference bump).
pub(crate) fn elaborate_baseline(
    db: DesignDb,
    lib: &TechLibrary,
    nl: &Netlist,
) -> Result<DesignStats, MiloError> {
    let mut side = Milo {
        lib: lib.clone(),
        db,
        fault: None,
    };
    let mapped = side.elaborate_unoptimized(nl)?;
    Ok(statistics(&mapped)?)
}

impl Milo {
    /// Creates a MILO instance targeting `lib`.
    pub fn new(lib: TechLibrary) -> Self {
        Self {
            lib,
            db: DesignDb::new(),
            fault: None,
        }
    }

    /// Creates a MILO instance seeded with an existing design database.
    /// This is how a long-lived service seeds a worker: a snapshot of
    /// its compiler cache is handed to a fresh `Milo` and recovered
    /// with [`Milo::into_database`] after the run, to merge newly
    /// compiled designs back.
    pub fn with_database(lib: TechLibrary, db: DesignDb) -> Self {
        Self {
            lib,
            db,
            fault: None,
        }
    }

    /// Consumes the instance, yielding its design database (every
    /// design the compilers generated across all runs, plus whatever it
    /// was seeded with).
    pub fn into_database(self) -> DesignDb {
        self.db
    }

    /// Arms a fault injector for every flow run against this instance
    /// (test harness; see [`FaultInjector`]). Flows with their own
    /// injector take precedence; `MILO_FAULT_INJECT` is the fallback.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.fault = Some(injector);
    }

    /// The armed fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.fault.clone()
    }

    /// The target library.
    pub fn library(&self) -> &TechLibrary {
        &self.lib
    }

    /// The design database: compiled designs accumulate across runs, as
    /// in the paper's compiler cache, and nothing else enters it.
    pub fn database(&self) -> &DesignDb {
        &self.db
    }

    /// Library and database views for the flow driver.
    pub(crate) fn parts_mut(&mut self) -> (&TechLibrary, &mut DesignDb) {
        (&self.lib, &mut self.db)
    }

    /// The "human designer" reference flow: compile and map the entry
    /// as-is, with no optimization. Used as the comparison baseline.
    ///
    /// # Errors
    ///
    /// Propagates compiler / mapping errors.
    pub fn elaborate_unoptimized(&mut self, nl: &Netlist) -> Result<Netlist, MiloError> {
        let mut work = nl.clone();
        work.name = format!("{}__base", nl.name);
        expand_micro_components(&mut work, &mut self.db)
            .map_err(|e| MiloError::Compile(e.to_string()))?;
        let flat = self.db.flatten_netlist(&work)?;
        let mapped = map_netlist(&flat, &self.lib)?;
        Ok(mapped)
    }

    /// The default paper flow: microarchitecture critic → logic
    /// compilers → bottom-up logic optimization → electric critic →
    /// time/area optimizers. Customize it with [`Flow`]'s builder
    /// methods before [`Flow::run`]ning it against this instance.
    pub fn flow(&self) -> Flow {
        Flow::standard()
    }

    /// Runs the full MILO pipeline on a microarchitecture- or gate-level
    /// netlist.
    ///
    /// This is a thin shim over the default [`Flow`] (per-pass
    /// statistics sampling off, since the report is discarded); it
    /// produces exactly the same result the flow API does.
    ///
    /// # Errors
    ///
    /// Propagates stage failures.
    pub fn synthesize(
        &mut self,
        nl: &Netlist,
        constraints: &Constraints,
    ) -> Result<SynthesisResult, MiloError> {
        let mut flow = Flow::standard();
        flow.sample_stats(false);
        Ok(flow.run(self, nl, constraints)?.result)
    }

    /// Synthesizes independent designs in parallel through the default
    /// flow, fanning across all cores via `milo-par`.
    ///
    /// Every arm starts from an `Arc`-shared snapshot of the current
    /// database and the shared library — no deep clones — so each
    /// design sees the same compiler cache, and compiled designs from
    /// one batch member do not feed another (snapshot semantics).
    ///
    /// Each design comes back as its own `Result`, in input order,
    /// deterministically: one design panicking or corrupting itself
    /// does not poison the batch. Healthy arms return their full
    /// [`FlowOutput`] and have their compiled designs merged into this
    /// instance's database in input order; failed arms surface
    /// structured errors and merge nothing.
    ///
    /// Arms whose failure was a caught panic are retried once — panics
    /// may be environmental (and injected faults have bounded charges)
    /// where deterministic stage errors are not worth re-running. An
    /// arm that fails again reports [`RecoveryAction::Retried`].
    pub fn synthesize_batch(
        &mut self,
        designs: &[Netlist],
        constraints: &Constraints,
    ) -> Vec<Result<FlowOutput, MiloError>> {
        self.batch_inner(designs, constraints)
            .into_iter()
            .map(|run| {
                run.map(|(output, db)| {
                    self.db.merge_from(&db);
                    output
                })
            })
            .collect()
    }

    /// The shared batch driver: parallel per-design flows over a
    /// database snapshot, through [`run_with_retry`]. Returns per-design
    /// results with each successful arm's private database, un-merged.
    fn batch_inner(
        &mut self,
        designs: &[Netlist],
        constraints: &Constraints,
    ) -> Vec<Result<(FlowOutput, DesignDb), MiloError>> {
        let lib = self.lib.clone();
        let snapshot = self.db.clone();
        // Resolve the injector once: all arms AND retries share it, so
        // fire charges are batch-global (a once-only fault hits one arm
        // and is spent by the time that arm retries).
        let fault = self
            .fault
            .clone()
            .or_else(|| FaultInjector::from_env().map(Arc::new));
        let arm_run = |nl: &Netlist| -> Result<(FlowOutput, DesignDb), MiloError> {
            let mut arm = Milo {
                lib: lib.clone(),
                db: snapshot.clone(),
                fault: None,
            };
            let mut flow = Flow::standard();
            flow.sample_stats(false);
            if let Some(f) = &fault {
                flow.inject_faults(f.clone());
            }
            let out = flow.run(&mut arm, nl, constraints)?;
            Ok((out, arm.db))
        };
        run_with_retry(designs, arm_run)
    }
}

/// The one retry path, shared by the batch driver and the daemon: runs
/// `attempt` on every design in parallel, panic-isolated, with results in
/// input order, then runs once more every design whose failure was a
/// caught panic. Panics may be environmental (and injected faults have
/// bounded charges), where deterministic stage errors are not worth
/// re-running. A design that fails its retry reports
/// [`RecoveryAction::Retried`].
pub fn run_with_retry<T: Send>(
    designs: &[Netlist],
    attempt: impl Fn(&Netlist) -> Result<T, MiloError> + Sync,
) -> Vec<Result<T, MiloError>> {
    let arm_panicked =
        |nl: &Netlist, p: milo_par::Panic, recovery: RecoveryAction| MiloError::PassPanicked {
            pass: "batch-arm".to_owned(),
            design: nl.name.clone(),
            payload: p.message(),
            recovery,
        };
    let mut runs: Vec<Result<T, MiloError>> = milo_par::try_par_map(designs, &attempt)
        .into_iter()
        .zip(designs)
        .map(|(run, nl)| match run {
            Ok(inner) => inner,
            Err(p) => Err(arm_panicked(nl, p, RecoveryAction::Aborted)),
        })
        .collect();
    let retry: Vec<usize> = runs
        .iter()
        .enumerate()
        .filter(|(_, run)| matches!(run, Err(e) if e.is_panic()))
        .map(|(i, _)| i)
        .collect();
    let second = milo_par::try_par_map(&retry, |&i| attempt(&designs[i]));
    for (&slot, run) in retry.iter().zip(second) {
        runs[slot] = match run {
            Ok(Ok(inner)) => Ok(inner),
            Ok(Err(e)) => Err(e.with_recovery(RecoveryAction::Retried)),
            Err(p) => Err(arm_panicked(&designs[slot], p, RecoveryAction::Retried)),
        };
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_compilers::verify::check_seq_equivalence;
    use milo_netlist::{
        ArithOps, CarryMode, ComponentKind, ControlSet, MicroComponent, PinDir, RegFunctions,
        Trigger,
    };
    use milo_techmap::ecl_library;

    /// A small micro design: adder + register feedback (Fig. 14 shape).
    fn counterish() -> Netlist {
        let mut nl = Netlist::new("cnt");
        let au = nl.add_component(
            "add",
            ComponentKind::Micro(MicroComponent::ArithmeticUnit {
                bits: 4,
                ops: ArithOps::ADD,
                mode: CarryMode::Ripple,
            }),
        );
        let reg = nl.add_component(
            "reg",
            ComponentKind::Micro(MicroComponent::Register {
                bits: 4,
                trigger: Trigger::EdgeTriggered,
                funcs: RegFunctions::LOAD,
                ctrl: ControlSet::RESET,
            }),
        );
        let vdd = nl.add_component(
            "vdd",
            ComponentKind::Generic(milo_netlist::GenericMacro::Vdd),
        );
        let vss = nl.add_component(
            "vss",
            ComponentKind::Generic(milo_netlist::GenericMacro::Vss),
        );
        let one = nl.add_net("one");
        let zero = nl.add_net("zero");
        nl.connect_named(vdd, "Y", one).unwrap();
        nl.connect_named(vss, "Y", zero).unwrap();
        for i in 0..4 {
            let q = nl.add_net(format!("q{i}"));
            nl.connect_named(reg, &format!("Q{i}"), q).unwrap();
            nl.connect_named(au, &format!("A{i}"), q).unwrap();
            nl.add_port(format!("q{i}"), PinDir::Out, q);
            let s = nl.add_net(format!("s{i}"));
            nl.connect_named(au, &format!("S{i}"), s).unwrap();
            nl.connect_named(reg, &format!("D{i}"), s).unwrap();
            nl.connect_named(au, &format!("B{i}"), if i == 0 { one } else { zero })
                .unwrap();
        }
        nl.connect_named(au, "CIN", zero).unwrap();
        nl.connect_named(reg, "F0", one).unwrap();
        let rst = nl.add_net("rst");
        let clk = nl.add_net("clk");
        nl.connect_named(reg, "RST", rst).unwrap();
        nl.connect_named(reg, "CLK", clk).unwrap();
        nl.add_port("rst", PinDir::In, rst);
        nl.add_port("clk", PinDir::In, clk);
        nl
    }

    #[test]
    fn full_pipeline_improves_counterish_design() {
        let mut milo = Milo::new(ecl_library());
        let entry = counterish();
        let result = milo.synthesize(&entry, &Constraints::none()).unwrap();
        assert!(
            result
                .critic
                .as_ref()
                .unwrap()
                .fired
                .contains(&"adder-register-to-counter"),
            "{:?}",
            result.critic
        );
        assert!(result.stats.area < result.baseline.area, "{result:?}");
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        // Function preserved vs the unoptimized elaboration.
        let baseline_nl = milo.elaborate_unoptimized(&entry).unwrap();
        check_seq_equivalence(&baseline_nl, &result.netlist, 60, 17).unwrap();
        assert!(result.area_improvement_pct() > 0.0);
    }

    #[test]
    fn timing_constraint_drives_cla() {
        let mut milo = Milo::new(ecl_library());
        let mut nl = Netlist::new("addpath");
        let au = nl.add_component(
            "au",
            ComponentKind::Micro(MicroComponent::ArithmeticUnit {
                bits: 8,
                ops: ArithOps::ADD,
                mode: CarryMode::Ripple,
            }),
        );
        let pins: Vec<(String, PinDir)> = nl
            .component(au)
            .unwrap()
            .pins
            .iter()
            .map(|p| (p.name.clone(), p.dir))
            .collect();
        for (pin, dir) in pins {
            let net = nl.add_net(pin.clone());
            nl.connect_named(au, &pin, net).unwrap();
            nl.add_port(pin, dir, net);
        }
        let loose = milo.synthesize(&nl, &Constraints::none()).unwrap();
        let tight = milo
            .synthesize(
                &nl,
                &Constraints::none().with_max_delay(loose.stats.delay * 0.7),
            )
            .unwrap();
        assert!(tight.stats.delay < loose.stats.delay, "{tight:?}");
        assert_eq!(tight.critic.as_ref().unwrap().met_timing, Some(true));
    }

    /// Elaboration leaves the instance's database holding exactly the
    /// designs the compilers generate for the entry — no
    /// `{name}__base` top per call.
    #[test]
    fn elaboration_stores_only_compiled_designs() {
        let entry = milo_circuits::pipelined_datapath(16, 8, 7);
        let mut compiled = DesignDb::new();
        expand_micro_components(&mut entry.clone(), &mut compiled).unwrap();
        let names = |db: &DesignDb| {
            let mut names: Vec<String> = db.names().map(str::to_owned).collect();
            names.sort();
            names
        };

        let mut milo = Milo::new(ecl_library());
        let elaborated = milo.elaborate_unoptimized(&entry).unwrap();
        assert_eq!(elaborated.name, format!("{}__base", entry.name));
        assert_eq!(names(milo.database()), names(&compiled));
    }
}
