//! The composable synthesis flow: the paper's pipeline (Fig. 11/18) as
//! an ordered list of [`Pass`] objects over a shared [`FlowContext`].
//!
//! `Milo::synthesize` used to hard-code the five stages — micro critic →
//! logic compilers → bottom-up logic optimization → electric critic →
//! time/area optimizers — in one monolithic function. They are now
//! individual passes ([`MicroCritic`], [`Compile`], [`BottomUpLogic`],
//! [`FanoutRepair`], [`TimingArea`]) composed by a [`Flow`], which adds
//! insertion points for custom passes, per-pass skip predicates, an
//! observer hook for progress/metrics, and a structured [`FlowReport`]
//! (per-pass wall time, cells/area/delay deltas, applied-rule counts)
//! serializable to JSON. See `docs/FLOW_API.md` for the contract and
//! migration notes.
//!
//! # Examples
//!
//! ```
//! use milo_core::{Constraints, Flow, Milo};
//! use milo_techmap::ecl_library;
//!
//! let nl = milo_core::parse_netlist("
//! design demo
//! input a b
//! output y
//! comp and2 g A0=a A1=b Y=y
//! ")?;
//! let mut milo = Milo::new(ecl_library());
//! let mut flow = milo.flow(); // the default paper flow
//! let out = flow.run(&mut milo, &nl, &Constraints::none())?;
//! assert_eq!(out.report.passes.len(), 5);
//! assert!(out.result.stats.cells >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::constraints::Constraints;
use crate::fault::{FaultInjector, FaultKind};
use crate::pipeline::{elaborate_baseline, Milo, MiloError, RecoveryAction, SynthesisResult};
use milo_compilers::expand_micro_components;
use milo_microarch::CriticReport;
use milo_netlist::{fatal_violations, validate, DesignDb, Netlist, Violation};
use milo_opt::{LevelReport, TimingReport};
use milo_techmap::{enforce_fanout, map_netlist, TechLibrary};
use milo_timing::{statistics, DesignStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------

/// The shared state a [`Flow`] threads through its passes.
///
/// `work` is the netlist being transformed: the entry design before the
/// compilers run, the expanded hierarchy top afterwards, and the
/// technology-mapped implementation once a mapping pass ([`BottomUpLogic`]
/// or [`FlowContext::ensure_mapped`]) has run.
pub struct FlowContext<'a> {
    /// The entry netlist, untouched (micro- or gate-level).
    pub entry: &'a Netlist,
    /// The user constraints for this run.
    pub constraints: &'a Constraints,
    /// The target technology library.
    pub lib: &'a TechLibrary,
    /// The design database compiled designs accumulate into. It holds
    /// compiler output only: the compiled top lives in `work`, and the
    /// bottom-up bodies stay private to [`BottomUpLogic`].
    pub db: &'a mut DesignDb,
    /// The netlist being transformed.
    pub work: Netlist,
    /// Whether `work` is the compiled (micro-expanded) top, named
    /// `<entry>__milo`, i.e. whether [`Compile`] has run.
    pub compiled: bool,
    /// Whether `work` is technology-mapped.
    pub mapped: bool,
    /// Microarchitecture critic report, once [`MicroCritic`] has run on a
    /// micro-level entry.
    pub critic: Option<CriticReport>,
    /// Per-level reports from [`BottomUpLogic`].
    pub levels: Vec<LevelReport>,
    /// Timing-optimizer report, once [`TimingArea`] has run.
    pub timing: Option<TimingReport>,
    /// Buffers inserted by electric-critic passes so far.
    pub buffers_inserted: usize,
}

impl FlowContext<'_> {
    /// Ensures `work` is a flat, technology-mapped netlist, so electric
    /// and timing passes can run even when the mapping pass
    /// ([`BottomUpLogic`]) was skipped or reordered away: the compiled
    /// hierarchy (or the raw entry) is flattened and direct-mapped,
    /// exactly like the unoptimized baseline.
    ///
    /// # Errors
    ///
    /// Propagates compile / flatten / mapping errors.
    pub fn ensure_mapped(&mut self) -> Result<(), MiloError> {
        if self.mapped {
            return Ok(());
        }
        self.ensure_compiled()?;
        let flat = self.db.flatten_netlist(&self.work)?;
        self.work = map_netlist(&flat, self.lib)?;
        self.mapped = true;
        Ok(())
    }

    /// Ensures `work` is the compiled (micro-expanded) top, running the
    /// logic compilers if [`Compile`] has not. The top is never stored
    /// in the database: mapping passes flatten `work` itself, so any
    /// in-place edits a custom pass made to it since compilation always
    /// take effect.
    ///
    /// # Errors
    ///
    /// Propagates compiler errors.
    pub fn ensure_compiled(&mut self) -> Result<(), MiloError> {
        if self.compiled {
            return Ok(());
        }
        let mut compiled = std::mem::take(&mut self.work);
        compiled.name = format!("{}__milo", self.entry.name);
        expand_micro_components(&mut compiled, self.db)
            .map_err(|e| MiloError::Compile(e.to_string()))?;
        self.compiled = true;
        self.work = compiled;
        Ok(())
    }

    /// Best-effort statistics of `work` (None while `work` still has
    /// unexpanded hierarchy or components without timing models).
    pub fn sample_stats(&self) -> Option<DesignStats> {
        statistics(&self.work).ok()
    }
}

// ---------------------------------------------------------------------
// Fault-tolerance policy
// ---------------------------------------------------------------------

/// What the flow driver does when a pass fails — panics, returns an
/// error, exceeds its [`RewriteBudget`], or leaves a corrupt netlist
/// behind a validation checkpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FailureAction {
    /// Stop the flow and surface the structured error (the historical
    /// behavior, and the default).
    #[default]
    Abort,
    /// Record the failure, restore the pre-pass checkpoint (except on
    /// budget exhaustion, where the partial work is valid and kept),
    /// and continue with the remaining passes. The run is marked
    /// [`FlowReport::degraded`].
    SkipPass,
    /// Record the failure, always restore the pre-pass checkpoint, and
    /// continue. The run is marked [`FlowReport::degraded`].
    RollbackAndContinue,
}

/// A per-pass work limit. `None` fields are unlimited. The driver
/// checks the budget after the pass returns — passes are not preempted,
/// so `max_wall` bounds *accepted* work, not execution time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RewriteBudget {
    /// Maximum `rules_applied` the pass may report.
    pub max_rewrites: Option<usize>,
    /// Maximum wall-clock time the pass may spend.
    pub max_wall: Option<Duration>,
}

impl RewriteBudget {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limits applied rewrites.
    pub fn rewrites(max: usize) -> Self {
        Self {
            max_rewrites: Some(max),
            max_wall: None,
        }
    }

    /// Limits wall-clock time.
    pub fn wall(max: Duration) -> Self {
        Self {
            max_rewrites: None,
            max_wall: Some(max),
        }
    }

    fn exceeded(&self, rules_applied: usize, wall: Duration) -> Option<String> {
        if let Some(max) = self.max_rewrites {
            if rules_applied > max {
                return Some(format!("{rules_applied} rewrites > budget {max}"));
            }
        }
        if let Some(max) = self.max_wall {
            if wall > max {
                return Some(format!("{wall:?} wall > budget {max:?}"));
            }
        }
        None
    }
}

/// Fault-tolerance policy for one pass: a work budget plus what to do
/// on failure. Attached with [`Flow::with_policy`]; passes without a
/// policy run unlimited and abort on failure, exactly as before.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassPolicy {
    /// The pass's work budget.
    pub budget: RewriteBudget,
    /// What the driver does when the pass fails.
    pub on_failure: FailureAction,
}

impl PassPolicy {
    /// A policy with the given failure action and no budget.
    pub fn on_failure(action: FailureAction) -> Self {
        Self {
            budget: RewriteBudget::unlimited(),
            on_failure: action,
        }
    }

    /// Builder: sets the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: RewriteBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// How a pass's slot in the flow concluded.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PassOutcome {
    /// The pass ran to completion.
    #[default]
    Completed,
    /// The pass was skipped by its skip predicate.
    Skipped,
    /// The pass failed and was skipped over by [`FailureAction::SkipPass`]
    /// (netlist restored, except after budget exhaustion).
    FailedSkipped,
    /// The pass failed and [`FailureAction::RollbackAndContinue`]
    /// restored the pre-pass checkpoint.
    RolledBack,
}

impl PassOutcome {
    /// Stable lowercase token used in the JSON report.
    pub fn as_str(&self) -> &'static str {
        match self {
            PassOutcome::Completed => "completed",
            PassOutcome::Skipped => "skipped",
            PassOutcome::FailedSkipped => "failed-skipped",
            PassOutcome::RolledBack => "rolled-back",
        }
    }
}

/// A restorable snapshot of the flow's mutable state, captured before a
/// pass that has a non-abort policy (or when validation checkpoints are
/// on). The design-database snapshot is an `Arc`-backed name-table copy
/// — compiled designs are shared, not deep-cloned; only the work
/// netlist itself is cloned.
struct Checkpoint {
    work: Netlist,
    db: DesignDb,
    compiled: bool,
    mapped: bool,
    critic: Option<CriticReport>,
    levels: Vec<LevelReport>,
    timing: Option<TimingReport>,
    buffers_inserted: usize,
}

impl Checkpoint {
    fn capture(ctx: &FlowContext<'_>) -> Self {
        Self {
            work: ctx.work.clone(),
            db: ctx.db.clone(),
            compiled: ctx.compiled,
            mapped: ctx.mapped,
            critic: ctx.critic.clone(),
            levels: ctx.levels.clone(),
            timing: ctx.timing.clone(),
            buffers_inserted: ctx.buffers_inserted,
        }
    }

    fn restore(self, ctx: &mut FlowContext<'_>) {
        ctx.work = self.work;
        *ctx.db = self.db;
        ctx.compiled = self.compiled;
        ctx.mapped = self.mapped;
        ctx.critic = self.critic;
        ctx.levels = self.levels;
        ctx.timing = self.timing;
        ctx.buffers_inserted = self.buffers_inserted;
    }
}

// ---------------------------------------------------------------------
// Pass trait and reports
// ---------------------------------------------------------------------

/// One stage of a synthesis flow.
///
/// Passes must be [`Send`]: the flow body runs on a worker thread,
/// overlapped with the baseline ("human designer") elaboration.
pub trait Pass: Send {
    /// Stable pass name, used for insertion points and skip predicates.
    fn name(&self) -> &str;

    /// Transforms `ctx`, returning what the pass applied. The flow
    /// driver fills in the name, wall time, and before/after statistics
    /// of the returned report.
    ///
    /// # Errors
    ///
    /// A failing pass aborts the flow with its error — unless a
    /// [`PassPolicy`] with a non-abort [`FailureAction`] is attached,
    /// in which case the driver records the failure and continues.
    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError>;
}

/// A boxed pass is itself a pass, so `flow.remove("…")`'s return value
/// can be handed straight back to `push` / `insert_before` /
/// `insert_after` — the remove-and-reinsert reorder idiom.
impl Pass for Box<dyn Pass> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        self.as_mut().run(ctx)
    }
}

/// What one pass did: filled partly by the pass (`rules_applied`,
/// `note`), partly by the [`Flow`] driver (name, wall time, sampled
/// statistics).
#[derive(Clone, Debug, Default)]
pub struct PassReport {
    /// Pass name.
    pub name: String,
    /// Whether the pass was skipped (by its skip predicate). Kept for
    /// compatibility; `outcome` is the richer signal.
    pub skipped: bool,
    /// How the slot concluded (completed / skipped / failed-skipped /
    /// rolled-back).
    pub outcome: PassOutcome,
    /// The failure the driver recovered from, when `outcome` is
    /// [`PassOutcome::FailedSkipped`] or [`PassOutcome::RolledBack`].
    pub error: Option<String>,
    /// Wall-clock time spent in the pass.
    pub wall: Duration,
    /// Rules / strategies / repairs the pass applied.
    pub rules_applied: usize,
    /// Free-form detail ("3 levels", "timing met", …).
    pub note: String,
    /// Statistics of `work` as the pass started (best effort).
    pub before: Option<DesignStats>,
    /// Statistics of `work` as the pass finished (best effort).
    pub after: Option<DesignStats>,
}

impl PassReport {
    /// A report carrying only an applied-rule count.
    pub fn applied(rules_applied: usize) -> Self {
        Self {
            rules_applied,
            ..Self::default()
        }
    }

    /// A report with an applied count and a free-form note.
    pub fn noted(rules_applied: usize, note: impl Into<String>) -> Self {
        Self {
            rules_applied,
            note: note.into(),
            ..Self::default()
        }
    }

    /// Cell-count delta across the pass (`after - before`), when both
    /// sides were measurable.
    pub fn cells_delta(&self) -> Option<i64> {
        Some(self.after?.cells as i64 - self.before?.cells as i64)
    }

    /// Area delta across the pass, when measurable.
    pub fn area_delta(&self) -> Option<f64> {
        Some(self.after?.area - self.before?.area)
    }

    /// Delay delta across the pass, when measurable.
    pub fn delay_delta(&self) -> Option<f64> {
        Some(self.after?.delay - self.before?.delay)
    }
}

/// The structured record of a whole flow run: per-pass reports plus
/// total wall time. Serializable with [`FlowReport::to_json`] for
/// service embedding.
#[derive(Clone, Debug, Default)]
pub struct FlowReport {
    /// Name of the synthesized design.
    pub design: String,
    /// One report per configured pass, in execution order (skipped
    /// passes included, flagged).
    pub passes: Vec<PassReport>,
    /// Whether any pass failed and was recovered from (skipped over or
    /// rolled back) instead of completing — the output is legal but may
    /// be less optimized than a clean run's.
    pub degraded: bool,
    /// Structural fingerprint (`milo_netlist::structural_hash`) of the
    /// result netlist, filled by the flow driver after the epilogue.
    /// Clients and fuzz harnesses verify result identity from the JSON
    /// report alone — no netlist reload needed.
    pub result_hash: Option<u64>,
    /// Wall-clock time of the whole run, including the final electric
    /// check and the overlapped baseline elaboration.
    pub total_wall: Duration,
}

impl FlowReport {
    /// Hand-rolled JSON encoding (the build environment has no serde):
    /// `{"design", "structural_hash", "total_ns", "degraded", "passes":
    /// [{name, skipped, outcome, error, wall_ns, rules_applied,
    /// cells_delta, area_delta, delay_delta, note}]}`.
    ///
    /// `structural_hash` is the result netlist's fingerprint as a hex
    /// string (`"0x…"`, 16 digits) — a string because u64 fingerprints
    /// exceed JSON's interoperable 2^53 integer range.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"design\": {}", json_string(&self.design)));
        out.push_str(&format!(
            ", \"structural_hash\": {}",
            match self.result_hash {
                Some(h) => format!("\"{h:#018x}\""),
                None => "null".to_owned(),
            }
        ));
        out.push_str(&format!(", \"total_ns\": {}", self.total_wall.as_nanos()));
        out.push_str(&format!(", \"degraded\": {}", self.degraded));
        out.push_str(", \"passes\": [");
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"skipped\": {}, \"outcome\": {}, \"error\": {}, \
                 \"wall_ns\": {}, \"rules_applied\": {}, \
                 \"cells_delta\": {}, \"area_delta\": {}, \"delay_delta\": {}, \"note\": {}}}",
                json_string(&p.name),
                p.skipped,
                json_string(p.outcome.as_str()),
                p.error
                    .as_deref()
                    .map(json_string)
                    .unwrap_or_else(|| "null".to_owned()),
                p.wall.as_nanos(),
                p.rules_applied,
                json_opt_i64(p.cells_delta()),
                json_opt_f64(p.area_delta()),
                json_opt_f64(p.delay_delta()),
                json_string(&p.note),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Everything [`Flow::run`] produces: the synthesis result plus the
/// structured flow report.
#[derive(Debug)]
pub struct FlowOutput {
    /// The synthesis result (same shape `Milo::synthesize` returns).
    pub result: SynthesisResult,
    /// Per-pass timings and deltas for this run.
    pub report: FlowReport,
}

impl FlowOutput {
    /// JSON object nesting the [`SynthesisResult`] summary and the
    /// [`FlowReport`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"result\": {}, \"flow\": {}}}",
            self.result.to_json(),
            self.report.to_json()
        )
    }
}

/// The JSON string escaper every writer shares, defined in `milo-trace`
/// at the bottom of the dependency graph.
pub use milo_trace::json_string;

/// Finite floats as-is; non-finite (and absent) values as `null`.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".to_owned())
}

fn json_opt_i64(v: Option<i64>) -> String {
    v.map(|x| x.to_string())
        .unwrap_or_else(|| "null".to_owned())
}

// ---------------------------------------------------------------------
// Observer
// ---------------------------------------------------------------------

/// Progress events delivered to a flow observer.
#[derive(Debug)]
pub enum FlowEvent<'a> {
    /// The flow is starting `passes` passes on `design`.
    FlowStarted {
        /// Entry design name.
        design: &'a str,
        /// Number of configured passes.
        passes: usize,
    },
    /// A pass is about to run.
    PassStarted {
        /// Position in the pass list.
        index: usize,
        /// Pass name.
        name: &'a str,
    },
    /// A pass finished (or was skipped — see [`PassReport::skipped`]).
    PassFinished {
        /// Position in the pass list.
        index: usize,
        /// The driver-completed report.
        report: &'a PassReport,
    },
}

type ObserverFn = dyn FnMut(&FlowEvent<'_>) + Send;
type SkipFn = dyn Fn(&FlowContext<'_>) -> bool + Send;

// ---------------------------------------------------------------------
// Flow
// ---------------------------------------------------------------------

struct Slot {
    pass: Box<dyn Pass>,
    skip: Option<Box<SkipFn>>,
    policy: Option<PassPolicy>,
}

impl Slot {
    fn new(pass: impl Pass + 'static) -> Self {
        Self {
            pass: Box::new(pass),
            skip: None,
            policy: None,
        }
    }
}

/// An ordered, composable list of passes plus run policy (statistics
/// sampling, validation checkpoints, observer).
///
/// [`Flow::standard`] is the paper pipeline; [`Milo::flow`] returns it.
/// Passes can be appended, inserted before/after a named pass, removed,
/// or skipped per-run through a predicate over the [`FlowContext`].
pub struct Flow {
    slots: Vec<Slot>,
    observer: Option<Box<ObserverFn>>,
    sample_stats: bool,
    validate_each_pass: bool,
    fault: Option<Arc<FaultInjector>>,
}

impl Default for Flow {
    fn default() -> Self {
        Self::standard()
    }
}

impl Flow {
    /// An empty flow (the driver epilogue still maps, repairs fanout,
    /// and validates, so even this produces a legal mapped netlist).
    pub fn empty() -> Self {
        Self {
            slots: Vec::new(),
            observer: None,
            sample_stats: true,
            validate_each_pass: false,
            fault: None,
        }
    }

    /// The default paper flow: [`MicroCritic`] → [`Compile`] →
    /// [`BottomUpLogic`] → [`FanoutRepair`] → [`TimingArea`].
    pub fn standard() -> Self {
        let mut flow = Self::empty();
        flow.push(MicroCritic);
        flow.push(Compile);
        flow.push(BottomUpLogic);
        flow.push(FanoutRepair);
        flow.push(TimingArea);
        flow
    }

    /// The configured pass names, in order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.slots.iter().map(|s| s.pass.name()).collect()
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.slots.push(Slot::new(pass));
        self
    }

    /// Inserts a pass before the pass named `anchor`.
    ///
    /// # Panics
    ///
    /// Panics when no pass is named `anchor` (a mis-built flow is a
    /// programming error, caught at construction).
    pub fn insert_before(&mut self, anchor: &str, pass: impl Pass + 'static) -> &mut Self {
        let at = self.position(anchor);
        self.slots.insert(at, Slot::new(pass));
        self
    }

    /// Inserts a pass after the pass named `anchor`.
    ///
    /// # Panics
    ///
    /// Panics when no pass is named `anchor`.
    pub fn insert_after(&mut self, anchor: &str, pass: impl Pass + 'static) -> &mut Self {
        let at = self.position(anchor) + 1;
        self.slots.insert(at, Slot::new(pass));
        self
    }

    /// Removes (and returns) the pass named `name`, if present.
    pub fn remove(&mut self, name: &str) -> Option<Box<dyn Pass>> {
        let at = self.slots.iter().position(|s| s.pass.name() == name)?;
        Some(self.slots.remove(at).pass)
    }

    /// Skips the pass named `name` whenever `pred` holds at its turn.
    /// The skipped pass still appears in the [`FlowReport`], flagged.
    ///
    /// # Panics
    ///
    /// Panics when no pass is named `name`.
    pub fn skip_when(
        &mut self,
        name: &str,
        pred: impl Fn(&FlowContext<'_>) -> bool + Send + 'static,
    ) -> &mut Self {
        let at = self.position(name);
        self.slots[at].skip = Some(Box::new(pred));
        self
    }

    /// Installs the observer called on every [`FlowEvent`].
    pub fn observe(&mut self, f: impl FnMut(&FlowEvent<'_>) + Send + 'static) -> &mut Self {
        self.observer = Some(Box::new(f));
        self
    }

    /// Enables / disables best-effort per-pass statistics sampling
    /// (on by default; disable to shave STA runs off very hot loops).
    pub fn sample_stats(&mut self, on: bool) -> &mut Self {
        self.sample_stats = on;
        self
    }

    /// Enables / disables the post-pass structural validation checkpoint
    /// (off by default): the corruption check ([`fatal_violations`]) after
    /// every non-skipped pass, turning silent corruption into a
    /// `ValidationFailed` at the pass that caused it.
    pub fn validate_each_pass(&mut self, on: bool) -> &mut Self {
        self.validate_each_pass = on;
        self
    }

    /// Attaches a fault-tolerance [`PassPolicy`] to the pass named
    /// `name`.
    ///
    /// # Panics
    ///
    /// Panics when no pass is named `name`.
    pub fn with_policy(&mut self, name: &str, policy: PassPolicy) -> &mut Self {
        let at = self.position(name);
        self.slots[at].policy = Some(policy);
        self
    }

    /// Arms a fault injector for this flow's runs (test harness; see
    /// [`FaultInjector`]). Runs without an explicit injector fall back
    /// to the `Milo` instance's injector, then to `MILO_FAULT_INJECT`.
    pub fn inject_faults(&mut self, injector: Arc<FaultInjector>) -> &mut Self {
        self.fault = Some(injector);
        self
    }

    fn position(&self, name: &str) -> usize {
        self.slots
            .iter()
            .position(|s| s.pass.name() == name)
            .unwrap_or_else(|| panic!("flow has no pass named {name:?}"))
    }

    /// Runs the flow on `nl` under `constraints`, against `milo`'s
    /// library and design database. The baseline elaboration runs on a
    /// parallel arm over an `Arc`-shared database snapshot while the pass
    /// list runs here; results are deterministic — both arms are pure
    /// functions of their inputs.
    ///
    /// # Errors
    ///
    /// Propagates the first failing pass / stage error. A panic on either
    /// arm comes back as a structured `PassPanicked` instead of unwinding
    /// the caller.
    pub fn run(
        &mut self,
        milo: &mut Milo,
        nl: &Netlist,
        constraints: &Constraints,
    ) -> Result<FlowOutput, MiloError> {
        let started = Instant::now();
        let fault = self
            .fault
            .clone()
            .or_else(|| milo.fault_injector())
            .or_else(|| FaultInjector::from_env().map(Arc::new));
        let (lib, db) = milo.parts_mut();
        // The snapshot clone copies Arc pointers, not netlists.
        let snapshot = db.clone();
        let baseline_lib = lib.clone();
        let (baseline_res, main_res) = milo_par::try_join(
            move || elaborate_baseline(snapshot, &baseline_lib, nl),
            move || self.run_passes(lib, db, nl, constraints, fault.as_deref()),
        );
        let unwind = |arm: &str, p: milo_par::Panic| MiloError::PassPanicked {
            pass: arm.to_owned(),
            design: nl.name.clone(),
            payload: p.message(),
            recovery: RecoveryAction::Aborted,
        };
        let (mut result, mut report) = main_res.map_err(|p| unwind("flow", p))??;
        result.baseline = baseline_res.map_err(|p| unwind("baseline", p))??;
        report.total_wall = started.elapsed();
        Ok(FlowOutput { result, report })
    }

    /// The main arm: every pass in order, then the final electric check.
    fn run_passes(
        &mut self,
        lib: &TechLibrary,
        db: &mut DesignDb,
        nl: &Netlist,
        constraints: &Constraints,
        fault: Option<&FaultInjector>,
    ) -> Result<(SynthesisResult, FlowReport), MiloError> {
        let mut ctx = FlowContext {
            entry: nl,
            constraints,
            lib,
            db,
            work: nl.clone(),
            compiled: false,
            mapped: false,
            critic: None,
            levels: Vec::new(),
            timing: None,
            buffers_inserted: 0,
        };
        let mut report = FlowReport {
            design: nl.name.clone(),
            ..FlowReport::default()
        };
        if let Some(obs) = self.observer.as_mut() {
            obs(&FlowEvent::FlowStarted {
                design: &nl.name,
                passes: self.slots.len(),
            });
        }
        // One pass's `after` statistics double as the next pass's
        // `before` — the netlist is untouched at the boundary (and by
        // skipped passes), so sampling once per transition suffices. A
        // recovered failure invalidates the carried sample.
        let mut carried: Option<DesignStats> = None;
        let design = nl.name.clone();
        // One span per flow and one per pass run (docs/OBSERVABILITY.md).
        // Names are formatted only when tracing is on, so the disabled
        // path stays allocation-free.
        let _flow_span = milo_trace::enabled().then(|| milo_trace::span(&format!("flow:{design}")));
        for (index, slot) in self.slots.iter_mut().enumerate() {
            let name = slot.pass.name().to_owned();
            if let Some(obs) = self.observer.as_mut() {
                obs(&FlowEvent::PassStarted { index, name: &name });
            }
            let skipped = slot.skip.as_ref().is_some_and(|pred| pred(&ctx));
            let before = if self.sample_stats && !skipped {
                carried.take().or_else(|| ctx.sample_stats())
            } else {
                None
            };
            let policy = slot.policy.unwrap_or_default();
            // The checkpoint is only for restoring after a recovered
            // failure; the default abort-on-failure pays nothing.
            let checkpoint = if !skipped
                && (policy.on_failure != FailureAction::Abort || self.validate_each_pass)
            {
                Some(Checkpoint::capture(&ctx))
            } else {
                None
            };
            // One wall reading per pass: the budget check and the report
            // both use it, and the `pass:` span covers the same interval,
            // the pass's own `run` (docs/OBSERVABILITY.md).
            let (run_res, wall) = if skipped {
                let pr = PassReport {
                    skipped: true,
                    outcome: PassOutcome::Skipped,
                    ..PassReport::default()
                };
                (Ok(pr), Duration::ZERO)
            } else {
                let inject_panic = fault.is_some_and(|f| f.fires(FaultKind::Panic, &name, &design));
                if inject_panic && milo_trace::enabled() {
                    milo_trace::instant_with("fault.inject", &format!("panic@{name}/{design}"));
                }
                let span = milo_trace::enabled().then(|| milo_trace::span(&format!("pass:{name}")));
                let pass_started = Instant::now();
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    if inject_panic {
                        panic!("injected fault: panic@{name}");
                    }
                    slot.pass.run(&mut ctx)
                }))
                .unwrap_or_else(|payload| {
                    Err(MiloError::PassPanicked {
                        pass: name.clone(),
                        design: design.clone(),
                        payload: milo_par::Panic(payload).message(),
                        recovery: RecoveryAction::Aborted,
                    })
                });
                let wall = pass_started.elapsed();
                drop(span);
                let checked = ran.and_then(|pr| {
                    if fault.is_some_and(|f| f.fires(FaultKind::Corrupt, &name, &design)) {
                        if milo_trace::enabled() {
                            milo_trace::instant_with(
                                "fault.inject",
                                &format!("corrupt@{name}/{design}"),
                            );
                        }
                        FaultInjector::corrupt(&mut ctx.work);
                    }
                    let budget_hit = policy.budget.exceeded(pr.rules_applied, wall).or_else(|| {
                        fault
                            .is_some_and(|f| f.fires(FaultKind::Budget, &name, &design))
                            .then(|| {
                                if milo_trace::enabled() {
                                    milo_trace::instant_with(
                                        "fault.inject",
                                        &format!("budget@{name}/{design}"),
                                    );
                                }
                                "injected budget exhaustion".to_owned()
                            })
                    });
                    if let Some(detail) = budget_hit {
                        return Err(MiloError::BudgetExceeded {
                            pass: name.clone(),
                            design: design.clone(),
                            detail,
                            recovery: RecoveryAction::Aborted,
                        });
                    }
                    if self.validate_each_pass {
                        let fatal = fatal_violations(&ctx.work);
                        if !fatal.is_empty() {
                            return Err(MiloError::ValidationFailed {
                                pass: name.clone(),
                                design: design.clone(),
                                violations: fatal,
                                recovery: RecoveryAction::Aborted,
                            });
                        }
                    }
                    Ok(pr)
                });
                (checked, wall)
            };
            let mut pr = match run_res {
                Ok(pr) => pr,
                Err(e) => {
                    // Budget exhaustion leaves a valid netlist that is
                    // merely over budget — SkipPass keeps it. Every
                    // other failure leaves untrusted state: restore.
                    let keep_partial = matches!(e, MiloError::BudgetExceeded { .. })
                        && policy.on_failure == FailureAction::SkipPass;
                    let (outcome, recovery) = match policy.on_failure {
                        FailureAction::Abort => {
                            return Err(e.with_recovery(RecoveryAction::Aborted));
                        }
                        FailureAction::SkipPass => {
                            (PassOutcome::FailedSkipped, RecoveryAction::SkippedPass)
                        }
                        FailureAction::RollbackAndContinue => {
                            (PassOutcome::RolledBack, RecoveryAction::RolledBack)
                        }
                    };
                    if !keep_partial {
                        if let Some(cp) = checkpoint {
                            cp.restore(&mut ctx);
                        }
                    }
                    report.degraded = true;
                    carried = None;
                    PassReport {
                        outcome,
                        error: Some(e.with_recovery(recovery).to_string()),
                        ..PassReport::default()
                    }
                }
            };
            pr.name = name;
            pr.wall = wall;
            pr.before = before;
            pr.after = if self.sample_stats && pr.outcome == PassOutcome::Completed {
                carried = ctx.sample_stats();
                carried
            } else {
                None
            };
            if let Some(obs) = self.observer.as_mut() {
                obs(&FlowEvent::PassFinished { index, report: &pr });
            }
            report.passes.push(pr);
        }

        // Corruption gate: whatever the passes (or an injected fault)
        // did, a structurally corrupt netlist must not silently flow
        // into mapping / timing — surface it as a structured error.
        let fatal = fatal_violations(&ctx.work);
        if !fatal.is_empty() {
            return Err(MiloError::DesignCorrupt {
                design,
                detail: fatal
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            });
        }

        // Final electric check (the fixed epilogue): whatever passes ran
        // or were skipped, the output is a mapped netlist with legal
        // fanout, no dead nets, and a timing report.
        ctx.ensure_mapped()?;
        let buffers2 = enforce_fanout(&mut ctx.work, lib)?;
        ctx.work.sweep_dead_nets();
        let violations: Vec<Violation> = validate(&ctx.work, true)
            .into_iter()
            .filter(|v| !matches!(v, Violation::DanglingOutput { .. }))
            .collect();
        let stats = statistics(&ctx.work)?;
        let timing = match ctx.timing {
            Some(t) => t,
            None => TimingReport::unconstrained(&ctx.work),
        };
        let result = SynthesisResult {
            netlist: ctx.work,
            stats,
            baseline: DesignStats::default(), // overlapped arm fills this in
            critic: ctx.critic,
            levels: ctx.levels,
            timing,
            violations,
            buffers_inserted: ctx.buffers_inserted + buffers2,
        };
        report.result_hash = Some(milo_netlist::structural_hash(&result.netlist));
        Ok((result, report))
    }
}

// ---------------------------------------------------------------------
// The five paper passes
// ---------------------------------------------------------------------

/// Stage 1: the microarchitecture critic (§5) — structural rewrites plus
/// the compile→map feedback loop, on micro-level entries only.
pub struct MicroCritic;

impl Pass for MicroCritic {
    fn name(&self) -> &str {
        "micro-critic"
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        let has_micro = ctx.work.component_ids().any(|id| {
            matches!(
                ctx.work.component(id).map(|c| &c.kind),
                Ok(milo_netlist::ComponentKind::Micro(_))
            )
        });
        if !has_micro {
            return Ok(PassReport::noted(0, "gate-level entry"));
        }
        let critic = milo_microarch::optimize(
            &mut ctx.work,
            ctx.db,
            ctx.lib,
            ctx.constraints.tightest_delay(),
        )?;
        let applied = critic.fired.len() + critic.cla_upgrades + critic.ripple_downgrades;
        let note = format!("fired {:?}", critic.fired);
        ctx.critic = Some(critic);
        Ok(PassReport::noted(applied, note))
    }
}

/// Stage 2a: the parameterized logic compilers (§6.1) — expands micro
/// components into generic macros, caching designs in the database.
pub struct Compile;

impl Pass for Compile {
    fn name(&self) -> &str {
        "compile"
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        let before = ctx.db.len();
        ctx.ensure_compiled()?;
        let added = ctx.db.len().saturating_sub(before);
        Ok(PassReport::noted(
            added,
            format!("{added} designs compiled into the database"),
        ))
    }
}

/// Stage 2b: hierarchical bottom-up logic optimization (Fig. 18) —
/// maps every level and runs the rule engine, leaves `work` mapped.
pub struct BottomUpLogic;

impl Pass for BottomUpLogic {
    fn name(&self) -> &str {
        "bottom-up-logic"
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        ctx.ensure_compiled()?;
        let (mapped, levels) = milo_opt::optimize_bottom_up(&ctx.work, ctx.db, ctx.lib)?;
        let fired: usize = levels.iter().map(|l| l.fired).sum();
        let note = format!("{} levels", levels.len());
        ctx.work = mapped;
        ctx.mapped = true;
        ctx.levels = levels;
        Ok(PassReport::noted(fired, note))
    }
}

/// Stage 3: the electric critic (§4.2) — fanout repair by buffer
/// insertion.
pub struct FanoutRepair;

impl Pass for FanoutRepair {
    fn name(&self) -> &str {
        "fanout-repair"
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        ctx.ensure_mapped()?;
        let buffers = enforce_fanout(&mut ctx.work, ctx.lib)?;
        ctx.buffers_inserted += buffers;
        Ok(PassReport::noted(
            buffers,
            format!("{buffers} buffers inserted"),
        ))
    }
}

/// Stages 4+: [`milo_opt::optimize`], the time optimizer (per-path
/// constraints, §6's path-delay parameters), then the area/power
/// optimizer on the remaining slack.
pub struct TimingArea;

impl Pass for TimingArea {
    fn name(&self) -> &str {
        "timing-area"
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        ctx.ensure_mapped()?;
        let c = ctx.constraints;
        let required_at = |e: &milo_timing::Endpoint| match e {
            milo_timing::Endpoint::Port(p) => c.required_for(p),
            milo_timing::Endpoint::SeqInput(_) => c.max_delay,
        };
        let (timing, area_steps) = milo_opt::optimize(
            &mut ctx.work,
            ctx.lib,
            c.has_timing().then_some(&required_at as _),
            200,
        );
        let applied = timing.applied.len() + area_steps;
        let note = format!(
            "timing {}, {} strategies, {} area steps",
            if timing.met { "met" } else { "missed" },
            timing.applied.len(),
            area_steps
        );
        ctx.timing = Some(timing);
        Ok(PassReport::noted(applied, note))
    }
}
