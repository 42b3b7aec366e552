//! The OPS-style rule engine: rule trait, conflict set, conflict
//! resolution and the recognize–act cycle (§2.2.1).

use crate::matcher::{Locality, MatchIndex};
use crate::undo::{Tx, UndoLog};
use milo_netlist::{ComponentId, Netlist, NetlistError, TouchSet};
use milo_timing::{DesignStats, IncrementalSta, Sta};
use milo_trace::Counter;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Cached handles into the global metrics registry
/// (docs/OBSERVABILITY.md). Resolved once; recording afterwards is a
/// single relaxed atomic op, cheap enough for the recognize–act loop.
mod obs {
    use milo_trace::{Counter, Histogram, Registry};
    use std::sync::{Arc, OnceLock};

    /// `engine.rewrites` — committed rule firings.
    pub fn rewrites() -> &'static Counter {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| Registry::global().counter("engine.rewrites"))
    }

    /// `engine.match_repairs` — incremental match-index repairs.
    pub fn match_repairs() -> &'static Counter {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| Registry::global().counter("engine.match_repairs"))
    }

    /// `engine.repair_anchors` — anchors re-matched by match-index
    /// repairs, summed over the local rules
    /// (`RepairStats::anchors_rematched`).
    pub fn repair_anchors() -> &'static Counter {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| Registry::global().counter("engine.repair_anchors"))
    }

    /// `engine.repair_ns` — wall time of each match-index repair.
    pub fn repair_ns() -> &'static Histogram {
        static H: OnceLock<Arc<Histogram>> = OnceLock::new();
        H.get_or_init(|| Registry::global().histogram("engine.repair_ns"))
    }

    /// `engine.conflict_ns` — per step, bringing the index up to date
    /// and listing the refraction-filtered conflict set.
    pub fn conflict_ns() -> &'static Histogram {
        static H: OnceLock<Arc<Histogram>> = OnceLock::new();
        H.get_or_init(|| Registry::global().histogram("engine.conflict_ns"))
    }

    /// `engine.apply_ns` — per step with candidates, trying them until
    /// one commits: applies, STA refreshes (which maintain the
    /// statistics), undoes and rollbacks, statistics reads excluded.
    pub fn apply_ns() -> &'static Histogram {
        static H: OnceLock<Arc<Histogram>> = OnceLock::new();
        H.get_or_init(|| Registry::global().histogram("engine.apply_ns"))
    }

    /// `engine.stats_ns` — per step with candidates, reading the
    /// statistics the tracked analysis maintains: the `before` snapshot
    /// and the `after` of every candidate that applied.
    pub fn stats_ns() -> &'static Histogram {
        static H: OnceLock<Arc<Histogram>> = OnceLock::new();
        H.get_or_init(|| Registry::global().histogram("engine.stats_ns"))
    }

    /// `engine.failed_tries` — candidates whose application was
    /// rejected, all rules together.
    pub fn failed_tries() -> &'static Counter {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| Registry::global().counter("engine.failed_tries"))
    }

    /// `engine.failed_tries.<rule>` — the same, for one rule.
    pub fn failed_tries_of(rule: &str) -> Arc<Counter> {
        Registry::global().counter(&format!("engine.failed_tries.{rule}"))
    }
}

/// The rule classification of §6.4 (Fig. 17) plus the Logic Consultant's
/// high-priority "clean up" class (§2.2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RuleClass {
    /// Always decreases both delay and area (the logic critic).
    Logic,
    /// Decreases delay at the expense of area/power (the timing critic).
    Timing,
    /// Decreases area at the expense of delay/power (the area critic).
    Area,
    /// Decreases power at the expense of delay (the power critic).
    Power,
    /// Spots and corrects electrical errors (the electric critic).
    Electric,
    /// High-priority clean-up rules, examined after regular applications.
    Cleanup,
    /// Microarchitecture-level rewrites (§6.3).
    Micro,
}

/// A located rule application opportunity.
#[derive(Clone, Debug)]
pub struct RuleMatch {
    /// Primary component the rule fires on.
    pub site: ComponentId,
    /// Other components involved.
    pub aux: Vec<ComponentId>,
    /// Rule-specific selector (e.g. index of the chosen replacement cell).
    pub choice: usize,
    /// Human-readable description for traces.
    pub note: String,
}

impl RuleMatch {
    /// A match on a single component.
    pub fn at(site: ComponentId) -> Self {
        Self {
            site,
            aux: Vec::new(),
            choice: 0,
            note: String::new(),
        }
    }

    /// Builder: attach auxiliary components.
    #[must_use]
    pub fn with_aux(mut self, aux: Vec<ComponentId>) -> Self {
        self.aux = aux;
        self
    }

    /// Builder: attach a choice index.
    #[must_use]
    pub fn with_choice(mut self, choice: usize) -> Self {
        self.choice = choice;
        self
    }

    /// Builder: attach a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// Specificity ≈ number of conditions — OPS conflict resolution
    /// prefers more specific rules.
    pub fn specificity(&self) -> usize {
        1 + self.aux.len()
    }
}

/// Refraction memory (§2.2.1): the `(rule, site, aux, choice)`
/// instances that already fired, bucketed by site, so the per-candidate
/// check borrows the match instead of building an owned key.
#[derive(Default)]
struct Refraction {
    fired: HashMap<ComponentId, Vec<Fired>>,
}

/// One refracted instance at a site: its rule name, `aux` and `choice`.
type Fired = (&'static str, Vec<ComponentId>, usize);

impl Refraction {
    fn contains(&self, rule: &str, m: &RuleMatch) -> bool {
        self.fired.get(&m.site).is_some_and(|fired| {
            fired
                .iter()
                .any(|(r, aux, choice)| *r == rule && *aux == m.aux && *choice == m.choice)
        })
    }

    fn insert(&mut self, rule: &'static str, m: &RuleMatch) {
        if !self.contains(rule, m) {
            self.fired
                .entry(m.site)
                .or_default()
                .push((rule, m.aux.clone(), m.choice));
        }
    }
}

/// Context handed to rules during matching.
pub struct RuleCtx<'a> {
    /// The design under optimization.
    pub nl: &'a Netlist,
    /// Current timing analysis, when the caller has one.
    pub sta: Option<&'a Sta>,
}

/// A transformation rule.
pub trait Rule {
    /// Unique rule name.
    fn name(&self) -> &'static str;
    /// Classification (which critic owns it).
    fn class(&self) -> RuleClass;
    /// Finds all applicable sites.
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch>;
    /// The rule's support radius — the [`MatchIndex`] repair contract.
    ///
    /// Return [`Locality::Local`] only when a match anchored at a
    /// component is fully determined by that component, the nets it
    /// drives (connection lists, fanout, port bindings), of the nets it
    /// only loads their identity and port binding, and the loads on nets
    /// the anchor drives — their kinds, pin names, pin nets and those
    /// nets' port bindings — and matching never reads `ctx.sta`. Return
    /// [`Locality::Keyed`] for a join of two components with equal
    /// [`Rule::join_key`], implemented by [`Rule::join_match`]. See
    /// `crate::matcher` docs for the exact support contracts. The safe
    /// default is [`Locality::Global`]: the rule is fully re-matched on
    /// every index repair.
    fn locality(&self) -> Locality {
        Locality::Global
    }
    /// A [`Locality::Keyed`] rule's join key for `id`: components with
    /// equal keys are offered to [`Rule::join_match`] as pairs. Must be
    /// a pure function of `id`'s own kind and pin nets, because repair
    /// re-keys only touched components. `None`, the default, keeps `id`
    /// out of every join.
    fn join_key(&self, _ctx: &RuleCtx, _id: ComponentId) -> Option<u64> {
        None
    }
    /// A [`Locality::Keyed`] rule's match joining `first` with `dup`, a
    /// later holder of the same [`Rule::join_key`], or `None` when they
    /// do not join. Keys may collide, so this compares exactly. It may
    /// read only the two components and the port bindings of their
    /// nets. The index pairs `dup` with the lowest-id earlier holder
    /// that joins it; the default joins nothing.
    fn join_match(
        &self,
        _ctx: &RuleCtx,
        _first: ComponentId,
        _dup: ComponentId,
    ) -> Option<RuleMatch> {
        None
    }
    /// All matches anchored exactly at `anchor` (`RuleMatch::site ==
    /// anchor`). Must agree with [`Rule::matches`] filtered by site.
    /// The default does exactly that — correct but O(design); rules
    /// declaring [`Locality::Local`] should override it with a
    /// constant-time neighborhood check, which is where the
    /// incremental matcher's speedup comes from.
    fn matches_at(&self, ctx: &RuleCtx, anchor: ComponentId) -> Vec<RuleMatch> {
        self.matches(ctx)
            .into_iter()
            .filter(|m| m.site == anchor)
            .collect()
    }
    /// Applies the rule at a match, inside a transaction.
    ///
    /// # Errors
    ///
    /// Netlist manipulation errors abort (and the engine undoes) the
    /// application.
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError>;
}

/// Measured effect of one rule application.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Effect {
    /// Reduction in worst delay (positive = faster).
    pub delay_gain: f64,
    /// Increase in area (negative = smaller).
    pub area_cost: f64,
    /// Increase in power (negative = less power).
    pub power_cost: f64,
}

impl Effect {
    /// Computes the effect between two statistics snapshots.
    pub fn between(before: &DesignStats, after: &DesignStats) -> Self {
        Self {
            delay_gain: before.delay - after.delay,
            area_cost: after.area - before.area,
            power_cost: after.power - before.power,
        }
    }

    /// Scalar figure of merit under objective weights (bigger = better).
    pub fn merit(&self, delay_weight: f64, area_weight: f64, power_weight: f64) -> f64 {
        self.delay_gain * delay_weight
            - self.area_cost * area_weight
            - self.power_cost * power_weight
    }
}

/// How the conflict set is resolved.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Selection {
    /// OPS ordering: refraction, then specificity, then recency
    /// (§2.2.1) — no gain evaluation.
    OpsOrder,
    /// Logic Consultant style: evaluate every candidate and fire the one
    /// with the largest gain under the given objective weights.
    MaxGain {
        /// Weight of delay improvement.
        delay: f64,
        /// Weight of area increase (cost).
        area: f64,
        /// Weight of power increase (cost).
        power: f64,
    },
}

/// One fired rule, for traces and reports.
#[derive(Clone, Debug)]
pub struct Firing {
    /// Rule name.
    pub rule: &'static str,
    /// Rule class.
    pub class: RuleClass,
    /// The match description.
    pub note: String,
    /// Measured effect.
    pub effect: Effect,
}

/// Full-design scan for rules whose [`Rule::matches`] is just
/// [`Rule::matches_at`] over every component — the usual body of a
/// [`Locality::Local`] rule's `matches` implementation.
///
/// **The rule must override [`Rule::matches_at`].** The default
/// `matches_at` delegates back to `matches`; calling this helper from
/// `matches` without that override would recurse infinitely, so the
/// cycle is detected and reported as a panic naming the missing
/// override instead of a bare stack overflow.
///
/// # Panics
///
/// Panics when re-entered for the same rule — the signature of a
/// missing `matches_at` override.
pub fn scan_all_components(rule: &dyn Rule, ctx: &RuleCtx) -> Vec<RuleMatch> {
    use std::cell::Cell;
    thread_local! {
        static SCANNING: Cell<bool> = const { Cell::new(false) };
    }
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            SCANNING.with(|s| s.set(false));
        }
    }
    assert!(
        !SCANNING.with(|s| s.replace(true)),
        "scan_all_components re-entered while scanning `{}`: the rule \
         calls the helper from `matches` without overriding `matches_at` \
         (whose default delegates back to `matches`)",
        rule.name()
    );
    let _reset = Reset;
    ctx.nl
        .component_ids()
        .flat_map(|id| rule.matches_at(ctx, id))
        .collect()
}

/// Whether `MILO_MATCH_ORACLE` asks every indexed conflict set to be
/// cross-checked against a full rescan (set to anything but `0`).
fn oracle_from_env() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG
        .get_or_init(|| std::env::var("MILO_MATCH_ORACLE").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// The recognize–act engine.
pub struct Engine {
    rules: Vec<Box<dyn Rule>>,
    refraction: Refraction,
    match_oracle: bool,
    /// Per-rule `engine.failed_tries.<rule>` handles, resolved on each
    /// rule's first rejected candidate.
    failed_tries: Vec<OnceCell<Arc<Counter>>>,
    /// Undo logs of committed firings, oldest first, recorded while the
    /// journal is enabled. The perf bin's firing recorder and tests read
    /// it; the flow checkpoints a pass by cloning the netlist instead.
    journal: Option<Vec<UndoLog>>,
    /// Trace of fired rules.
    pub firings: Vec<Firing>,
}

/// What the recognize–act loop keeps alive between its steps.
struct Tracked {
    /// The incrementally maintained timing analysis, with the design
    /// statistics it maintains.
    inc: Option<IncrementalSta>,
    /// The incrementally maintained conflict-set index.
    index: Option<MatchIndex>,
}

impl Tracked {
    /// The tracked statistics, `DesignStats::default()` where
    /// [`milo_timing::statistics`] fails: no analysis (a cycle), or
    /// hierarchy.
    fn stats_or_default(&self) -> DesignStats {
        self.inc
            .as_ref()
            .and_then(|i| i.stats().ok())
            .unwrap_or_default()
    }
}

/// A candidate that applied and measured.
struct Trial {
    effect: Effect,
    /// The kept trial's log; `None` for an evaluation, which is undone.
    log: Option<UndoLog>,
}

/// What [`Engine::run_tracked`] reports.
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Rules fired.
    pub fired: usize,
    /// The design statistics when the run started, read from the
    /// tracked analysis: equal to [`milo_timing::statistics`], or
    /// `DesignStats::default()` where that fails (a cyclic design,
    /// unexpanded hierarchy).
    pub first: DesignStats,
    /// The design statistics when the run stopped, read the same way.
    pub last: DesignStats,
}

impl Engine {
    /// Creates an engine over a rule set.
    pub fn new(rules: Vec<Box<dyn Rule>>) -> Self {
        Self {
            failed_tries: rules.iter().map(|_| OnceCell::new()).collect(),
            rules,
            refraction: Refraction::default(),
            match_oracle: oracle_from_env(),
            journal: None,
            firings: Vec::new(),
        }
    }

    /// The rules, for inspection.
    pub fn rules(&self) -> &[Box<dyn Rule>] {
        &self.rules
    }

    /// Starts journaling committed rewrites: every firing accepted by
    /// [`Engine::run`] / [`Engine::run_tracked`] keeps its [`UndoLog`]
    /// so a caller can [`Engine::rollback_to`] an earlier
    /// [`Engine::journal_mark`].
    /// Idempotent; journaling stays on until [`Engine::take_journal`].
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// A checkpoint mark: the number of journaled rewrites so far.
    /// Rewrites committed while the journal is disabled are not
    /// recorded (and can never be rolled back).
    pub fn journal_mark(&self) -> usize {
        self.journal.as_ref().map_or(0, Vec::len)
    }

    /// Undoes every journaled rewrite back to (and excluding) `mark`,
    /// newest first, restoring the netlist to its exact state at the
    /// matching [`Engine::journal_mark`] call. Returns the number of
    /// rewrites undone. Refraction memory is deliberately kept: a
    /// rolled-back application stays refracted, so a retry does not
    /// immediately re-fire into the same fault.
    ///
    /// The netlist must not have been mutated outside the engine since
    /// the mark was taken (the undo logs replay exact inverses).
    pub fn rollback_to(&mut self, nl: &mut Netlist, mark: usize) -> usize {
        let Some(journal) = self.journal.as_mut() else {
            return 0;
        };
        let mut undone = 0;
        while journal.len() > mark {
            let log = journal.pop().expect("len checked");
            log.undo(nl);
            undone += 1;
        }
        undone
    }

    /// Stops journaling and hands the recorded logs (oldest first) to
    /// the caller, e.g. to merge into an outer transaction scope.
    pub fn take_journal(&mut self) -> Vec<UndoLog> {
        self.journal.take().unwrap_or_default()
    }

    fn journal_push(&mut self, log: UndoLog) {
        if let Some(journal) = self.journal.as_mut() {
            journal.push(log);
        }
    }

    /// Forces the full-rescan oracle on or off (defaults to the
    /// `MILO_MATCH_ORACLE` environment variable): every conflict set
    /// served from the incremental [`MatchIndex`] is compared against
    /// [`Engine::conflict_set`], panicking on divergence.
    pub fn set_match_oracle(&mut self, on: bool) {
        self.match_oracle = on;
    }

    /// Builds the conflict set by **full rescan**: all (rule, match)
    /// pairs, refraction filtered. The recognize–act loop serves
    /// conflict sets from an incremental [`MatchIndex`] instead; this
    /// path remains as the debug oracle (`MILO_MATCH_ORACLE`) and for
    /// the SOCRATES lookahead.
    pub fn conflict_set(&self, nl: &Netlist, sta: Option<&Sta>) -> Vec<(usize, RuleMatch)> {
        let ctx = RuleCtx { nl, sta };
        let mut out = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            for m in rule.matches(&ctx) {
                if !self.refraction.contains(rule.name(), &m) {
                    out.push((i, m));
                }
            }
        }
        out
    }

    /// Builds a [`MatchIndex`] over this engine's rules — the full
    /// matching pass that incremental repair then keeps alive.
    pub fn build_index(&self, nl: &Netlist, sta: Option<&Sta>) -> MatchIndex {
        MatchIndex::build(&self.rules, &RuleCtx { nl, sta })
    }

    /// Drops a stale index and (re)builds as needed, returning the
    /// refraction-filtered conflict set, borrowed from the index — the
    /// incremental counterpart of [`Engine::conflict_set`]. An index
    /// goes stale when STA availability flips (global rules may read
    /// it).
    fn indexed_conflict<'ix>(
        &self,
        nl: &Netlist,
        inc: &Option<IncrementalSta>,
        index: &'ix mut Option<MatchIndex>,
    ) -> Vec<(usize, &'ix RuleMatch)> {
        let sta = inc.as_ref().map(IncrementalSta::sta);
        if index
            .as_ref()
            .is_some_and(|ix| ix.with_sta() != sta.is_some())
        {
            *index = None;
        }
        let conflict: Vec<_> = index
            .get_or_insert_with(|| self.build_index(nl, sta))
            .iter()
            .filter(|&(i, m)| !self.refraction.contains(self.rules[i].name(), m))
            .collect();
        if self.match_oracle {
            self.oracle_check(&conflict, nl, sta);
        }
        conflict
    }

    /// Repairs a maintained index after a committed rewrite (or undo)
    /// with touch set `ts`; `inc` must already be refreshed from the
    /// same touch set.
    fn repair_index(
        &self,
        nl: &Netlist,
        inc: &Option<IncrementalSta>,
        index: &mut Option<MatchIndex>,
        ts: &TouchSet,
    ) {
        if let Some(ix) = index.as_mut() {
            let ctx = RuleCtx {
                nl,
                sta: inc.as_ref().map(IncrementalSta::sta),
            };
            let started = Instant::now();
            let anchors = ix.stats().anchors_rematched;
            ix.repair(&self.rules, &ctx, ts);
            obs::match_repairs().inc();
            obs::repair_anchors().add(ix.stats().anchors_rematched - anchors);
            obs::repair_ns().record(started.elapsed().as_nanos() as u64);
        }
    }

    /// The debug oracle: assert the indexed conflict set equals the
    /// full rescan (as multisets — index order is anchor-major, scan
    /// order is discovery-major).
    fn oracle_check(&self, indexed: &[(usize, &RuleMatch)], nl: &Netlist, sta: Option<&Sta>) {
        let full = self.conflict_set(nl, sta);
        let key = |i: usize, m: &RuleMatch| (i, m.site, m.aux.clone(), m.choice, m.note.clone());
        let mut a: Vec<_> = indexed.iter().map(|&(i, m)| key(i, m)).collect();
        let mut b: Vec<_> = full.iter().map(|(i, m)| key(*i, m)).collect();
        a.sort();
        b.sort();
        assert_eq!(
            a, b,
            "match-index conflict set diverged from full rescan (MILO_MATCH_ORACLE)"
        );
    }

    /// Counts a rejected candidate in `engine.failed_tries` and its
    /// per-rule counter.
    fn count_failed_try(&self, rule_idx: usize) {
        obs::failed_tries().inc();
        self.failed_tries[rule_idx]
            .get_or_init(|| obs::failed_tries_of(self.rules[rule_idx].name()))
            .inc();
    }

    /// Applies `(rule, match)` and measures the effect against a fresh
    /// analysis of `nl`, like every other trial; on failure the change is
    /// undone and `None` returned.
    pub fn try_apply(
        &self,
        nl: &mut Netlist,
        rule_idx: usize,
        m: &RuleMatch,
    ) -> Option<(Effect, UndoLog)> {
        let mut inc = IncrementalSta::new(nl).ok();
        let before = inc.as_ref()?.stats().ok()?;
        let trial = self.try_apply_inc(
            nl,
            &mut inc,
            &before,
            (rule_idx, m),
            true,
            &mut Duration::default(),
        )?;
        Some((trial.effect, trial.log?))
    }

    /// Applies a `(rule, match)` candidate as one [`judge_trial`] against
    /// the tracked analysis and a `before` snapshot of the current
    /// netlist: the after statistics are read from the analysis,
    /// refreshed from the transaction's touch set. A measured trial is
    /// kept when `keep` is set, and otherwise undone with its effect
    /// returned (an evaluation). A rejected application leaves the
    /// netlist and the tracked analysis exactly as it found them, so one
    /// snapshot serves every candidate of a step. Time spent reading
    /// statistics is added to `stats_time`.
    fn try_apply_inc(
        &self,
        nl: &mut Netlist,
        inc: &mut Option<IncrementalSta>,
        before: &DesignStats,
        (rule_idx, m): (usize, &RuleMatch),
        keep: bool,
        stats_time: &mut Duration,
    ) -> Option<Trial> {
        let mut tx = Tx::new(nl);
        // A rule that panics mid-apply (stale match, buggy user rule)
        // must not poison the synthesis run: every mutation made so far
        // is already recorded in the transaction, so catch the unwind,
        // commit the partial log, and back it out like any rejected
        // rewrite. (Recovery is exact because the netlist's own
        // primitives are panic-free once entered — they validate first,
        // then mutate.)
        let result = catch_unwind(AssertUnwindSafe(|| self.rules[rule_idx].apply(&mut tx, m)));
        let log = tx.commit();
        if !matches!(result, Ok(Ok(()))) {
            // A netlist error or a caught panic: the analysis never saw
            // the application, so the undo alone restores both.
            log.undo(nl);
            self.count_failed_try(rule_idx);
            return None;
        }
        let mut effect = None;
        let log = judge_trial(inc, nl, log, |inc| {
            let started = Instant::now();
            // A refresh that hit a new cycle dropped the analysis, and
            // unexpanded hierarchy has no statistics: either leaves the
            // result unmeasurable, which rejects the rule.
            effect = inc
                .as_ref()
                .and_then(|i| i.stats().ok())
                .map(|after| Effect::between(before, &after));
            *stats_time += started.elapsed();
            keep && effect.is_some()
        });
        let Some(effect) = effect else {
            self.count_failed_try(rule_idx);
            return None;
        };
        Some(Trial { effect, log })
    }

    /// One recognize–act cycle against the loop's incremental STA and
    /// match index: read the conflict set, pick a rule per `selection`,
    /// fire it, and repair both from the firing's touch set. Returns
    /// `false` when nothing fired.
    fn step_inc(&mut self, nl: &mut Netlist, tracked: &mut Tracked, selection: Selection) -> bool {
        let started = Instant::now();
        let inc = &mut tracked.inc;
        let conflict = self.indexed_conflict(nl, inc, &mut tracked.index);
        obs::conflict_ns().record(started.elapsed().as_nanos() as u64);
        if conflict.is_empty() {
            return false;
        }
        // One statistics snapshot per step, read from the tracked
        // analysis. Its bits cannot differ between candidates: a rejected
        // candidate leaves the netlist and the analysis as it found them,
        // and so does every `MaxGain` evaluation. A
        // design the statistics cannot measure rejects every candidate:
        // a cycle, which leaves no analysis to track, or unexpanded
        // hierarchy.
        let started = Instant::now();
        let before = inc.as_ref().and_then(|i| i.stats().ok());
        let before_time = started.elapsed();
        let Some(before) = before else {
            obs::stats_ns().record(before_time.as_nanos() as u64);
            return false;
        };
        // The `after` reads of the candidates that apply.
        let mut stats_time = Duration::ZERO;
        let started = Instant::now();
        let winner = match selection {
            Selection::OpsOrder => {
                // Refraction is already applied; prefer specificity, then
                // recency (later matches first).
                let mut ordered = conflict;
                ordered.sort_by_key(|(_, m)| std::cmp::Reverse(m.specificity()));
                ordered.into_iter().find_map(|(idx, m)| {
                    let trial =
                        self.try_apply_inc(nl, inc, &before, (idx, m), true, &mut stats_time)?;
                    Some((idx, m.clone(), trial.effect, trial.log?))
                })
            }
            Selection::MaxGain { delay, area, power } => {
                // Evaluate each candidate in a trial that is never kept,
                // fire the best positive-merit one. The evaluations
                // restore the netlist exactly, so the index needs no
                // repair until the winner is committed.
                let mut best: Option<(f64, usize, &RuleMatch)> = None;
                for &(idx, m) in &conflict {
                    if let Some(trial) =
                        self.try_apply_inc(nl, inc, &before, (idx, m), false, &mut stats_time)
                    {
                        let merit = trial.effect.merit(delay, area, power);
                        if merit > 1e-9 && best.is_none_or(|(b, _, _)| merit > b) {
                            best = Some((merit, idx, m));
                        }
                    }
                }
                best.and_then(|(_, idx, m)| {
                    let trial =
                        self.try_apply_inc(nl, inc, &before, (idx, m), true, &mut stats_time)?;
                    Some((idx, m.clone(), trial.effect, trial.log?))
                })
            }
        };
        let elapsed = started.elapsed();
        obs::apply_ns().record(elapsed.saturating_sub(stats_time).as_nanos() as u64);
        obs::stats_ns().record((before_time + stats_time).as_nanos() as u64);
        debug_assert_stats_match_recount(nl, &tracked.inc);
        let Some((idx, m, effect, log)) = winner else {
            return false;
        };
        self.record(idx, &m, effect);
        self.repair_index(nl, &tracked.inc, &mut tracked.index, &log.touch_set());
        self.journal_push(log);
        true
    }

    fn record(&mut self, rule_idx: usize, m: &RuleMatch, effect: Effect) {
        obs::rewrites().inc();
        let rule = &self.rules[rule_idx];
        self.refraction.insert(rule.name(), m);
        self.firings.push(Firing {
            rule: rule.name(),
            class: rule.class(),
            note: m.note.clone(),
            effect,
        });
    }

    /// Runs recognize–act cycles until quiescence or `max_steps`.
    /// Returns the number of rules fired.
    pub fn run(&mut self, nl: &mut Netlist, selection: Selection, max_steps: usize) -> usize {
        self.run_tracked(nl, &mut None, selection, max_steps).fired
    }

    /// [`Engine::run`] over a caller-owned incremental analysis, also
    /// reporting the design statistics before and after the run (O(1)
    /// reads of that analysis). `inc` must describe `nl` as it stands;
    /// `None` makes the run build its own. The run refreshes it from
    /// every firing and hands it back describing `nl` as the run leaves
    /// it, so a caller that goes on analyzing the design needs no
    /// rebuild.
    pub fn run_tracked(
        &mut self,
        nl: &mut Netlist,
        inc: &mut Option<IncrementalSta>,
        selection: Selection,
        max_steps: usize,
    ) -> RunOutcome {
        let mut tracked = Tracked {
            inc: inc.take().or_else(|| IncrementalSta::new(nl).ok()),
            index: None,
        };
        let first = tracked.stats_or_default();
        let mut fired = 0;
        while fired < max_steps && self.step_inc(nl, &mut tracked, selection) {
            fired += 1;
        }
        let last = tracked.stats_or_default();
        *inc = tracked.inc;
        RunOutcome { fired, first, last }
    }
}

/// The statistics oracle of debug builds: the tracked analysis's
/// maintained statistics equal a from-scratch recount of `nl`, bit for
/// bit.
fn debug_assert_stats_match_recount(nl: &Netlist, inc: &Option<IncrementalSta>) {
    if let (true, Some(i)) = (cfg!(debug_assertions), inc) {
        let bits = |s: Result<DesignStats, NetlistError>| {
            s.map(|s| {
                (
                    s.area.to_bits(),
                    s.power.to_bits(),
                    s.cells,
                    s.delay.to_bits(),
                )
            })
        };
        debug_assert_eq!(
            bits(i.stats()),
            bits(i.recount(nl)),
            "maintained statistics diverged from a recount"
        );
    }
}

/// Refreshes the tracked analysis from a touch set, falling back to a
/// full rebuild (or dropping the analysis entirely, e.g. on a
/// combinational cycle) when the incremental path cannot apply.
pub fn refresh_or_rebuild(inc: &mut Option<IncrementalSta>, nl: &Netlist, ts: &TouchSet) {
    // With no tracker there is nothing to keep fresh — callers that
    // want one (re)acquire it per step, so a failure path here must not
    // pay for a from-scratch analysis that is immediately dropped.
    let Some(i) = inc.as_mut() else {
        return;
    };
    if i.refresh(nl, ts).is_err() {
        *inc = IncrementalSta::new(nl).ok();
    }
}

/// One trial against the tracked analysis, SOCRATES's apply → evaluate
/// → undo: refreshes the analysis from the committed transaction
/// `log`, asks `keep` to judge it, and when `keep` declines, undoes
/// `log` and rolls the analysis back to what it was before the trial
/// ([`IncrementalSta::roll_back`]) instead of re-propagating the undo.
/// Returns the kept trial's log, or `None` when the trial was undone.
/// Failures fall back as [`refresh_or_rebuild`] does; a rejected trial
/// whose refresh dropped the analysis (a new cycle) builds it again on
/// the restored netlist.
pub fn judge_trial(
    inc: &mut Option<IncrementalSta>,
    nl: &mut Netlist,
    log: UndoLog,
    keep: impl FnOnce(&Option<IncrementalSta>) -> bool,
) -> Option<UndoLog> {
    let ts = log.touch_set();
    let analyzed = inc.is_some();
    if let Some(i) = inc.as_mut() {
        i.open_trial();
    }
    refresh_or_rebuild(inc, nl, &ts);
    if keep(inc) {
        if let Some(i) = inc.as_mut() {
            i.keep_trial();
        }
        return Some(log);
    }
    log.undo(nl);
    let restored = match inc.as_mut() {
        Some(i) => i.roll_back(nl, &ts).is_ok(),
        None => !analyzed,
    };
    if !restored {
        *inc = IncrementalSta::new(nl).ok();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_netlist::{ComponentKind, GateFn, GenericMacro, PinDir};
    use milo_timing::statistics;

    /// Toy rule: remove double inverters (INV feeding INV with fanout 1).
    struct DoubleInv;

    impl Rule for DoubleInv {
        fn name(&self) -> &'static str {
            "double-inverter-elimination"
        }
        fn class(&self) -> RuleClass {
            RuleClass::Logic
        }
        fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
            scan_all_components(self, ctx)
        }
        fn locality(&self) -> crate::matcher::Locality {
            crate::matcher::Locality::Local
        }
        fn matches_at(&self, ctx: &RuleCtx, id: ComponentId) -> Vec<RuleMatch> {
            let nl = ctx.nl;
            let is_inv = |c: ComponentId| {
                matches!(
                    nl.component(c).map(|x| &x.kind),
                    Ok(ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)))
                )
            };
            if !is_inv(id) {
                return Vec::new();
            }
            let Some(y) = nl.pin_net(id, "Y") else {
                return Vec::new();
            };
            if nl.fanout(y) != 1 {
                return Vec::new();
            }
            let Some(load) = nl.loads(y).first().copied() else {
                return Vec::new();
            };
            if is_inv(load.component) {
                vec![RuleMatch::at(id).with_aux(vec![load.component])]
            } else {
                Vec::new()
            }
        }
        fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
            let nl = tx.netlist();
            let input = nl.pin_net(m.site, "A0").expect("matched");
            let second = m.aux[0];
            let out = nl.pin_net(second, "Y").expect("matched");
            tx.remove_component(m.site)?;
            tx.remove_component(second)?;
            tx.move_loads(out, input)?;
            Ok(())
        }
    }

    /// `DoubleInv` that refuses a pair whose second output is a port,
    /// like the logic critic's inverter-pair rule — but only after
    /// removing the first inverter, so a rejection also runs the undo
    /// and refresh path.
    struct PortShyDoubleInv;

    impl Rule for PortShyDoubleInv {
        fn name(&self) -> &'static str {
            "port-shy-double-inverter"
        }
        fn class(&self) -> RuleClass {
            RuleClass::Logic
        }
        fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
            scan_all_components(self, ctx)
        }
        fn locality(&self) -> crate::matcher::Locality {
            crate::matcher::Locality::Local
        }
        fn matches_at(&self, ctx: &RuleCtx, id: ComponentId) -> Vec<RuleMatch> {
            DoubleInv.matches_at(ctx, id)
        }
        fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
            let nl = tx.netlist();
            let input = nl.pin_net(m.site, "A0").expect("matched");
            let second = m.aux[0];
            let out = nl.pin_net(second, "Y").expect("matched");
            let port_bound = nl.net_is_port_bound(out);
            tx.remove_component(m.site)?;
            if port_bound {
                return Err(NetlistError::NetInUse(out));
            }
            tx.remove_component(second)?;
            tx.move_loads(out, input)?;
            Ok(())
        }
    }

    fn inv_chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("c");
        let mut prev = nl.add_net("a");
        nl.add_port("a", PinDir::In, prev);
        for i in 0..n {
            let g = nl.add_component(
                format!("g{i}"),
                ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
            );
            nl.connect_named(g, "A0", prev).unwrap();
            let y = nl.add_net(format!("n{i}"));
            nl.connect_named(g, "Y", y).unwrap();
            prev = y;
        }
        nl.add_port("y", PinDir::Out, prev);
        nl
    }

    #[test]
    fn engine_removes_inverter_pairs() {
        let mut nl = inv_chain(5);
        let mut engine = Engine::new(vec![Box::new(DoubleInv)]);
        let fired = engine.run(&mut nl, Selection::OpsOrder, 100);
        assert_eq!(fired, 2, "two pairs removed from a 5-chain");
        assert_eq!(nl.component_count(), 1);
    }

    /// A candidate whose application fails is undone with no refresh:
    /// the analysis never saw it. On `a → g0 → g1 → y` the only pair
    /// ends on a port, so nothing fires and no component is
    /// re-evaluated.
    #[test]
    fn failed_application_leaves_the_analysis_untouched() {
        let mut nl = inv_chain(2);
        let before = format!("{nl:?}");
        let mut inc = IncrementalSta::new(&nl).ok();
        let props = inc.as_ref().map(|i| i.incremental_props);
        let mut engine = Engine::new(vec![Box::new(PortShyDoubleInv)]);
        let outcome = engine.run_tracked(&mut nl, &mut inc, Selection::OpsOrder, 10);
        assert_eq!(outcome.fired, 0);
        assert_eq!(format!("{nl:?}"), before);
        assert_eq!(inc.as_ref().map(|i| i.incremental_props), props);
    }

    /// Two inverter chains, `a → a0 → a1 → y0` and
    /// `b → b0 → b1 → b2 → y1`: under [`PortShyDoubleInv`] the pairs at
    /// `a0` and `b1` end on a port and are rejected, so the first step
    /// rejects `a0` before it commits `b0`.
    fn two_chains() -> Netlist {
        let mut nl = Netlist::new("two_chains");
        for (input, len, output) in [("a", 2, "y0"), ("b", 3, "y1")] {
            let mut prev = nl.add_net(input);
            nl.add_port(input, PinDir::In, prev);
            for i in 0..len {
                let g = nl.add_component(
                    format!("{input}{i}"),
                    ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
                );
                nl.connect_named(g, "A0", prev).unwrap();
                let y = nl.add_net(format!("{input}_n{i}"));
                nl.connect_named(g, "Y", y).unwrap();
                prev = y;
            }
            nl.add_port(output, PinDir::Out, prev);
        }
        nl
    }

    /// A step takes one statistics snapshot and measures every
    /// candidate against it. A rejected candidate must leave nothing
    /// behind that the snapshot misses: every recorded effect equals the
    /// bitwise difference of from-scratch statistics around its step,
    /// under both selection modes.
    #[test]
    fn recorded_effects_match_fresh_statistics_around_each_step() {
        let bits = |e: &Effect| {
            (
                e.delay_gain.to_bits(),
                e.area_cost.to_bits(),
                e.power_cost.to_bits(),
            )
        };
        for selection in [
            Selection::OpsOrder,
            Selection::MaxGain {
                delay: 1.0,
                area: 1.0,
                power: 0.1,
            },
        ] {
            let mut nl = two_chains();
            let mut engine = Engine::new(vec![Box::new(PortShyDoubleInv)]);
            let mut steps = 0;
            loop {
                let before = statistics(&nl).unwrap();
                if engine.run(&mut nl, selection, 1) == 0 {
                    break;
                }
                steps += 1;
                let after = statistics(&nl).unwrap();
                let recorded = engine.firings.last().expect("a step fired").effect;
                assert_eq!(
                    bits(&recorded),
                    bits(&Effect::between(&before, &after)),
                    "{selection:?}, step {steps}"
                );
            }
            assert_eq!(steps, 1, "{selection:?}: only the b0 pair commits");
            // The rejected pairs are intact; the committed one is gone.
            let names: Vec<String> = nl
                .component_ids()
                .map(|id| nl.component(id).unwrap().name.clone())
                .collect();
            assert_eq!(names, ["a0", "a1", "b2"], "{selection:?}");
        }
    }

    /// `Engine::run` reads every step's `before` and `after` from the
    /// statistics its analysis maintains across steps. Every recorded
    /// effect must equal the bitwise difference of from-scratch
    /// statistics around its firing, read back by unwinding the journal
    /// one firing at a time.
    #[test]
    fn run_effects_match_fresh_statistics_across_carried_steps() {
        let bits = |e: &Effect| {
            (
                e.delay_gain.to_bits(),
                e.area_cost.to_bits(),
                e.power_cost.to_bits(),
            )
        };
        for selection in [
            Selection::OpsOrder,
            Selection::MaxGain {
                delay: 1.0,
                area: 1.0,
                power: 0.1,
            },
        ] {
            let mut nl = inv_chain(9);
            let mut engine = Engine::new(vec![Box::new(DoubleInv)]);
            engine.enable_journal();
            let fired = engine.run(&mut nl, selection, 100);
            assert_eq!(fired, 4, "{selection:?}");
            for k in (0..fired).rev() {
                let after = statistics(&nl).unwrap();
                engine.rollback_to(&mut nl, k);
                let before = statistics(&nl).unwrap();
                assert_eq!(
                    bits(&engine.firings[k].effect),
                    bits(&Effect::between(&before, &after)),
                    "{selection:?}, firing {k}"
                );
            }
        }
    }

    #[test]
    fn max_gain_selection_fires_too() {
        let mut nl = inv_chain(4);
        let mut engine = Engine::new(vec![Box::new(DoubleInv)]);
        let fired = engine.run(
            &mut nl,
            Selection::MaxGain {
                delay: 1.0,
                area: 1.0,
                power: 0.1,
            },
            100,
        );
        assert_eq!(fired, 2);
        assert_eq!(nl.component_count(), 0);
        assert!(engine.firings.iter().all(|f| f.effect.area_cost < 0.0));
    }

    #[test]
    fn indexed_run_matches_oracle() {
        // With the oracle on, every conflict set served from the index
        // is asserted equal to a full rescan — across all firings.
        let mut nl = inv_chain(7);
        let mut engine = Engine::new(vec![Box::new(DoubleInv)]);
        engine.set_match_oracle(true);
        let fired = engine.run(&mut nl, Selection::OpsOrder, 100);
        assert_eq!(fired, 3);
        assert_eq!(nl.component_count(), 1);
    }

    #[test]
    fn repair_tracks_apply_and_undo() {
        let mut nl = inv_chain(6);
        let engine = Engine::new(vec![Box::new(DoubleInv)]);
        let mut index = engine.build_index(&nl, None);
        let full = engine.conflict_set(&nl, None);
        assert_eq!(index.len(), full.len());

        // Apply the first match, repair, and check against a rescan.
        let (idx, m) = full[0].clone();
        let mut tx = Tx::new(&mut nl);
        engine.rules()[idx].apply(&mut tx, &m).unwrap();
        let log = tx.commit();
        let ts = log.touch_set();
        index.repair(engine.rules(), &RuleCtx { nl: &nl, sta: None }, &ts);
        assert_eq!(index.len(), engine.conflict_set(&nl, None).len());

        // Undo it; the same touch set describes the reverse repair.
        log.undo(&mut nl);
        index.repair(engine.rules(), &RuleCtx { nl: &nl, sta: None }, &ts);
        assert_eq!(index.len(), engine.conflict_set(&nl, None).len());
        assert!(index.stats().repairs == 2 && index.stats().anchors_rematched > 0);
    }

    /// Multi-driven nets make `IncrementalSta::refresh` bail out;
    /// `refresh_or_rebuild` must fall back to a full rebuild (keeping
    /// the analysis usable for the matcher's rule context) instead of
    /// panicking or going stale.
    #[test]
    fn multi_driven_net_falls_back_to_rebuild() {
        let mut nl = inv_chain(2);
        let mut inc = IncrementalSta::new(&nl).ok();
        assert!(inc.is_some());

        // Second driver onto the chain's middle net.
        let mid = nl.pin_net(nl.component_ids().next().unwrap(), "Y").unwrap();
        let mut tx = Tx::new(&mut nl);
        let extra = tx.add_component(
            "extra_drv",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        let a = tx.netlist().ports()[0].net;
        tx.connect_named(extra, "A0", a).unwrap();
        tx.connect_named(extra, "Y", mid).unwrap();
        let log = tx.commit();
        let ts = log.touch_set();

        refresh_or_rebuild(&mut inc, &nl, &ts);
        let fresh = milo_timing::analyze(&nl).expect("still analyzable");
        assert_eq!(
            inc.as_ref().map(|i| i.sta().worst_delay().to_bits()),
            Some(fresh.worst_delay().to_bits()),
            "fallback rebuild matches a from-scratch analysis"
        );

        // And the index repair path survives the same shape.
        let engine = Engine::new(vec![Box::new(DoubleInv)]);
        let mut index = engine.build_index(&nl, inc.as_ref().map(IncrementalSta::sta));
        let mut tx = Tx::new(&mut nl);
        tx.disconnect(milo_netlist::PinRef::new(extra, 1)).unwrap();
        let log2 = tx.commit();
        index.repair(
            engine.rules(),
            &RuleCtx { nl: &nl, sta: None },
            &log2.touch_set(),
        );
        let full = engine.conflict_set(&nl, None);
        assert_eq!(index.len(), full.len());
    }

    /// A rule that mutates the netlist mid-apply and then panics — the
    /// worst-case fault shape: partial work inside an open transaction.
    struct MidApplyPanic;

    impl Rule for MidApplyPanic {
        fn name(&self) -> &'static str {
            "mid-apply-panic"
        }
        fn class(&self) -> RuleClass {
            RuleClass::Logic
        }
        fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
            ctx.nl.component_ids().take(1).map(RuleMatch::at).collect()
        }
        fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
            tx.add_net("partial_work");
            tx.remove_component(m.site)?;
            panic!("rule fault after partial mutation");
        }
    }

    /// Panicking mid-apply must behave exactly like a rejected rewrite:
    /// the partial transaction is undone, nothing fires, the engine and
    /// the process survive.
    #[test]
    fn rule_panic_mid_apply_is_isolated_and_undone() {
        let mut nl = inv_chain(3);
        let before = format!("{nl:?}");
        let mut engine = Engine::new(vec![Box::new(MidApplyPanic)]);
        let fired = engine.run(&mut nl, Selection::OpsOrder, 10);
        assert_eq!(fired, 0);
        assert_eq!(format!("{nl:?}"), before, "partial work rolled back");
    }

    /// The journal records every committed firing; rolling back to a
    /// mark restores the exact netlist at that mark.
    #[test]
    fn journal_rollback_restores_marked_state() {
        let mut nl = inv_chain(8);
        let mut engine = Engine::new(vec![Box::new(DoubleInv)]);
        engine.enable_journal();

        let mark0 = engine.journal_mark();
        assert_eq!(mark0, 0);
        let at_mark0 = format!("{nl:?}");

        assert_eq!(engine.run(&mut nl, Selection::OpsOrder, 1), 1);
        let mark1 = engine.journal_mark();
        assert_eq!(mark1, 1);
        let at_mark1 = format!("{nl:?}");

        let fired = engine.run(&mut nl, Selection::OpsOrder, 20);
        assert!(fired > 0);
        assert_eq!(engine.journal_mark(), 1 + fired);

        // Unwind to the intermediate mark, then all the way out.
        assert_eq!(engine.rollback_to(&mut nl, mark1), fired);
        assert_eq!(format!("{nl:?}"), at_mark1);
        assert_eq!(engine.rollback_to(&mut nl, mark0), 1);
        assert_eq!(format!("{nl:?}"), at_mark0);

        // The journal is empty now; taking it disables journaling.
        assert!(engine.take_journal().is_empty());
        assert_eq!(engine.run(&mut nl, Selection::OpsOrder, 1), 1);
        assert_eq!(engine.journal_mark(), 0, "journaling off after take");
    }

    /// A rule offering every component, whose `apply` always errors.
    struct AlwaysFails;

    impl Rule for AlwaysFails {
        fn name(&self) -> &'static str {
            "always-fails"
        }
        fn class(&self) -> RuleClass {
            RuleClass::Logic
        }
        fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
            ctx.nl.component_ids().map(RuleMatch::at).collect()
        }
        fn apply(&self, _tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
            Err(NetlistError::NoSuchComponent(m.site))
        }
    }

    /// Every rejected candidate counts in `engine.failed_tries` and in
    /// its rule's own counter. Other tests share the global registry,
    /// so only deltas are read.
    #[test]
    fn failed_tries_are_counted_per_rule() {
        let registry = milo_trace::Registry::global();
        let total = registry.counter("engine.failed_tries");
        let own = registry.counter("engine.failed_tries.always-fails");
        let (total0, own0) = (total.get(), own.get());
        let mut nl = inv_chain(3);
        let mut engine = Engine::new(vec![Box::new(AlwaysFails)]);
        assert_eq!(engine.run(&mut nl, Selection::OpsOrder, 10), 0);
        assert!(total.get() - total0 >= 3);
        assert!(own.get() - own0 >= 3, "one step tries all three inverters");
    }

    #[test]
    fn effect_merit() {
        let e = Effect {
            delay_gain: 2.0,
            area_cost: 1.0,
            power_cost: 0.5,
        };
        assert!(e.merit(1.0, 0.1, 0.1) > 0.0);
        assert!(e.merit(0.0, 1.0, 1.0) < 0.0);
    }
}
