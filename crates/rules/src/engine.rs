//! The OPS-style rule engine: rule trait, conflict set, conflict
//! resolution and the recognize–act cycle (§2.2.1).

use crate::matcher::{Locality, MatchIndex};
use crate::undo::{Tx, UndoLog};
use milo_netlist::{ComponentId, Netlist, NetlistError, PinRef, TouchSet};
use milo_timing::{statistics, statistics_with_sta, DesignStats, IncrementalSta, Sta};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

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

    /// `engine.sweeps` — sweep passes executed.
    pub fn sweeps() -> &'static Counter {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| Registry::global().counter("engine.sweeps"))
    }

    /// `engine.match_repairs` — incremental match-index repairs.
    pub fn match_repairs() -> &'static Counter {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| Registry::global().counter("engine.match_repairs"))
    }

    /// `engine.repair_ns` — wall time of each match-index repair.
    pub fn repair_ns() -> &'static Histogram {
        static H: OnceLock<Arc<Histogram>> = OnceLock::new();
        H.get_or_init(|| Registry::global().histogram("engine.repair_ns"))
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
    /// Pins involved (e.g. the pair to swap for strategy 1).
    pub pins: Vec<PinRef>,
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
            pins: Vec::new(),
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

    /// Builder: attach pins.
    #[must_use]
    pub fn with_pins(mut self, pins: Vec<PinRef>) -> Self {
        self.pins = pins;
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
        1 + self.aux.len() + self.pins.len()
    }

    fn fingerprint(&self, rule_name: &str) -> (String, ComponentId, Vec<ComponentId>, usize) {
        (
            rule_name.to_owned(),
            self.site,
            self.aux.clone(),
            self.choice,
        )
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
    /// component is fully determined by that component, its adjacent
    /// nets, and the loads on nets the anchor drives, and matching
    /// never reads `ctx.sta` (see `crate::matcher` docs for the exact
    /// support contract). The safe default is [`Locality::Global`]:
    /// the rule is fully re-matched on every index repair.
    fn locality(&self) -> Locality {
        Locality::Global
    }
    /// Whether [`Rule::matches`] reads `ctx.sta`. [`Locality::Local`]
    /// rules contractually never do; `Global` rules default to a
    /// conservative "yes". When no rule in an engine's set uses the
    /// STA, sweep mode skips timing maintenance entirely.
    fn uses_sta(&self) -> bool {
        !matches!(self.locality(), Locality::Local)
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
    refraction: HashSet<(String, ComponentId, Vec<ComponentId>, usize)>,
    match_oracle: bool,
    /// Undo logs of committed firings, oldest first, recorded while the
    /// journal is enabled — the flow layer's checkpoint/rollback hook.
    journal: Option<Vec<UndoLog>>,
    /// Trace of fired rules.
    pub firings: Vec<Firing>,
}

impl Engine {
    /// Creates an engine over a rule set.
    pub fn new(rules: Vec<Box<dyn Rule>>) -> Self {
        Self {
            rules,
            refraction: HashSet::new(),
            match_oracle: oracle_from_env(),
            journal: None,
            firings: Vec::new(),
        }
    }

    /// The rules, for inspection.
    pub fn rules(&self) -> &[Box<dyn Rule>] {
        &self.rules
    }

    /// Clears refraction memory (e.g. between optimization phases).
    pub fn reset_refraction(&mut self) {
        self.refraction.clear();
    }

    /// Starts journaling committed rewrites: every firing accepted by
    /// [`Engine::run`] / [`Engine::step`] / [`Engine::sweep`] /
    /// [`Engine::run_sweeps`] keeps its [`UndoLog`] so a caller can
    /// [`Engine::rollback_to`] an earlier [`Engine::journal_mark`].
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
    /// pairs, refraction filtered, optionally restricted to one class.
    /// The engine's own loops serve conflict sets from an incremental
    /// [`MatchIndex`] instead; this path remains as the debug oracle
    /// (`MILO_MATCH_ORACLE`) and for one-shot callers.
    pub fn conflict_set(
        &self,
        nl: &Netlist,
        sta: Option<&Sta>,
        class: Option<RuleClass>,
    ) -> Vec<(usize, RuleMatch)> {
        let ctx = RuleCtx { nl, sta };
        let mut out = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            if class.is_some_and(|c| rule.class() != c) {
                continue;
            }
            for m in rule.matches(&ctx) {
                if !self.refraction.contains(&m.fingerprint(rule.name())) {
                    out.push((i, m));
                }
            }
        }
        out
    }

    /// Builds a [`MatchIndex`] over this engine's rules — the full
    /// matching pass that incremental repair then keeps alive.
    pub fn build_index(
        &self,
        nl: &Netlist,
        sta: Option<&Sta>,
        class: Option<RuleClass>,
    ) -> MatchIndex {
        MatchIndex::build(&self.rules, &RuleCtx { nl, sta }, class)
    }

    /// Reads the conflict set from an index (refraction filtered) —
    /// the incremental counterpart of [`Engine::conflict_set`].
    pub fn conflict_set_indexed(&self, index: &MatchIndex) -> Vec<(usize, RuleMatch)> {
        index
            .matches()
            .into_iter()
            .filter(|(i, m)| {
                !self
                    .refraction
                    .contains(&m.fingerprint(self.rules[*i].name()))
            })
            .collect()
    }

    /// Drops a stale index and (re)builds as needed, returning the
    /// refraction-filtered conflict set. An index goes stale when STA
    /// availability flips (global rules may read it) or the class
    /// restriction changes.
    fn indexed_conflict(
        &self,
        nl: &Netlist,
        inc: &Option<IncrementalSta>,
        index: &mut Option<MatchIndex>,
        class: Option<RuleClass>,
    ) -> Vec<(usize, RuleMatch)> {
        let sta = inc.as_ref().map(IncrementalSta::sta);
        if index
            .as_ref()
            .is_some_and(|ix| ix.with_sta() != sta.is_some() || ix.class() != class)
        {
            *index = None;
        }
        let ix = index.get_or_insert_with(|| self.build_index(nl, sta, class));
        let conflict = self.conflict_set_indexed(ix);
        if self.match_oracle {
            self.oracle_check(&conflict, nl, sta, class);
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
            let started = std::time::Instant::now();
            ix.repair(&self.rules, &ctx, ts);
            obs::match_repairs().inc();
            obs::repair_ns().record(started.elapsed().as_nanos() as u64);
        }
    }

    /// The debug oracle: assert the indexed conflict set equals the
    /// full rescan (as multisets — index order is anchor-major, scan
    /// order is discovery-major).
    fn oracle_check(
        &self,
        indexed: &[(usize, RuleMatch)],
        nl: &Netlist,
        sta: Option<&Sta>,
        class: Option<RuleClass>,
    ) {
        let full = self.conflict_set(nl, sta, class);
        let key = |(i, m): &(usize, RuleMatch)| {
            (
                *i,
                m.site,
                m.aux.clone(),
                m.pins.clone(),
                m.choice,
                m.note.clone(),
            )
        };
        let mut a: Vec<_> = indexed.iter().map(key).collect();
        let mut b: Vec<_> = full.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(
            a, b,
            "match-index conflict set diverged from full rescan (MILO_MATCH_ORACLE)"
        );
    }

    /// Applies `(rule, match)` and measures the effect; on failure the
    /// change is undone and `None` returned.
    pub fn try_apply(
        &self,
        nl: &mut Netlist,
        rule_idx: usize,
        m: &RuleMatch,
    ) -> Option<(Effect, UndoLog)> {
        let before = statistics(nl).ok()?;
        self.try_apply_inc(nl, &mut None, &before, rule_idx, m)
    }

    /// [`Engine::try_apply`] against an incrementally maintained STA and
    /// a `before` snapshot of the current netlist: the after statistics
    /// reuse the tracked analysis (refreshed from the transaction's touch
    /// set) instead of re-analyzing the netlist. A rejected application
    /// leaves the netlist exactly as it found it, so one snapshot serves
    /// every candidate of a step.
    fn try_apply_inc(
        &self,
        nl: &mut Netlist,
        inc: &mut Option<IncrementalSta>,
        before: &DesignStats,
        rule_idx: usize,
        m: &RuleMatch,
    ) -> Option<(Effect, UndoLog)> {
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
        let ts = log.touch_set();
        match result {
            Ok(Ok(())) => {
                let after = if inc.is_some() {
                    refresh_or_rebuild(inc, nl, &ts);
                    inc.as_ref()
                        .and_then(|i| statistics_with_sta(nl, i.sta()).ok())
                } else {
                    statistics(nl).ok()
                };
                match after {
                    Some(after) => Some((Effect::between(before, &after), log)),
                    None => {
                        // Cycle or hierarchy introduced: reject the rule.
                        log.undo(nl);
                        refresh_or_rebuild(inc, nl, &ts);
                        None
                    }
                }
            }
            // Netlist error or caught panic: reject and restore.
            Ok(Err(_)) | Err(_) => {
                log.undo(nl);
                refresh_or_rebuild(inc, nl, &ts);
                None
            }
        }
    }

    /// One recognize–act cycle: build the conflict set, pick a rule per
    /// `selection`, fire it. Returns `false` when nothing fired.
    pub fn step(
        &mut self,
        nl: &mut Netlist,
        selection: Selection,
        class: Option<RuleClass>,
    ) -> bool {
        let mut inc = IncrementalSta::new(nl).ok();
        self.step_inc(nl, &mut inc, &mut None, false, selection, class)
    }

    /// [`Engine::step`] against a maintained incremental STA and match
    /// index; both are repaired from the accepted firing's touch set.
    /// `maintain` is false for one-shot callers whose index dies with
    /// the call — repairing it (a full `Global` re-match) would be
    /// thrown-away work.
    fn step_inc(
        &mut self,
        nl: &mut Netlist,
        inc: &mut Option<IncrementalSta>,
        index: &mut Option<MatchIndex>,
        maintain: bool,
        selection: Selection,
        class: Option<RuleClass>,
    ) -> bool {
        // Mirror the old per-step analyze: a design that was cyclic at
        // engine start may have been fixed by an earlier firing.
        if inc.is_none() {
            *inc = IncrementalSta::new(nl).ok();
        }
        let conflict = self.indexed_conflict(nl, inc, index, class);
        if conflict.is_empty() {
            return false;
        }
        // One statistics snapshot per step. Its bits cannot differ
        // between candidates: a rejected candidate leaves the netlist as
        // it found it, and every `MaxGain` trial is undone and refreshed
        // before the next. A design the statistics cannot measure (a
        // cycle, unexpanded hierarchy) rejects every candidate.
        let before = match inc.as_ref() {
            Some(i) => statistics_with_sta(nl, i.sta()).ok(),
            None => statistics(nl).ok(),
        };
        let Some(before) = before else {
            return false;
        };
        match selection {
            Selection::OpsOrder => {
                // Refraction is already applied; prefer specificity, then
                // recency (later matches first).
                let mut ordered: Vec<&(usize, RuleMatch)> = conflict.iter().collect();
                ordered.sort_by_key(|(_, m)| std::cmp::Reverse(m.specificity()));
                for (idx, m) in ordered {
                    if let Some((effect, log)) = self.try_apply_inc(nl, inc, &before, *idx, m) {
                        self.record(*idx, m, effect);
                        if maintain {
                            self.repair_index(nl, inc, index, &log.touch_set());
                        }
                        self.journal_push(log);
                        return true;
                    }
                }
                false
            }
            Selection::MaxGain { delay, area, power } => {
                // Evaluate each candidate by applying + undoing, fire the
                // best positive-merit one. The apply/undo pairs restore
                // the netlist exactly, so the index needs no repair
                // until the winner is committed.
                let mut best: Option<(f64, usize, RuleMatch)> = None;
                for (idx, m) in &conflict {
                    if let Some((effect, log)) = self.try_apply_inc(nl, inc, &before, *idx, m) {
                        let ts = log.touch_set();
                        log.undo(nl);
                        refresh_or_rebuild(inc, nl, &ts);
                        let merit = effect.merit(delay, area, power);
                        if merit > 1e-9 && best.as_ref().is_none_or(|(b, _, _)| merit > *b) {
                            best = Some((merit, *idx, m.clone()));
                        }
                    }
                }
                match best {
                    Some((_, idx, m)) => {
                        if let Some((effect, log)) = self.try_apply_inc(nl, inc, &before, idx, &m) {
                            self.record(idx, &m, effect);
                            if maintain {
                                self.repair_index(nl, inc, index, &log.touch_set());
                            }
                            self.journal_push(log);
                            true
                        } else {
                            false
                        }
                    }
                    None => false,
                }
            }
        }
    }

    fn record(&mut self, rule_idx: usize, m: &RuleMatch, effect: Effect) {
        obs::rewrites().inc();
        let rule = &self.rules[rule_idx];
        self.refraction.insert(m.fingerprint(rule.name()));
        self.firings.push(Firing {
            rule: rule.name(),
            class: rule.class(),
            note: m.note.clone(),
            effect,
        });
    }

    /// One *sweep*: builds the conflict set once and applies every match
    /// whose components are still untouched in this pass. This amortizes
    /// matching the way Rete does for OPS (§2.2.1: "once a test has been
    /// performed … it is not redone until a change in data occurs") and
    /// keeps local-transformation synthesis time near-linear in design
    /// size — the LSS observation of §2.2.2.
    pub fn sweep(&mut self, nl: &mut Netlist, class: Option<RuleClass>) -> usize {
        self.sweep_inc(nl, &mut None, &mut None, false, class)
    }

    /// [`Engine::sweep`] against a maintained incremental STA and match
    /// index: the conflict set is served from the index, every accepted
    /// firing's touch set is merged, and analysis + index are repaired
    /// once at the end of the pass — so a multi-pass run re-matches
    /// only where the previous pass rewrote.
    fn sweep_inc(
        &mut self,
        nl: &mut Netlist,
        inc: &mut Option<IncrementalSta>,
        index: &mut Option<MatchIndex>,
        maintain: bool,
        class: Option<RuleClass>,
    ) -> usize {
        let _span = milo_trace::span("engine.sweep");
        obs::sweeps().inc();
        // Sweep mode never measures per-firing statistics, so timing
        // analysis exists only for `matches` to read — skip building
        // and refreshing it when no rule in scope looks at it.
        let needs_sta = self
            .rules
            .iter()
            .any(|r| !class.is_some_and(|c| r.class() != c) && r.uses_sta());
        if inc.is_none() && needs_sta {
            *inc = IncrementalSta::new(nl).ok();
        }
        let conflict = self.indexed_conflict(nl, inc, index, class);
        let mut touched: HashSet<ComponentId> = HashSet::new();
        let mut merged = TouchSet::new();
        let mut fired = 0usize;
        for (idx, m) in conflict {
            if touched.contains(&m.site) || m.aux.iter().any(|a| touched.contains(a)) {
                continue;
            }
            // Apply without per-candidate statistics measurement — sweep
            // mode is for always-beneficial local transformations, and the
            // O(design) cost of measuring every firing would defeat the
            // linearity the mode exists to provide.
            let mut tx = Tx::new(nl);
            // Same mid-apply panic isolation as `try_apply_inc`: commit
            // the partial transaction and undo it.
            let result = catch_unwind(AssertUnwindSafe(|| self.rules[idx].apply(&mut tx, &m)));
            let log = tx.commit();
            match result {
                Ok(Ok(())) => {
                    touched.insert(m.site);
                    touched.extend(m.aux.iter().copied());
                    merged.merge(&log.touch_set());
                    self.record(idx, &m, Effect::default());
                    self.journal_push(log);
                    fired += 1;
                }
                Ok(Err(_)) | Err(_) => log.undo(nl),
            }
        }
        if fired > 0 {
            refresh_or_rebuild(inc, nl, &merged);
            if maintain {
                self.repair_index(nl, inc, index, &merged);
            }
        }
        fired
    }

    /// Repeats [`Engine::sweep`] until quiescence or `max_passes`,
    /// keeping one match index alive across passes (built on the first
    /// pass, repaired from each pass's merged touch set after that).
    pub fn run_sweeps(
        &mut self,
        nl: &mut Netlist,
        class: Option<RuleClass>,
        max_passes: usize,
    ) -> usize {
        let mut inc = None;
        let mut index = None;
        let mut total = 0;
        for _ in 0..max_passes {
            let fired = self.sweep_inc(nl, &mut inc, &mut index, true, class);
            if fired == 0 {
                break;
            }
            total += fired;
        }
        total
    }

    /// Runs recognize–act cycles until quiescence or `max_steps`.
    /// Returns the number of rules fired.
    pub fn run(
        &mut self,
        nl: &mut Netlist,
        selection: Selection,
        class: Option<RuleClass>,
        max_steps: usize,
    ) -> usize {
        let mut inc = IncrementalSta::new(nl).ok();
        let mut index = None;
        let mut fired = 0;
        while fired < max_steps && self.step_inc(nl, &mut inc, &mut index, true, selection, class) {
            fired += 1;
        }
        fired
    }
}

/// Refreshes the tracked analysis from a touch set, falling back to a
/// full rebuild (or dropping the analysis entirely, e.g. on a
/// combinational cycle) when the incremental path cannot apply.
pub fn refresh_or_rebuild(inc: &mut Option<IncrementalSta>, nl: &Netlist, ts: &TouchSet) {
    // With no tracker there is nothing to keep fresh — callers that
    // want one (re)acquire it per step, so a failure path here must not
    // pay for a from-scratch analysis that is immediately dropped.
    if let Some(i) = inc.as_mut() {
        if i.refresh(nl, ts).is_err() {
            *inc = IncrementalSta::new(nl).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_netlist::{ComponentKind, GateFn, GenericMacro, PinDir};

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
        let fired = engine.run(&mut nl, Selection::OpsOrder, None, 100);
        assert_eq!(fired, 2, "two pairs removed from a 5-chain");
        assert_eq!(nl.component_count(), 1);
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

    /// The step takes one statistics snapshot and measures every
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
                if !engine.step(&mut nl, selection, None) {
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
            None,
            100,
        );
        assert_eq!(fired, 2);
        assert_eq!(nl.component_count(), 0);
        assert!(engine.firings.iter().all(|f| f.effect.area_cost < 0.0));
    }

    #[test]
    fn class_filter_blocks_rules() {
        let mut nl = inv_chain(2);
        let mut engine = Engine::new(vec![Box::new(DoubleInv)]);
        let fired = engine.run(&mut nl, Selection::OpsOrder, Some(RuleClass::Timing), 100);
        assert_eq!(fired, 0);
    }

    #[test]
    fn indexed_run_matches_oracle() {
        // With the oracle on, every conflict set served from the index
        // is asserted equal to a full rescan — across all firings.
        let mut nl = inv_chain(7);
        let mut engine = Engine::new(vec![Box::new(DoubleInv)]);
        engine.set_match_oracle(true);
        let fired = engine.run(&mut nl, Selection::OpsOrder, None, 100);
        assert_eq!(fired, 3);
        assert_eq!(nl.component_count(), 1);
    }

    #[test]
    fn indexed_sweeps_match_oracle() {
        let mut nl = inv_chain(8);
        let mut engine = Engine::new(vec![Box::new(DoubleInv)]);
        engine.set_match_oracle(true);
        let fired = engine.run_sweeps(&mut nl, None, 20);
        assert_eq!(fired, 4);
        assert_eq!(nl.component_count(), 0);
    }

    #[test]
    fn repair_tracks_apply_and_undo() {
        let mut nl = inv_chain(6);
        let engine = Engine::new(vec![Box::new(DoubleInv)]);
        let mut index = engine.build_index(&nl, None, None);
        let full = engine.conflict_set(&nl, None, None);
        assert_eq!(index.matches().len(), full.len());

        // Apply the first match, repair, and check against a rescan.
        let (idx, m) = full[0].clone();
        let mut tx = Tx::new(&mut nl);
        engine.rules()[idx].apply(&mut tx, &m).unwrap();
        let log = tx.commit();
        let ts = log.touch_set();
        index.repair(engine.rules(), &RuleCtx { nl: &nl, sta: None }, &ts);
        assert_eq!(
            index.matches().len(),
            engine.conflict_set(&nl, None, None).len()
        );

        // Undo it; the same touch set describes the reverse repair.
        log.undo(&mut nl);
        index.repair(engine.rules(), &RuleCtx { nl: &nl, sta: None }, &ts);
        assert_eq!(
            index.matches().len(),
            engine.conflict_set(&nl, None, None).len()
        );
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
        let mut index = engine.build_index(&nl, inc.as_ref().map(IncrementalSta::sta), None);
        let mut tx = Tx::new(&mut nl);
        tx.disconnect(milo_netlist::PinRef::new(extra, 1)).unwrap();
        let log2 = tx.commit();
        index.repair(
            engine.rules(),
            &RuleCtx { nl: &nl, sta: None },
            &log2.touch_set(),
        );
        let full = engine.conflict_set(&nl, None, None);
        assert_eq!(index.matches().len(), full.len());
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
        let fired = engine.run(&mut nl, Selection::OpsOrder, None, 10);
        assert_eq!(fired, 0);
        assert_eq!(format!("{nl:?}"), before, "partial work rolled back");

        let swept = engine.sweep(&mut nl, None);
        assert_eq!(swept, 0);
        assert_eq!(format!("{nl:?}"), before, "sweep path rolled back too");
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

        assert!(engine.step(&mut nl, Selection::OpsOrder, None));
        let mark1 = engine.journal_mark();
        assert_eq!(mark1, 1);
        let at_mark1 = format!("{nl:?}");

        let fired = engine.run_sweeps(&mut nl, None, 20);
        assert!(fired > 0);
        assert_eq!(engine.journal_mark(), 1 + fired);

        // Unwind to the intermediate mark, then all the way out.
        assert_eq!(engine.rollback_to(&mut nl, mark1), fired);
        assert_eq!(format!("{nl:?}"), at_mark1);
        assert_eq!(engine.rollback_to(&mut nl, mark0), 1);
        assert_eq!(format!("{nl:?}"), at_mark0);

        // The journal is empty now; taking it disables journaling.
        assert!(engine.take_journal().is_empty());
        assert!(engine.step(&mut nl, Selection::OpsOrder, None));
        assert_eq!(engine.journal_mark(), 0, "journaling off after take");
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
