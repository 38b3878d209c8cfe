//! The strategy-selecting maintenance engine: counting for non-recursive
//! strata, delete-and-rederive (DRed) for recursive ones.
//!
//! The paper frames materialized view maintenance (§5.1.3) as the updating
//! problem where *deletions* are hard: a deleted base fact may or may not
//! invalidate a derived one, depending on alternative support. Counting
//! (Gupta, Mumick & Subrahmanian, SIGMOD 1993 — the \[GMS93\] the paper
//! cites) answers that with a stored **support count** per derived tuple,
//! the number of rule bindings deriving it: a tuple holds iff its count is
//! positive, so the induced events are exactly the `0 → >0` and `>0 → 0`
//! transitions, and a deletion needs no re-derivation check. Count
//! *changes* come from finite differencing of each rule body,
//!
//! ```text
//! Δ(L₁ ⋈ … ⋈ Lₙ) = Σᵢ  L₁ⁿ ⋈ … ⋈ Lᵢ₋₁ⁿ ⋈ ΔLᵢ ⋈ Lᵢ₊₁ᵒ ⋈ … ⋈ Lₙᵒ
//! ```
//!
//! with signed deltas (`+1` per inserted tuple, `−1` per deleted; signs
//! flipped under negation). But counts only work for non-recursive
//! programs — a recursive tuple can support itself through a cycle, so a
//! positive count no longer implies an external derivation.
//!
//! [`MaintenanceEngine`] closes the gap. It walks the stratification's
//! components in dependency order and picks a strategy per component:
//!
//! | component                          | strategy         | deletion answer                                        |
//! |------------------------------------|------------------|--------------------------------------------------------|
//! | non-recursive                      | counting         | support count `>0 → 0` transition                      |
//! | recursive, nothing rederived yet   | DRed             | overdelete to fixpoint, then rederive                  |
//! | recursive, once a tuple was        | rank-pruned DRed | overdelete what has no derivation over lower ranks,    |
//! | rederived (never: chains, trees)   |                  | then rederive                                          |
//!
//! The DRed pass (after Gupta–Mumick–Subrahmanian, with the Datalog
//! formulation of Behrend's uniform fixpoint treatment) runs in three
//! phases per recursive component:
//!
//! 1. **Overdelete**: starting from the transaction's breaking deltas
//!    (deletions on positive occurrences, insertions on negated ones),
//!    propagate deletions through the component's rules to a fixpoint,
//!    joining the remaining body literals against the **old** state. The
//!    result `D` overestimates the real deletions. Every head such a
//!    firing reaches holds in the old state, whose fixpoint the old
//!    extension is, so it is a candidate without a test; one map per
//!    member holds each candidate with whether it was kept (below), and
//!    `D` is read off it once, when the phase ends.
//! 2. **Rederive**: each tuple of `D` is checked head-bound against the
//!    underestimate `old \ D` plus the new state of everything outside
//!    the component; survivors are put back.
//! 3. **Insert**: the transaction's enabling deltas fire each rule once
//!    per occurrence, and the added member tuples propagate round by
//!    round to the new fixpoint. This propagation is the engine's one
//!    fixpoint loop: run from nothing, seeded with the heads of the exit
//!    rules (those without a member literal), it also builds a recursive
//!    component for [`MaintenanceEngine::new`] and ranks one.
//!
//! Textbook phase 1 takes out everything downstream of the change, most
//! of a well-connected component, nearly all of it put back by phase 2:
//! it cannot tell whether a tuple's other derivations support it from
//! outside or only through a cycle through the deleted tuple. A **rank**
//! per tuple can, with the invariant that *`t` has a rule instance, true
//! in the current state, whose member body tuples all have a rank below
//! `t`'s*. Phase 1 pops its candidates in ascending rank and **keeps** one
//! that still has an instance whose literals outside the component hold
//! in the new state and whose member body tuples are old, not overdeleted
//! and of lower rank; by induction on the rank those stay, so the kept
//! tuple is derivable without itself and the cascade stops there. What
//! phases 2 and 3 put back or insert gets the loop's rank: `1 + max` rank
//! of the member body tuples of the instance that produced it, the lowest
//! over the instances seen — from nothing, the round that derives it.
//! The first pass over a component that rederives a tuple (the first
//! evidence of alternative derivations) ranks it by running the loop from
//! nothing in the new state with ranks on. Ranks are staged and committed
//! like the extensions, maintained from then on and never persisted; a
//! component without them runs the same loop, every rank read as 0.
//!
//! Every phase drives its joins from a delta tuple, so the work is
//! proportional to the change, not the database — the same compiled join
//! plans as the evaluator ([`JoinPlan`]) serve the rederivation and
//! propagation joins. The unit of their work is a search of the sorted
//! runs, and the pass makes as few as it can: a fully bound body literal
//! is one membership test, and phase 1 looks a candidate up once in its
//! working set. Induced events fall out as the diff between the old
//! extension and the new fixpoint, into the one event store the pass
//! keeps (each unit reads the events of the units below it there); the
//! derived predicates' part of it is the result. A commit's pass records
//! an `upward.maintain` span with per-phase counters.
//!
//! The engine is also the read path. A read-only upward problem
//! ([`MaintenanceEngine::interpret_for`]) runs the same pass and drops
//! its staged state, so nothing it computed can be committed. Asked for
//! some events only (`ιIc` for integrity checking, §5.1.1), it first
//! decides off the dependency graph, by sign, whether one of them can
//! follow from the transaction at all — an insertion only comes from an
//! insertion below a positive literal or a deletion below a negated one,
//! a deletion the other way round — and otherwise runs only the units
//! with a member in the goals' cone: the goal predicates and everything
//! they depend on. The result is exact on the goals and a subset of the
//! full interpretation elsewhere. The sign is used only in that test: a
//! unit the pass runs computes both kinds of event (DESIGN.md §4.1 has
//! the reason). A read never builds ranks; on an engine without them, a
//! recursive component runs plain DRed.

use crate::error::{Error, Result};
use crate::transaction::Transaction;
use crate::upward::{Goals, UpwardResult};
use dduf_datalog::ast::{Const, Literal, Pred, Rule};
use dduf_datalog::depgraph::{DepGraph, EdgeSign};
use dduf_datalog::eval::join::JoinStats;
use dduf_datalog::eval::plan::{eval_heads, JoinPlan, Pattern};
use dduf_datalog::eval::{component_label, record_component_trace};
use dduf_datalog::eval::{ComponentTrace, Interpretation, StateView};
use dduf_datalog::storage::database::Database;
use dduf_datalog::storage::relation::Relation;
use dduf_datalog::storage::runs::Runs;
use dduf_datalog::storage::tuple::Tuple;
use dduf_datalog::stratify::stratify;
pub use dduf_datalog::stratify::Strategy;
use dduf_events::event::{EventKind, GroundEvent};
use dduf_events::store::EventStore;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::ops::ControlFlow;

/// Support-count deltas per counting-strategy predicate, as staged by
/// [`MaintenanceEngine::interpret`]: non-zero, in tuple order, so a
/// commit inserts and removes counts in the same order in every process.
pub type CountDeltas = BTreeMap<Pred, Vec<(Tuple, i64)>>;

/// The stored support counts of one counting-strategy predicate: the
/// container the relations are made of, with the count as each tuple's
/// value, so a clone of the engine shares them like it shares extensions.
pub type Counts = Runs<i64>;

/// The stored ranks of one member predicate of a recursive component: the
/// same container again, with the tuple's rank as its value.
pub type Ranks = Runs<i64>;

/// One stratification component with its chosen strategy, in dependency
/// order.
#[derive(Clone, Debug)]
struct Unit {
    preds: Vec<Pred>,
    strategy: Strategy,
    /// The predicates the unit's rule bodies read: a pass whose events
    /// miss all of them leaves the unit as it is.
    inputs: BTreeSet<Pred>,
}

/// The staged effect of one transaction on the maintenance state, as
/// produced by [`MaintenanceEngine::interpret`]. Committed separately
/// ([`MaintenanceEngine::commit_staged`]) so a write-ahead hook can veto
/// the mutation.
#[derive(Clone, Debug, Default)]
pub struct StagedMaintenance {
    /// Support-count deltas for counting-strategy predicates.
    pub count_deltas: CountDeltas,
    /// New extensions of the derived predicates that changed (unchanged
    /// predicates are absent). Each is a clone of the old extension with
    /// the induced events applied, so it shares every untouched run with
    /// it.
    pub new_exts: BTreeMap<Pred, Relation>,
    /// New rank maps of the recursive-component members whose ranks
    /// changed, or were built by this transaction (then every member of
    /// the component has an entry).
    pub new_ranks: BTreeMap<Pred, Ranks>,
}

/// Stateful, strategy-selecting view maintenance over one database.
///
/// Holds the support counts of every counting-strategy predicate and the
/// materialized extension of **every** derived predicate (the counting
/// extensions are redundant with the count keys but kept uniform: they
/// are what persists, what recovery restores, what the old-state joins
/// read, and what [`interpretation`](Self::interpretation) hands out).
#[derive(Clone, Debug, Default)]
pub struct MaintenanceEngine {
    /// Support counts, counting-strategy predicates only.
    counts: BTreeMap<Pred, Counts>,
    /// Current extension of every derived predicate.
    exts: Interpretation,
    /// Ranks of the members of every recursive component that has shown
    /// an alternative derivation (all members of a component or none).
    /// Same keys as the member's extension; every tuple has a rule
    /// instance, true in the current state, whose member body tuples all
    /// have a strictly lower rank. Never persisted: a recovered engine
    /// starts without and builds them again when it needs them.
    ranks: BTreeMap<Pred, Ranks>,
    /// Components in dependency order with their strategies.
    units: Vec<Unit>,
}

/// Computes the per-component strategy plan for a program.
fn compute_units(program: &dduf_datalog::schema::Program) -> Result<Vec<Unit>> {
    let components =
        stratify(program).map_err(|e| Error::from(dduf_datalog::error::Error::from(e)))?;
    Ok(components
        .into_iter()
        .map(|c| Unit {
            strategy: c.strategy().expect("a stratified component has a strategy"),
            inputs: c
                .preds
                .iter()
                .flat_map(|&p| program.rules_for(p))
                .flat_map(|r| r.body.iter().map(|l| l.atom.pred))
                .collect(),
            preds: c.preds,
        })
        .collect())
}

impl MaintenanceEngine {
    /// Builds the engine for `db` from its facts alone, every unit
    /// evaluated once. Raises what materialization raises: a rule that is
    /// not allowed, a program that is not stratifiable.
    pub fn new(db: &Database) -> Result<MaintenanceEngine> {
        Ok(Self::build(db, None)?.0)
    }

    /// The engine for `db`, and the events its rule update induces when
    /// `prev` holds the engine under the old program and the predicates
    /// whose rules changed. A unit with a `prev` unit's predicates, none
    /// changed and no input that changed extension, shares that unit's
    /// state; any other is evaluated once, and its events are the
    /// difference of its old and new extension (DESIGN.md §15). Records
    /// `eval.materialize` and one `eval.scc` per evaluated unit.
    pub fn build(
        db: &Database,
        prev: Option<(&MaintenanceEngine, &BTreeSet<Pred>)>,
    ) -> Result<(MaintenanceEngine, EventStore)> {
        dduf_datalog::safety::check_program(db.program())?;
        let units = compute_units(db.program())?;
        let timer = dduf_obs::timer();
        let mut engine = MaintenanceEngine::default();
        let mut events = EventStore::new();
        // A predicate whose last rule went holds nothing any more.
        for (p, rel) in prev.iter().flat_map(|(old, _)| old.exts.iter()) {
            if !units.iter().any(|u| u.preds.contains(&p)) {
                events.add_difference(p, rel, &Relation::new());
            }
        }
        let mut evaluated = 0;
        for unit in &units {
            let kept = prev.filter(|(old, changed)| {
                let members = |u: &Unit| u.preds.iter().copied().collect::<BTreeSet<_>>();
                old.units.iter().any(|u| members(u) == members(unit))
                    && !unit.preds.iter().any(|p| changed.contains(p))
                    && !unit.inputs.iter().any(|&p| events.touches(p))
            });
            if let Some((old, _)) = kept {
                for &p in &unit.preds {
                    engine.exts.set(p, old.extension(p).clone());
                    let (counts, ranks) = (old.counts.get(&p), old.ranks.get(&p));
                    engine.counts.extend(counts.map(|c| (p, c.clone())));
                    engine.ranks.extend(ranks.map(|r| (p, r.clone())));
                }
                continue;
            }
            evaluated += 1;
            let (exts, trace) = engine.evaluate(db, unit);
            if dduf_obs::enabled() {
                record_component_trace(&component_label(&unit.preds), &trace);
            }
            for (p, rel) in exts {
                if let Some((old, _)) = prev {
                    events.add_difference(p, old.extension(p), &rel);
                }
                engine.exts.set(p, rel);
            }
        }
        let (kept, facts) = (units.len() as u64 - evaluated, engine.tuple_count() as u64);
        let counters = [
            ("components", evaluated),
            ("skipped", kept),
            ("facts", facts),
        ];
        dduf_obs::record_timed("eval.materialize", "", &counters, timer.elapsed_us());
        engine.units = units;
        Ok((engine, events))
    }

    /// Evaluates one unit over the lower units' extensions; a counting
    /// unit's support counts go into the engine on the way.
    fn evaluate(&mut self, db: &Database, unit: &Unit) -> (Vec<(Pred, Relation)>, ComponentTrace) {
        if unit.strategy == Strategy::DRed {
            let state = StateView::new(db, &self.exts);
            let mut firings = Firings::new(db.program(), &unit.preds);
            let (cur, _, trace) = firings.fixpoint(&|p| state.relation(p), false);
            return (cur.into_iter().collect(), trace);
        }
        let (pred, state) = (unit.preds[0], StateView::new(db, &self.exts));
        let mut trace = ComponentTrace::default();
        let mut counted: HashMap<Tuple, i64> = HashMap::new();
        for rule in db.program().rules_for(pred) {
            let plan = JoinPlan::compile(&rule.body, &BTreeSet::new(), None);
            let rel_of = |i: usize| state.relation(rule.body[i].atom.pred);
            for t in eval_heads(&plan, &rule.head.terms, &rel_of, &mut trace.stats) {
                *counted.entry(t).or_insert(0) += 1;
            }
            trace.plans += 1;
        }
        let derivations = counted.values().sum::<i64>() as u64;
        trace.push_round(derivations, counted.len() as u64);
        let mut counted: Vec<(Tuple, i64)> = counted.into_iter().collect();
        counted.sort_unstable();
        let rel = counted.iter().map(|(t, _)| t.clone()).collect();
        self.counts.insert(pred, Counts::from_sorted(counted));
        (vec![(pred, rel)], trace)
    }

    /// Rebuilds the engine from previously persisted state **without
    /// re-deriving anything** — the recovery constructor. `counts` must
    /// hold the support counts of every counting-strategy predicate and
    /// `dred_exts` the extensions of the recursive (DRed) predicates, as
    /// [`counts`](Self::counts) and [`interpretation`](Self::interpretation)
    /// of a live engine produced them. The split is validated against the
    /// program's stratification; a mismatch (e.g. a saved file from a
    /// different program) is an error so callers can fall back to a full
    /// recompute.
    pub fn from_saved(
        db: &Database,
        counts: BTreeMap<Pred, Counts>,
        dred_exts: BTreeMap<Pred, Relation>,
    ) -> Result<MaintenanceEngine> {
        let units = compute_units(db.program())?;
        let strategy_of: BTreeMap<Pred, Strategy> = units
            .iter()
            .flat_map(|u| u.preds.iter().map(|&p| (p, u.strategy)))
            .collect();
        for (&p, wanted) in counts
            .keys()
            .map(|p| (p, Strategy::Counting))
            .chain(dred_exts.keys().map(|p| (p, Strategy::DRed)))
            .collect::<Vec<_>>()
        {
            if strategy_of.get(&p) != Some(&wanted) {
                return Err(Error::Storage(format!(
                    "saved maintenance state does not fit this program: {p} is not a {} predicate",
                    match wanted {
                        Strategy::Counting => "counting-strategy",
                        Strategy::DRed => "recursive (DRed-strategy)",
                    }
                )));
            }
        }
        let mut exts = Interpretation::default();
        for (&p, &s) in &strategy_of {
            let rel = match s {
                Strategy::Counting => counts
                    .get(&p)
                    .map(|m| m.iter().map(|(t, _)| t.clone()).collect())
                    .unwrap_or_default(),
                Strategy::DRed => dred_exts.get(&p).cloned().unwrap_or_default(),
            };
            exts.set(p, rel);
        }
        Ok(MaintenanceEngine {
            counts,
            exts,
            ranks: BTreeMap::new(),
            units,
        })
    }

    /// The strategy maintaining a derived predicate (`None` if unknown).
    pub fn strategy(&self, pred: Pred) -> Option<Strategy> {
        self.units
            .iter()
            .find(|u| u.preds.contains(&pred))
            .map(|u| u.strategy)
    }

    /// The stored support count of a tuple. Counting predicates report
    /// their exact count; DRed predicates report set membership (1/0) —
    /// DRed keeps no counts, that is the point of the rederivation pass.
    pub fn count(&self, pred: Pred, tuple: &Tuple) -> i64 {
        match self.counts.get(&pred) {
            Some(m) => m.get(tuple).copied().unwrap_or(0),
            None => i64::from(self.extension(pred).contains(tuple)),
        }
    }

    /// The current extension of a derived predicate.
    pub fn extension(&self, pred: Pred) -> &Relation {
        self.exts.relation(pred)
    }

    /// The rank of a tuple of a recursive component, once the component
    /// has ranks (`None` before that, and for any other tuple).
    pub fn rank(&self, pred: Pred, tuple: &[Const]) -> Option<i64> {
        self.ranks.get(&pred)?.get(tuple).copied()
    }

    /// The engine without its ranks: what is published and persisted. It
    /// maintains as before and ranks a component again when a pass
    /// rederives in it.
    pub(crate) fn without_ranks(mut self) -> MaintenanceEngine {
        self.ranks.clear();
        self
    }

    /// All support counts (counting-strategy predicates only), for
    /// persistence.
    pub fn counts(&self) -> &BTreeMap<Pred, Counts> {
        &self.counts
    }

    /// Total number of maintained derived tuples.
    pub fn tuple_count(&self) -> usize {
        self.exts.fact_count()
    }

    /// The current extension of every derived predicate: the state the
    /// engine maintains, what persists and what recovery publishes
    /// instead of re-materializing.
    pub fn interpretation(&self) -> &Interpretation {
        &self.exts
    }

    /// Computes the induced events of `txn` and the staged maintenance
    /// state, without mutating the engine — a commit's interpretation.
    /// Records an `upward.maintain` span with per-strategy counters.
    pub fn interpret(
        &self,
        db: &Database,
        txn: &Transaction,
    ) -> Result<(UpwardResult, StagedMaintenance)> {
        let timer = dduf_obs::timer();
        let (effective, _noops) = txn.normalize(db);
        let mut ctrs = DredCounters::default();
        let (derived_events, staged) = self.pass(db, &effective, None, true, &mut ctrs);
        dduf_obs::record_timed(
            "upward.maintain",
            "",
            &[
                ("transactions", 1),
                ("counting_preds", ctrs.counting),
                ("dred_components", ctrs.dred),
                ("checked", ctrs.checked),
                ("overdeleted", ctrs.overdeleted),
                ("rederived", ctrs.rederived),
                ("inserted", ctrs.inserted),
                ("ranks_built", ctrs.ranks_built),
                ("events", derived_events.len() as u64),
            ],
            timer.elapsed_us(),
        );
        Ok((
            UpwardResult {
                base: effective.events().clone(),
                derived: derived_events,
            },
            staged,
        ))
    }

    /// The upward interpretation of `txn` as a read: every induced event
    /// when `goals` is `None`, and otherwise the upward problem `goals`
    /// states — exact on the goal events, a subset of the full
    /// interpretation elsewhere (the module documentation has the
    /// contract, DESIGN.md §4.1 the argument). The pass is
    /// [`interpret`](Self::interpret)'s, its staged state is dropped, and
    /// it never builds ranks. Records an `upward.apply` span labelled
    /// `maintain`, which tells a read from a commit.
    pub fn interpret_for(
        &self,
        db: &Database,
        txn: &Transaction,
        goals: Option<&Goals>,
    ) -> Result<UpwardResult> {
        let timer = dduf_obs::timer();
        let (effective, _noops) = txn.normalize(db);
        let base = effective.events();

        // The possibility test, before anything is built: when no goal
        // event is among what the base events can cause, the answer is
        // known. The same closure, unsigned, is the cone.
        let mut possible = !base.is_empty();
        let mut cone: Option<BTreeSet<Pred>> = None;
        if let (Some(goals), true) = (goals, possible) {
            let causes = DepGraph::build(db.program())
                .signed_closure(goals.iter().map(|&(p, kind)| (p, change(kind))));
            possible = [EventKind::Ins, EventKind::Del].into_iter().any(|kind| {
                base.predicates(kind)
                    .any(|p| causes.contains(&(p, change(kind))))
            });
            cone = Some(causes.into_iter().map(|(p, _)| p).collect());
        }
        let mut ctrs = DredCounters::default();
        let derived = if possible {
            self.pass(db, &effective, cone.as_ref(), false, &mut ctrs).0
        } else {
            EventStore::new()
        };

        let derived_ins = derived.iter().filter(|e| e.kind == EventKind::Ins).count() as u64;
        let mut counters = vec![
            ("base_events", base.len() as u64),
            ("derived_ins", derived_ins),
            ("derived_del", derived.len() as u64 - derived_ins),
            ("components_skipped", ctrs.skipped),
            ("checked", ctrs.checked),
            ("overdeleted", ctrs.overdeleted),
            ("rederived", ctrs.rederived),
            ("inserted", ctrs.inserted),
        ];
        if goals.is_some() {
            counters.push(("components_pruned", ctrs.pruned));
            counters.push(("decided_statically", u64::from(!possible)));
        }
        dduf_obs::record_timed("upward.apply", "maintain", &counters, timer.elapsed_us());
        Ok(UpwardResult {
            base: base.clone(),
            derived,
        })
    }

    /// One pass over the units in dependency order — over those with a
    /// member in `cone`, when there is one — returning the induced
    /// derived events and the staged state. Ranks are built only when
    /// `may_rank`.
    ///
    /// The cone is closed under dependency, so a unit inside it reads only
    /// units inside it: each one the pass runs sees the events it would
    /// see with no cone at all.
    fn pass(
        &self,
        db: &Database,
        effective: &Transaction,
        cone: Option<&BTreeSet<Pred>>,
        may_rank: bool,
        ctrs: &mut DredCounters,
    ) -> (EventStore, StagedMaintenance) {
        let new_db = effective.apply(db);
        let mut events = effective.events().clone();
        let mut staged = StagedMaintenance::default();

        for unit in &self.units {
            match unit.strategy {
                Strategy::Counting => ctrs.counting += 1,
                Strategy::DRed => ctrs.dred += 1,
            }
            if cone.is_some_and(|cone| !unit.preds.iter().any(|p| cone.contains(p))) {
                ctrs.pruned += 1;
                continue; // nobody asked
            }
            // Anything relevant changed? Events cover base predicates and
            // every lower unit (processed first); members have no events
            // yet by construction.
            if !unit.inputs.iter().any(|&p| events.touches(p)) {
                ctrs.skipped += 1;
                continue; // the old extension remains valid
            }
            match unit.strategy {
                Strategy::Counting => {
                    self.counting_pred(unit.preds[0], db, &new_db, &mut events, &mut staged)
                }
                Strategy::DRed => {
                    self.dred_component(unit, db, &new_db, &mut events, &mut staged, may_rank, ctrs)
                }
            }
        }
        // The transaction's events are on base predicates, so the derived
        // predicates' are exactly the induced ones.
        let (derived, _base) = events.partition(|p| db.program().is_derived(p));
        (derived, staged)
    }

    /// Computes the induced events and commits the staged state.
    pub fn apply(&mut self, db: &Database, txn: &Transaction) -> Result<UpwardResult> {
        let (result, staged) = self.interpret(db, txn)?;
        self.commit_staged(staged);
        Ok(result)
    }

    /// Commits a staged interpretation: merges the count deltas and
    /// installs the changed extensions and rank maps. Split from
    /// [`interpret`](Self::interpret) so a write-ahead hook can run (and
    /// veto) in between.
    pub fn commit_staged(&mut self, staged: StagedMaintenance) {
        for (pred, delta) in staged.count_deltas {
            let map = self.counts.entry(pred).or_default();
            for (t, d) in delta {
                let Some(c) = map.get_mut(&t) else {
                    debug_assert!(d > 0, "negative count for {pred}{t}");
                    map.insert(t, d);
                    continue;
                };
                *c += d;
                debug_assert!(*c >= 0, "negative count for {pred}{t}");
                if *c == 0 {
                    map.remove(&t);
                }
            }
        }
        for (pred, rel) in staged.new_exts {
            self.exts.set(pred, rel);
        }
        self.ranks.extend(staged.new_ranks);
    }

    /// One counting-strategy predicate: finite differencing against the
    /// stored extensions, count transitions become events.
    fn counting_pred(
        &self,
        pred: Pred,
        db: &Database,
        new_db: &Database,
        events: &mut EventStore,
        staged: &mut StagedMaintenance,
    ) {
        let program = db.program();
        let mut delta: HashMap<Tuple, i64> = HashMap::new();
        for rule in program.rules_for(pred) {
            rule_count_delta(
                rule,
                db,
                new_db,
                events,
                &self.exts,
                &staged.new_exts,
                &mut delta,
            );
        }
        let mut delta: Vec<(Tuple, i64)> = delta.into_iter().filter(|&(_, d)| d != 0).collect();
        if delta.is_empty() {
            return;
        }
        delta.sort_unstable();
        // Count transitions → events; materialize the new extension only
        // if membership actually changed.
        let mut new_rel: Option<Relation> = None;
        for (t, d) in &delta {
            let before = self.count(pred, t);
            let after = before + d;
            debug_assert!(after >= 0, "negative count for {pred}{t}");
            let rel = if before == 0 && after > 0 {
                events.insert(GroundEvent::ins(pred, t.clone()));
                new_rel.get_or_insert_with(|| self.extension(pred).clone())
            } else if before > 0 && after == 0 {
                events.insert(GroundEvent::del(pred, t.clone()));
                new_rel.get_or_insert_with(|| self.extension(pred).clone())
            } else {
                continue;
            };
            if *d > 0 {
                rel.insert(t.clone());
            } else {
                rel.remove(t);
            }
        }
        if let Some(rel) = new_rel {
            staged.new_exts.insert(pred, rel);
        }
        staged.count_deltas.insert(pred, delta);
    }

    /// One recursive component: overdelete → rederive → insert. Ranks the
    /// component, when it has none and the pass rederived, only if
    /// `may_rank`.
    #[allow(clippy::too_many_arguments)]
    fn dred_component(
        &self,
        unit: &Unit,
        db: &Database,
        new_db: &Database,
        events: &mut EventStore,
        staged: &mut StagedMaintenance,
        may_rank: bool,
        ctrs: &mut DredCounters,
    ) {
        let program = db.program();
        let members = &unit.preds;
        let mut firings = Firings::new(program, members);
        // Scratch for the head and the member body tuples of an instance.
        let (mut head, mut body) = (Vec::new(), Vec::new());
        // All members of a component have ranks or none has.
        let ranked = self.ranks.contains_key(&members[0]);
        // The new state of everything outside the component: final, lower
        // components are processed first.
        let lower_exts = &staged.new_exts;
        let new_outside = |p: Pred| -> &Relation {
            if program.is_derived(p) {
                lower_exts.get(&p).unwrap_or_else(|| self.extension(p))
            } else {
                new_db.relation(p)
            }
        };

        // ---- phase 1: overdelete to fixpoint against the OLD state ----
        // Every candidate is an old tuple, overdeleted unless its check
        // keeps it. Candidates are popped in ascending rank, so when one is
        // checked every tuple of lower rank that has to go is overdeleted
        // for good.
        let mut candidates = Candidates::new(members);
        let old = StateView::new(db, &self.exts);
        let old_rel_of = |_: usize, p: Pred| old.relation(p);
        // What the keep-check reads: the component as it was, the rest as
        // it will be.
        let kept_rel_of = |_: usize, p: Pred| -> &Relation {
            if members.contains(&p) {
                self.extension(p)
            } else {
                new_outside(p)
            }
        };
        // Breaking deltas: deletions on positive occurrences, insertions on
        // negated ones. Members have no events yet: candidates drive them.
        for &q in &unit.inputs {
            for (kind, positive) in [(EventKind::Del, true), (EventKind::Ins, false)] {
                for t in events.relation(kind, q).iter() {
                    firings.fire((q, positive), t, &old_rel_of, &mut |inst| {
                        inst.head(&mut head);
                        candidates.push(self, inst.head_pred(), &head);
                    });
                }
            }
        }
        while let Some((rank, p, t)) = candidates.pop() {
            if ranked {
                ctrs.checked += 1;
                // Kept, with its rank: an instance over tuples of lower rank
                // that all stay cannot pass through `t`. The first settles it.
                let seen = &candidates;
                let stays = |q: Pred, bt: &[Const], r: i64| r < rank && !seen.overdeleted(q, bt);
                let kept = firings.find_head(p, &kept_rel_of, |f| {
                    f.run(&t, &kept_rel_of, &mut |inst| {
                        if inst.members_all(&self.ranks, &mut body, stays) {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    })
                    .is_break()
                    .then_some(())
                });
                if kept.is_some() {
                    candidates.keep(p, &t);
                    continue;
                }
            }
            // A stratified component has no negated member occurrence.
            firings.fire((p, true), &t, &old_rel_of, &mut |inst| {
                inst.head(&mut head);
                candidates.push(self, inst.head_pred(), &head);
            });
        }
        let over = candidates.into_over();
        for tuples in over.values() {
            ctrs.overdeleted += tuples.len() as u64;
        }

        // ---- phase 2+3: rederive survivors, fire insertions, propagate ----
        // `cur` is the running underestimate: old \ over, grown to the
        // new fixpoint; `rank` holds the rank of every tuple of `cur` when
        // the component has ranks and stays empty when it has none.
        let mut cur: BTreeMap<Pred, Relation> = members
            .iter()
            .map(|&m| {
                let mut rel = self.extension(m).clone();
                rel.remove_all(over[&m].iter());
                (m, rel)
            })
            .collect();
        let mut rank: BTreeMap<Pred, Ranks> = members
            .iter()
            .filter_map(|&m| {
                let mut map = self.ranks.get(&m)?.clone();
                for t in over[&m].iter() {
                    map.remove(t);
                }
                Some((m, map))
            })
            .collect();
        let mut pending = Pending::default();
        // New-state view: members from `cur`, everything else final.
        let new_rel_of =
            |_: usize, p: Pred| -> &Relation { cur.get(&p).unwrap_or_else(|| new_outside(p)) };
        // Rederive scan: each overdeleted tuple, head-bound, against the
        // underestimate. Tuples whose support arrives later are caught by
        // propagation. The first rule with an instance gives the lowest rank
        // among its instances; no instance ranks below 0.
        for &m in members {
            for t in over[&m].iter() {
                let derived = firings.find_head(m, &new_rel_of, |f| {
                    let mut lowest: Option<i64> = None;
                    let _ = f.run(t, &new_rel_of, &mut |inst| {
                        let r = inst.rank(&rank, &mut body);
                        lowest = Some(lowest.map_or(r, |l| l.min(r)));
                        if r == 0 {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    });
                    lowest
                });
                if let Some(r) = derived {
                    pending.queue((m, t.clone()), r);
                }
            }
        }
        // Enabling deltas: insertions on positive occurrences, deletions on
        // negated ones, joined against the new state.
        for &q in &unit.inputs {
            for (kind, positive) in [(EventKind::Ins, true), (EventKind::Del, false)] {
                for t in events.relation(kind, q).iter() {
                    firings.fire((q, positive), t, &new_rel_of, &mut |inst| {
                        pending.derive(inst, &cur, &rank);
                    });
                }
            }
        }
        // ---- events: what the fixpoint added and did not hold, what was
        // overdeleted and not put back ----
        let mut changed: BTreeSet<Pred> = BTreeSet::new();
        let mut added = |p: Pred, t: &Tuple| {
            if !self.extension(p).contains(t) {
                events.insert(GroundEvent::ins(p, t.clone()));
                changed.insert(p);
                ctrs.inserted += 1;
            }
        };
        firings.propagate(&mut cur, &mut rank, pending, &new_outside, &mut added);
        let mut rederived = 0;
        for &m in members {
            for t in over[&m].iter() {
                if cur[&m].contains(t) {
                    rederived += 1;
                } else {
                    events.insert(GroundEvent::del(m, t.clone()));
                    changed.insert(m);
                }
            }
        }
        ctrs.rederived += rederived;

        // ---- staged ranks and extensions ----
        if ranked {
            // A rederived tuple may have a new rank and nothing else.
            rank.retain(|m, _| !over[m].is_empty() || changed.contains(m));
        } else if rederived > 0 && may_rank {
            // The first evidence that the component has alternative
            // derivations: from here on it pays to know which of them
            // cannot run through a cycle. The fixpoint from nothing ranks
            // every tuple with the round that derives it.
            let (fixpoint, ranks, _) = Firings::new(program, members).fixpoint(&new_outside, true);
            debug_assert_eq!(fixpoint, cur);
            rank = ranks;
            ctrs.ranks_built += rank.values().map(|map| map.len() as u64).sum::<u64>();
        }
        staged.new_ranks.append(&mut rank);
        for m in changed {
            let rel = cur.remove(&m).expect("member relation");
            staged.new_exts.insert(m, rel);
        }
    }

    /// Checks the rank invariant against the state `db` the engine
    /// describes: every recursive component has ranks for all of its
    /// members or for none, a rank map has the keys of its extension, and
    /// every tuple has a rule instance true in the state whose member body
    /// tuples all have a strictly lower rank. For tests.
    #[doc(hidden)]
    pub fn check_ranks(&self, db: &Database) -> std::result::Result<(), String> {
        let program = db.program();
        let state = StateView::new(db, &self.exts);
        let rel_of = |_: usize, p: Pred| state.relation(p);
        for unit in self.units.iter().filter(|u| u.strategy == Strategy::DRed) {
            let ranked = unit.preds.iter().filter(|p| self.ranks.contains_key(p));
            match ranked.count() {
                0 => continue,
                n if n == unit.preds.len() => {}
                n => return Err(format!("{n} of {:?} have ranks", unit.preds)),
            }
            let mut firings = Firings::new(program, &unit.preds);
            let mut body = Vec::new();
            for &m in &unit.preds {
                let keys = self.ranks[&m].iter().map(|(t, _)| t);
                if !keys.eq(self.extension(m).iter()) {
                    return Err(format!("ranks of {m} are not over its extension"));
                }
                for (t, r) in self.ranks[&m].iter() {
                    let witnessed = firings.find_head(m, &rel_of, |f| {
                        f.run(t, &rel_of, &mut |inst| {
                            if inst.rank(&self.ranks, &mut body) <= *r {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(())
                            }
                        })
                        .is_break()
                        .then_some(())
                    });
                    if witnessed.is_none() {
                        return Err(format!("{m}{t} has no instance below its rank {r}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-pass counters for the `upward.maintain` span of a commit and the
/// `upward.apply` span of a read.
#[derive(Default)]
struct DredCounters {
    counting: u64,
    dred: u64,
    /// Units run past: nothing in their bodies changed.
    skipped: u64,
    /// Units outside a read's cone.
    pruned: u64,
    checked: u64,
    overdeleted: u64,
    rederived: u64,
    inserted: u64,
    ranks_built: u64,
}

/// An event kind as the dependency graph's sign of a change: an
/// insertion grows the predicate's extension, a deletion shrinks it.
fn change(kind: EventKind) -> EdgeSign {
    match kind {
        EventKind::Ins => EdgeSign::Positive,
        EventKind::Del => EdgeSign::Negative,
    }
}

/// Adds one rule's finite-difference contribution to `delta`.
///
/// For each body position `i` whose predicate changed, evaluates
/// `L₁ⁿ … Lᵢ₋₁ⁿ ΔLᵢ Lᵢ₊₁ᵒ … Lₙᵒ`, seeding bindings from each delta
/// tuple with its sign (positive occurrence: +1 insert / −1 delete;
/// negative occurrence: signs flipped). `old_exts` holds the old
/// extension of every derived predicate; `new_exts` the new extension of
/// those that changed so far (dependency order guarantees lower strata
/// are final, and an absent entry means old == new).
fn rule_count_delta(
    rule: &Rule,
    db: &Database,
    new_db: &Database,
    events: &EventStore,
    old_exts: &Interpretation,
    new_exts: &BTreeMap<Pred, Relation>,
    delta: &mut HashMap<Tuple, i64>,
) {
    let program = db.program();
    let mut head = Vec::new();
    for (i, lit) in rule.body.iter().enumerate() {
        let p = lit.atom.pred;
        let ins = events.relation(EventKind::Ins, p);
        let del = events.relation(EventKind::Del, p);
        if ins.is_empty() && del.is_empty() {
            continue;
        }
        let ins_sign = if lit.positive { 1 } else { -1 };
        let signed = ins
            .iter()
            .map(|t| (t, ins_sign))
            .chain(del.iter().map(|t| (t, -ins_sign)));

        // Remaining literals: before `i` on the new side, after it on the
        // old side.
        let rel_of = |j: usize, q: Pred| -> &Relation {
            let new_side = j < i;
            if program.is_derived(q) {
                let changed = if new_side { new_exts.get(&q) } else { None };
                changed.unwrap_or_else(|| old_exts.relation(q))
            } else if new_side {
                new_db.relation(q)
            } else {
                db.relation(q)
            }
        };

        // Every seed binds the variables of `lit`: one firing per
        // occurrence.
        let mut firing: Option<Firing> = None;
        for (t, sign) in signed {
            let f = firing.get_or_insert_with(|| Firing::new(rule, i, &BTreeSet::new(), &rel_of));
            let _ = f.run(t, &rel_of, &mut |inst| {
                inst.head(&mut head);
                *delta.entry(Tuple::from(&head[..])).or_insert(0) += sign;
                ControlFlow::Continue(())
            });
        }
    }
}

/// The occurrence of a [`Firing`] seeded by a head tuple — the
/// keep-check and the rederive check — rather than by a body literal.
const HEAD: usize = usize::MAX;

/// A recursive component's rules with their firings, one per (rule
/// position, occurrence) that fired, each compiled on first use for the
/// relation sizes of that moment.
struct Firings<'p> {
    rules: Vec<&'p Rule>,
    members: BTreeSet<Pred>,
    compiled: HashMap<(usize, usize), Firing>,
    /// The fixpoint loop's rounds.
    trace: ComponentTrace,
}

impl<'p> Firings<'p> {
    fn new(program: &'p dduf_datalog::schema::Program, members: &[Pred]) -> Firings<'p> {
        Firings {
            rules: members.iter().flat_map(|&m| program.rules_for(m)).collect(),
            members: members.iter().copied().collect(),
            compiled: HashMap::new(),
            trace: ComponentTrace::default(),
        }
    }

    /// The firing of rule `ri` at occurrence `occ`, compiled for the
    /// relation sizes `rel_of` gives if it is the first.
    fn get<'a>(
        &mut self,
        (ri, occ): (usize, usize),
        rel_of: &dyn Fn(usize, Pred) -> &'a Relation,
    ) -> &mut Firing {
        let (rule, members) = (self.rules[ri], &self.members);
        self.compiled
            .entry((ri, occ))
            .or_insert_with(|| Firing::new(rule, occ, members, rel_of))
    }

    /// The first `Some` that `f` makes of the head-seeded firing of a
    /// rule of `p`, in rule order.
    fn find_head<'a, T>(
        &mut self,
        p: Pred,
        rel_of: &dyn Fn(usize, Pred) -> &'a Relation,
        mut f: impl FnMut(&mut Firing) -> Option<T>,
    ) -> Option<T> {
        for ri in 0..self.rules.len() {
            if self.rules[ri].head.pred != p {
                continue;
            }
            if let Some(found) = f(self.get((ri, HEAD), rel_of)) {
                return Some(found);
            }
        }
        None
    }

    /// Fires every rule from `t` at each of its body literals over `p`
    /// with sign `positive`, handing every instance true in the state
    /// `rel_of` describes to `visit`: the one occurrence walk, for the
    /// transaction's deltas, the overdelete cascade and the fixpoint loop.
    fn fire<'a>(
        &mut self,
        (p, positive): (Pred, bool),
        t: &[Const],
        rel_of: &dyn Fn(usize, Pred) -> &'a Relation,
        visit: &mut dyn FnMut(Instance<'_>),
    ) {
        for ri in 0..self.rules.len() {
            for i in 0..self.rules[ri].body.len() {
                let lit = &self.rules[ri].body[i];
                if lit.positive == positive && lit.atom.pred == p {
                    let _ = self.get((ri, i), rel_of).run(t, rel_of, &mut |inst| {
                        visit(inst);
                        ControlFlow::Continue(())
                    });
                }
            }
        }
    }

    /// The component's fixpoint loop. Round by round, adds what is
    /// pending to `cur` — and its rank to `rank`, unless `rank` is empty
    /// — telling `added`, then fires every tuple of the round from its
    /// positive occurrences against `cur` and the state `outside`
    /// describes, queueing each head `cur` lacks with `1 + max` rank of
    /// the instance's member body tuples, the lowest over the instances
    /// that queued it. Applying a whole round before firing any of it keeps
    /// `cur` unchanged while its lazy join indexes are hot, and an
    /// instance over several tuples of one round still fires.
    fn propagate<'a>(
        &mut self,
        cur: &mut BTreeMap<Pred, Relation>,
        rank: &mut BTreeMap<Pred, Ranks>,
        mut pending: Pending,
        outside: &dyn Fn(Pred) -> &'a Relation,
        added: &mut dyn FnMut(Pred, &Tuple),
    ) {
        while !pending.next.is_empty() {
            let round = std::mem::take(&mut pending.next);
            pending.derivations = 0;
            for ((p, t), r) in &round {
                cur.get_mut(p).expect("member").insert(t.clone());
                if let Some(map) = rank.get_mut(p) {
                    map.insert(t.clone(), *r);
                }
                added(*p, t);
            }
            let rel_of =
                |_: usize, p: Pred| -> &Relation { cur.get(&p).unwrap_or_else(|| outside(p)) };
            for (p, t) in round.keys() {
                self.fire((*p, true), t, &rel_of, &mut |inst| {
                    pending.derive(inst, cur, rank);
                });
            }
            self.trace
                .push_round(pending.derivations, pending.next.len() as u64);
        }
    }

    /// The component's fixpoint in the state `outside` describes, from
    /// nothing: the heads of its exit rules — the rules without a member
    /// literal — at rank 0, then [`propagate`](Self::propagate). With
    /// `ranked`, every tuple comes with its rank, which is the round that
    /// derives it. Also returns the evaluation's trace.
    fn fixpoint<'a>(
        &mut self,
        outside: &dyn Fn(Pred) -> &'a Relation,
        ranked: bool,
    ) -> (
        BTreeMap<Pred, Relation>,
        BTreeMap<Pred, Ranks>,
        ComponentTrace,
    ) {
        let mut pending = Pending::default();
        let is_member = |l: &Literal| self.members.contains(&l.atom.pred);
        for rule in self.rules.iter().filter(|r| !r.body.iter().any(is_member)) {
            let size_of = |k: usize| outside(rule.body[k].atom.pred).len();
            let plan = JoinPlan::compile_sized(&rule.body, &BTreeSet::new(), None, &size_of);
            let rel_of = |k: usize| outside(rule.body[k].atom.pred);
            for h in eval_heads(&plan, &rule.head.terms, &rel_of, &mut self.trace.stats) {
                pending.queue((rule.head.pred, h), 0);
            }
            self.trace.plans += 1;
        }
        self.trace
            .push_round(pending.derivations, pending.next.len() as u64);
        let members = self.members.iter().copied();
        let mut cur = members.clone().map(|m| (m, Relation::new())).collect();
        let mut rank = members
            .filter(|_| ranked)
            .map(|m| (m, Ranks::default()))
            .collect();
        self.propagate(&mut cur, &mut rank, pending, outside, &mut |_, _| {});
        let mut trace = std::mem::take(&mut self.trace);
        trace.plans += self.compiled.len() as u64;
        for firing in self.compiled.values() {
            trace.stats.merge(firing.stats);
        }
        (cur, rank, trace)
    }
}

/// What a component's fixpoint loop adds in its next round: each tuple
/// with the rank the instance that produced it gives it, the lowest if
/// several did.
#[derive(Default)]
struct Pending {
    next: BTreeMap<(Pred, Tuple), i64>,
    /// Instances that queued a tuple since the round began, duplicates
    /// included.
    derivations: u64,
    /// Scratch for an instance's head and member body tuples.
    head: Vec<Const>,
    body: Vec<Const>,
}

impl Pending {
    /// Queues `key` with rank `r`, or lowers the rank it is queued with.
    fn queue(&mut self, key: (Pred, Tuple), r: i64) {
        self.derivations += 1;
        self.next
            .entry(key)
            .and_modify(|queued| *queued = r.min(*queued))
            .or_insert(r);
    }

    /// Queues the head of `inst` unless `cur` holds it, with the rank the
    /// instance gives it over `rank`.
    fn derive(
        &mut self,
        inst: Instance<'_>,
        cur: &BTreeMap<Pred, Relation>,
        rank: &BTreeMap<Pred, Ranks>,
    ) {
        inst.head(&mut self.head);
        if !cur[&inst.head_pred()].contains(&self.head) {
            let r = inst.rank(rank, &mut self.body);
            self.queue((inst.head_pred(), Tuple::from(&self.head[..])), r);
        }
    }
}

/// One compiled firing of a rule: the join of its body from a seed — a
/// tuple at one body occurrence, which the join then skips, or a head
/// tuple ([`HEAD`]) — as a kernel plan over a slot row. Every firing of
/// one occurrence seeds the same variables, so it compiles once per
/// [`Firings`]; its plan orders equally bound literals by the sizes the
/// relations have at that first firing.
struct Firing {
    /// Body position and predicate of each literal the plan joins.
    lits: Vec<(usize, Pred)>,
    plan: JoinPlan,
    seed: Pattern,
    shape: Shape,
    row: Vec<Const>,
    /// Join work of every run so far.
    stats: JoinStats,
}

/// What an instance of a firing's rule is read for: its head and its
/// positive member literals (the seeded occurrence included).
struct Shape {
    head_pred: Pred,
    head: Pattern,
    members: Vec<(Pred, Pattern)>,
}

impl Firing {
    fn new<'a>(
        rule: &Rule,
        occ: usize,
        members: &BTreeSet<Pred>,
        rel_of: &dyn Fn(usize, Pred) -> &'a Relation,
    ) -> Firing {
        let seed_terms = match occ {
            HEAD => &rule.head.terms,
            i => &rule.body[i].atom.terms,
        };
        let bound = seed_terms.iter().filter_map(|t| t.as_var()).collect();
        let lits: Vec<(usize, &Literal)> = rule
            .body
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != occ)
            .collect();
        let body: Vec<&Literal> = lits.iter().map(|&(_, l)| l).collect();
        let size_of = |k: usize| rel_of(lits[k].0, body[k].atom.pred).len();
        let plan = JoinPlan::compile_sized(&body, &bound, None, &size_of);
        let member = |l: &&Literal| l.positive && members.contains(&l.atom.pred);
        let shape = Shape {
            head_pred: rule.head.pred,
            head: plan.project(&rule.head.terms),
            members: (rule.body.iter().filter(member))
                .map(|l| (l.atom.pred, plan.project(&l.atom.terms)))
                .collect(),
        };
        Firing {
            lits: lits.iter().map(|&(j, l)| (j, l.atom.pred)).collect(),
            seed: plan.seed(seed_terms),
            row: plan.row(),
            plan,
            shape,
            stats: JoinStats::default(),
        }
    }

    /// Fires from `t` in the state `rel_of` describes (by body position
    /// and predicate), handing every instance to `visit` until it breaks;
    /// returns whether it did.
    fn run<'a>(
        &mut self,
        t: &[Const],
        rel_of: &dyn Fn(usize, Pred) -> &'a Relation,
        visit: &mut dyn FnMut(Instance<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let Firing {
            lits,
            plan,
            seed,
            shape,
            row,
            stats,
        } = self;
        if !seed.bind(t, row) {
            return ControlFlow::Continue(());
        }
        let rel_of = |k: usize| rel_of(lits[k].0, lits[k].1);
        plan.run(&rel_of, row, stats, &mut |row| {
            visit(Instance { shape, row })
        })
    }
}

/// One instance of a firing's rule: a solution row.
#[derive(Clone, Copy)]
struct Instance<'f> {
    shape: &'f Shape,
    row: &'f [Const],
}

impl Instance<'_> {
    fn head_pred(&self) -> Pred {
        self.shape.head_pred
    }

    /// The head tuple, into `out`.
    fn head(&self, out: &mut Vec<Const>) {
        self.shape.head.ground(self.row, out);
    }

    /// Whether `ok` holds of every member body tuple, with its rank in
    /// `ranks` (which must rank every member; none at all when it ranks
    /// no predicate). `buf` is scratch.
    fn members_all(
        &self,
        ranks: &BTreeMap<Pred, Ranks>,
        buf: &mut Vec<Const>,
        mut ok: impl FnMut(Pred, &[Const], i64) -> bool,
    ) -> bool {
        self.shape.members.iter().all(|(q, pattern)| {
            let Some(map) = ranks.get(q) else {
                return true;
            };
            pattern.ground(self.row, buf);
            let r = *map
                .get(buf)
                .expect("every member tuple of the state is ranked");
            ok(*q, buf, r)
        })
    }

    /// The rank the instance gives its head: one more than the highest
    /// rank among its member body tuples, 0 for a member-free rule (and
    /// throughout a component that has no ranks).
    fn rank(&self, ranks: &BTreeMap<Pred, Ranks>, buf: &mut Vec<Const>) -> i64 {
        let mut rank = 0;
        self.members_all(ranks, buf, |_, _, r| {
            rank = rank.max(r + 1);
            true
        });
        rank
    }
}

/// Phase 1's working set: the old tuples a breaking firing reached, each
/// queued once and popped in ascending rank (every rank is 0 while the
/// component has none). One map per member holds every tuple ever queued
/// with whether its check kept it, so queueing, the keep-check's question
/// and keeping each search it once. A candidate counts as overdeleted from
/// the moment it is queued — whatever the keep-check of a popped candidate
/// asks about has a lower rank than anything still queued, so it cannot
/// tell — until its own check keeps it.
struct Candidates {
    seen: BTreeMap<Pred, Runs<bool>>,
    queue: BinaryHeap<Reverse<(i64, Pred, Tuple)>>,
}

impl Candidates {
    fn new(members: &[Pred]) -> Candidates {
        Candidates {
            seen: members.iter().map(|&m| (m, Runs::default())).collect(),
            queue: BinaryHeap::new(),
        }
    }

    /// Queues the head `t` of an instance true in the old state unless it
    /// was queued before, in one search of `seen`; a tuple is allocated
    /// only then. The old extension is the old state's fixpoint, so it
    /// holds `t`.
    fn push(&mut self, engine: &MaintenanceEngine, p: Pred, t: &[Const]) {
        debug_assert!(engine.extension(p).contains(t), "{p}{t:?} is not old");
        let seen = self.seen.get_mut(&p).expect("member head");
        if let Some(t) = seen.insert_new(t, false) {
            let rank = engine.rank(p, &t).unwrap_or(0);
            self.queue.push(Reverse((rank, p, t)));
        }
    }

    fn pop(&mut self) -> Option<(i64, Pred, Tuple)> {
        self.queue.pop().map(|Reverse(candidate)| candidate)
    }

    /// Whether `t` is queued and not kept.
    fn overdeleted(&self, p: Pred, t: &[Const]) -> bool {
        self.seen[&p].get(t) == Some(&false)
    }

    fn keep(&mut self, p: Pred, t: &[Const]) {
        let seen = self.seen.get_mut(&p).expect("member");
        *seen.get_mut(t).expect("a popped candidate was queued") = true;
    }

    /// The overdeleted tuples of each member, ascending.
    fn into_over(self) -> BTreeMap<Pred, Vec<Tuple>> {
        let over = |seen: Runs<bool>| -> Vec<Tuple> {
            let over = seen.iter().filter(|(_, kept)| !kept);
            over.map(|(t, _)| t.clone()).collect()
        };
        self.seen
            .into_iter()
            .map(|(m, seen)| (m, over(seen)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upward::semantic;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;
    use dduf_datalog::storage::tuple::syms;

    /// Drives `txns` through a fresh engine, checking every step against
    /// the semantic oracle (the read's events, the commit's events AND the
    /// maintained extensions), at the end returning the engine for
    /// further assertions.
    fn check_against_semantic(src: &str, txns: &[&str]) -> (Database, MaintenanceEngine) {
        let mut db = parse_database(src).unwrap();
        let mut old = materialize(&db).unwrap();
        let mut engine = MaintenanceEngine::new(&db).unwrap();
        for (step, t) in txns.iter().enumerate() {
            let txn = Transaction::parse(&db, t).unwrap();
            let expected = semantic::interpret(&db, &old, &txn).unwrap();
            let read = engine.interpret_for(&db, &txn, None).unwrap();
            assert_eq!(read, expected, "step {step}: {t} (read)");
            let got = engine.apply(&db, &txn).unwrap();
            assert_eq!(got, expected, "step {step}: {t}");
            db = txn.apply(&db);
            old = materialize(&db).unwrap();
            if let Err(broken) = engine.check_ranks(&db) {
                panic!("step {step}: {t}: {broken}");
            }
            for (pred, _role) in db.program().predicates() {
                if db.program().is_derived(pred) {
                    assert_eq!(
                        engine.extension(pred),
                        old.relation(pred),
                        "step {step}: stale extension for {pred}"
                    );
                    for tup in old.relation(pred).iter() {
                        assert!(
                            engine.count(pred, tup) > 0,
                            "step {step}: zero count for live {pred}{tup}"
                        );
                    }
                }
            }
        }
        (db, engine)
    }

    /// [`check_against_semantic`] on one transaction, returning what a
    /// read of it on the fresh engine answers.
    fn read_once(src: &str, txn: &str) -> UpwardResult {
        check_against_semantic(src, &[txn]);
        let db = parse_database(src).unwrap();
        let engine = MaintenanceEngine::new(&db).unwrap();
        let txn = Transaction::parse(&db, txn).unwrap();
        engine.interpret_for(&db, &txn, None).unwrap()
    }

    #[test]
    fn example_4_1() {
        let res = read_once("q(a). q(b). r(b). p(X) :- q(X), not r(X).", "-r(b).");
        assert_eq!(res.derived.len(), 1);
        assert!(res
            .derived
            .contains(&GroundEvent::ins(Pred::new("p", 1), syms(&["b"]))));
    }

    #[test]
    fn insertion_through_negation() {
        // +works(dolors) deletes unemp(dolors) and raises nothing else.
        let res = read_once(
            "la(dolors). u_benefit(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
            "+works(dolors).",
        );
        assert!(res
            .derived
            .contains(&GroundEvent::del(Pred::new("unemp", 1), syms(&["dolors"]))));
    }

    #[test]
    fn constraint_violation_propagates() {
        let res = read_once(
            "la(dolors). u_benefit(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
            "-u_benefit(dolors).",
        );
        assert!(res
            .derived
            .contains(&GroundEvent::ins(Pred::new("ic1", 0), syms(&[]))));
        assert!(res
            .derived
            .contains(&GroundEvent::ins(Pred::new("ic", 0), syms(&[]))));
    }

    #[test]
    fn multi_rule_view_needs_all_supports_broken() {
        // v(X) :- a(X).  v(X) :- b(X).  Deleting a(k) alone does not delete
        // v(k) while b(k) still holds.
        let res = read_once("a(k). b(k). v(X) :- a(X). v(X) :- b(X).", "-a(k).");
        assert!(res.derived.is_empty());
        let res = read_once("a(k). v(X) :- a(X). v(X) :- b(X).", "-a(k).");
        assert!(res
            .derived
            .contains(&GroundEvent::del(Pred::new("v", 1), syms(&["k"]))));
    }

    #[test]
    fn recursive_component_incremental() {
        let res = read_once(
            "e(a, b). e(b, c).
             tc(X, Y) :- e(X, Y).
             tc(X, Y) :- e(X, Z), tc(Z, Y).",
            "+e(c, d). -e(a, b).",
        );
        let ins = res.derived.relation(EventKind::Ins, Pred::new("tc", 2));
        let del = res.derived.relation(EventKind::Del, Pred::new("tc", 2));
        // gains: (c,d), (b,d); loses: (a,b), (a,c) — and (a,d) never existed.
        assert!(ins.contains(&syms(&["c", "d"])));
        assert!(ins.contains(&syms(&["b", "d"])));
        assert_eq!(ins.len(), 2);
        assert!(del.contains(&syms(&["a", "b"])));
        assert!(del.contains(&syms(&["a", "c"])));
        assert_eq!(del.len(), 2);
    }

    #[test]
    fn mixed_recursive_and_nonrecursive_strata() {
        let res = read_once(
            "e(a, b). node(a). node(b). node(c).
             tc(X, Y) :- e(X, Y).
             tc(X, Y) :- e(X, Z), tc(Z, Y).
             isolated(X) :- node(X), not reaches(X).
             reaches(X) :- tc(X, _).",
            "+e(b, c).",
        );
        assert!(res
            .derived
            .contains(&GroundEvent::del(Pred::new("isolated", 1), syms(&["b"]))));
    }

    #[test]
    fn simultaneous_insert_and_delete_on_same_view() {
        let res = read_once("q(a). r(a). q(b). p(X) :- q(X), not r(X).", "-r(a). +r(b).");
        assert!(res
            .derived
            .contains(&GroundEvent::ins(Pred::new("p", 1), syms(&["a"]))));
        assert!(res
            .derived
            .contains(&GroundEvent::del(Pred::new("p", 1), syms(&["b"]))));
    }

    #[test]
    fn constant_head_rules() {
        // any_unemp is a 0-ary-style flag via a constant head argument.
        let res = read_once(
            "la(dolors).
             alarm(red) :- la(X), not works(X).",
            "+works(dolors).",
        );
        assert!(res
            .derived
            .contains(&GroundEvent::del(Pred::new("alarm", 1), syms(&["red"]))));
        let res = read_once(
            "la(dolors). works(dolors).
             alarm(red) :- la(X), not works(X).",
            "-works(dolors).",
        );
        assert!(res
            .derived
            .contains(&GroundEvent::ins(Pred::new("alarm", 1), syms(&["red"]))));
    }

    #[test]
    fn repeated_predicate_in_body() {
        // sibling-style self join: e occurs twice in one body.
        let res = read_once(
            "e(a, b). e(a, c).
             sib(X, Y) :- e(Z, X), e(Z, Y).",
            "+e(a, d).",
        );
        let ins = res.derived.relation(EventKind::Ins, Pred::new("sib", 2));
        // New pairs involving d: (b,d),(c,d),(d,b),(d,c),(d,d).
        assert_eq!(ins.len(), 5);
    }

    #[test]
    fn two_argument_join_views() {
        let res = read_once(
            "emp(john, sales). dept(sales, bcn).
             emp_city(E, C) :- emp(E, D), dept(D, C).",
            "+emp(mary, sales). +dept(hr, madrid).",
        );
        let ins = res
            .derived
            .relation(EventKind::Ins, Pred::new("emp_city", 2));
        assert!(ins.contains(&syms(&["mary", "bcn"])));
        assert_eq!(ins.len(), 1); // hr has no employees yet
    }

    #[test]
    fn counting_strata_match_semantic() {
        // Example 4.1; negation with a constraint; layered views;
        // simultaneous mixed updates across two strata.
        let cases: [(&str, &[&str]); 4] = [
            (
                "q(a). q(b). r(b). p(X) :- q(X), not r(X).",
                &["-r(b).", "+r(a).", "-q(a)."],
            ),
            (
                "la(dolors). la(joan). works(joan). u_benefit(dolors).
                 unemp(X) :- la(X), not works(X).
                 :- unemp(X), not u_benefit(X).",
                &[
                    "+works(dolors).",
                    "-works(dolors).",
                    "+la(maria). +u_benefit(maria).",
                    "-works(joan).",
                ],
            ),
            (
                "b(x). b(y). r(y).
                 v1(X) :- b(X), not r(X).
                 v2(X) :- v1(X).
                 v3(X) :- v2(X), b(X).",
                &["-r(y).", "+r(x).", "-b(x).", "+b(z)."],
            ),
            (
                "q(a). r(a). q(b). s(b).
                 p(X) :- q(X), not r(X).
                 w(X) :- p(X), s(X).",
                &["-r(a). +s(a). +q(c). +s(c)."],
            ),
        ];
        for (src, txns) in cases {
            check_against_semantic(src, txns);
        }
    }

    #[test]
    fn multi_support_deletion_needs_no_recheck() {
        // v(k) has two supports; deleting one leaves count 1 (no event),
        // deleting both drops it to 0 (event).
        let v = Pred::new("v", 1);
        let src = "a(k). b(k). v(X) :- a(X). v(X) :- b(X).";
        let (_, fresh) = check_against_semantic(src, &[]);
        assert_eq!(fresh.count(v, &syms(&["k"])), 2);
        let (_, one_left) = check_against_semantic(src, &["-a(k)."]);
        assert_eq!(one_left.count(v, &syms(&["k"])), 1);
        let (_, none_left) = check_against_semantic(src, &["-a(k).", "-b(k)."]);
        assert_eq!(none_left.count(v, &syms(&["k"])), 0);
    }

    #[test]
    fn join_counts_multiply() {
        // Two employees derive city_has(bcn) twice.
        let (_, engine) = check_against_semantic(
            "emp(john, sales). emp(mary, sales). dept(sales, bcn).
             city_has(C) :- emp(E, D), dept(D, C).",
            &[],
        );
        assert_eq!(engine.count(Pred::new("city_has", 1), &syms(&["bcn"])), 2);
    }

    #[test]
    fn strategy_selection_matrix() {
        let db = parse_database(
            "e(a, b). v(X) :- e(X, Y).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
        )
        .unwrap();
        let engine = MaintenanceEngine::new(&db).unwrap();
        assert_eq!(engine.strategy(Pred::new("v", 1)), Some(Strategy::Counting));
        assert_eq!(engine.strategy(Pred::new("tc", 2)), Some(Strategy::DRed));
        assert_eq!(engine.strategy(Pred::new("e", 2)), None);
    }

    #[test]
    fn transitive_closure_chain_deletion() {
        // Cutting b→c severs everything a/b can reach past b.
        check_against_semantic(
            "e(a, b). e(b, c). e(c, d).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            &["-e(b, c).", "+e(b, c).", "-e(a, b). -e(c, d).", "+e(d, a)."],
        );
    }

    #[test]
    fn alternative_path_survives_deletion() {
        // Two routes a→c; deleting one leaves tc(a, c) derivable — the
        // rederivation pass must resurrect the overdeleted tuple.
        let (_, engine) = check_against_semantic(
            "e(a, b). e(b, c). e(a, c).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            &["-e(b, c)."],
        );
        assert_eq!(engine.count(Pred::new("tc", 2), &syms(&["a", "c"])), 1);
    }

    #[test]
    fn cycle_collapse_needs_fixpoint_overdeletion() {
        // A cycle supports itself; only the full overdelete-then-rederive
        // discovers that cutting one edge kills the whole loop's closure.
        check_against_semantic(
            "e(a, b). e(b, c). e(c, a).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            &["-e(c, a).", "+e(c, a). -e(a, b)."],
        );
    }

    #[test]
    fn mutual_recursion_component() {
        check_against_semantic(
            "z(zero). s(zero, one). s(one, two). s(two, three).
             even(X) :- z(X).
             even(X) :- s(Y, X), odd(Y).
             odd(X) :- s(Y, X), even(Y).",
            &["-s(one, two).", "+s(one, two).", "-z(zero)."],
        );
    }

    #[test]
    fn recursion_below_counting_views() {
        // A counting stratum consumes a DRed stratum (and negation).
        check_against_semantic(
            "e(a, b). e(b, c). blocked(c).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).
             reach_ok(X, Y) :- tc(X, Y), not blocked(Y).",
            &["-e(b, c).", "+e(c, d). +e(b, c).", "-blocked(c). -e(a, b)."],
        );
    }

    #[test]
    fn counting_above_and_below_recursion() {
        // base → counting view → recursive closure over it → counting.
        check_against_semantic(
            "raw(a, b). raw(b, c). ok(a). ok(b). ok(c).
             edge(X, Y) :- raw(X, Y), ok(X).
             path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y).
             sink(Y) :- path(X, Y), not raw(Y, X).",
            &[
                "-raw(b, c).",
                "+raw(c, a).",
                "-ok(a).",
                "+ok(a). +raw(b, c).",
            ],
        );
    }

    #[test]
    fn enabling_negation_on_recursive_stratum() {
        // Deleting a blocker *enables* recursive derivations.
        check_against_semantic(
            "e(a, b). e(b, c). bad(b).
             good(X, Y) :- e(X, Y), not bad(X).
             tc(X, Y) :- good(X, Y). tc(X, Y) :- good(X, Z), tc(Z, Y).",
            &["-bad(b).", "+bad(a)."],
        );
    }

    #[test]
    fn mixed_transaction_insert_and_delete() {
        check_against_semantic(
            "e(a, b). e(b, c). e(c, d).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            &["-e(b, c). +e(b, d). +e(d, c)."],
        );
    }

    /// A diamond `w0 → {w1, w2} → w3` beside the case's own edges, in the
    /// same component, and the two transactions that cut and restore one
    /// side of it: the cut re-derives what the other side still supports,
    /// which is what makes the engine rank the component, so the
    /// transactions that follow run rank-pruned.
    const DIAMOND: &str = "e(w0, w1). e(w0, w2). e(w1, w3). e(w2, w3).";
    const RANK_UP: [&str; 2] = ["-e(w1, w3).", "+e(w1, w3)."];

    /// [`check_against_semantic`] over `RANK_UP` and then `txns`, with
    /// the ranks of `pred` asserted absent before and present after the
    /// warm-up.
    fn check_ranked(src: &str, pred: Pred, txns: &[&str]) -> (Database, MaintenanceEngine) {
        let src = format!("{DIAMOND}\n{src}");
        let (_, cold) = check_against_semantic(&src, &[]);
        assert!(
            !cold.ranks.contains_key(&pred),
            "ranked before any evidence"
        );
        let (_, warm) = check_against_semantic(&src, &RANK_UP);
        assert!(warm.ranks.contains_key(&pred), "the warm-up built no ranks");
        let all: Vec<&str> = RANK_UP.iter().chain(txns).copied().collect();
        check_against_semantic(&src, &all)
    }

    const TC: &str = "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).";

    #[test]
    fn ranks_are_built_by_the_first_rederivation_and_then_prune() {
        let tc = Pred::new("tc", 2);
        let (_, engine) = check_ranked(TC, tc, &[]);
        // Built from the state without w1 → w3, then maintained: the
        // restored tc(w1, w3) is an insertion by a member-free rule.
        let rank = |x, y| engine.rank(tc, &syms(&[x, y]));
        assert_eq!(rank("w0", "w1"), Some(0));
        assert_eq!(rank("w0", "w3"), Some(1));
        assert_eq!(rank("w1", "w3"), Some(0));
        // The same cut again keeps tc(w0, w3): it has w2, one rank below.
        let (_, report) = dduf_obs::capture(|| check_ranked(TC, tc, &["-e(w1, w3)."]));
        let total = |name| report.total("upward.maintain", name);
        // Both replays of the first cut: tc(w1, w3) and tc(w0, w3) go and
        // one comes back; the ranked third cut checks both and deletes one.
        assert_eq!(
            (total("overdeleted"), total("rederived")),
            (2 + 2 + 1, 1 + 1)
        );
        assert_eq!(total("checked"), 2);
    }

    #[test]
    fn chain_closure_never_builds_ranks() {
        let (_, engine) = check_against_semantic(
            &format!("e(a, b). e(b, c). e(c, d). e(d, f). {TC}"),
            &["-e(b, c).", "+e(b, c).", "-e(a, b). -e(d, f).", "+e(d, f)."],
        );
        assert!(engine.ranks.is_empty(), "nothing was ever re-derived");
    }

    #[test]
    fn cutting_the_lowest_bridge_into_a_cycle_reranks_the_cycle() {
        // Two ways from the source into the cycle a → b → c → a: the edge
        // r → a, and the detour r → x → y → b, which ranks b no lower than
        // the cycle does. Cutting r → a must take the whole cycle out —
        // no tuple of it has a derivation below its own rank — and put it
        // back off the detour: no events, new ranks.
        let reach = Pred::new("reach", 1);
        let src = "src(r). src(w0).
             e(r, a). e(a, b). e(b, c). e(c, a). e(r, x). e(x, y). e(y, b).
             reach(X) :- src(X). reach(Y) :- reach(X), e(X, Y).";
        let (_, before) = check_ranked(src, reach, &[]);
        let (_, after) = check_ranked(src, reach, &["-e(r, a)."]);
        assert_eq!(before.extension(reach), after.extension(reach));
        let ranks = |engine: &MaintenanceEngine| {
            ["a", "b", "c", "y"].map(|n| engine.rank(reach, &syms(&[n])).unwrap())
        };
        assert_eq!(ranks(&before), [1, 2, 3, 2]);
        assert_eq!(ranks(&after), [5, 3, 4, 2]);
    }

    #[test]
    fn ranked_cycle_collapses_when_its_only_outside_support_goes() {
        // The case a plain "has another derivation" test gets wrong: every
        // tuple of the cycle has one, through the cycle. Its rank is no
        // lower, so it does not count.
        let tc = Pred::new("tc", 2);
        let (_, engine) = check_ranked(
            &format!("e(a, b). e(b, c). e(c, a). e(r, a). {TC}"),
            tc,
            &["-e(r, a).", "+e(r, a). -e(c, a).", "+e(c, a). -e(a, b)."],
        );
        assert_eq!(engine.count(tc, &syms(&["r", "b"])), 0);
        let reach = Pred::new("reach", 1);
        let (_, engine) = check_ranked(
            "src(r). src(w0). e(r, a). e(a, b). e(b, a).
             reach(X) :- src(X). reach(Y) :- reach(X), e(X, Y).",
            reach,
            &["-e(r, a)."],
        );
        assert_eq!(engine.extension(reach).len(), 5, "r and the diamond");
    }

    #[test]
    fn ranked_mutual_recursion() {
        check_ranked(
            "z(w0). z(zero). s(zero, one). s(one, two). s(two, three). s(zero, two).
             even(X) :- z(X).
             even(Y) :- e(X, Y), odd(X).
             odd(Y) :- e(X, Y), even(X).
             even(X) :- s(Y, X), odd(Y).
             odd(X) :- s(Y, X), even(Y).",
            Pred::new("odd", 1),
            &[
                "-s(one, two).",
                "+s(one, two).",
                "-s(zero, two).",
                "-z(zero).",
            ],
        );
    }

    #[test]
    fn ranked_nonlinear_closure() {
        check_ranked(
            "e(a, b). e(b, c). e(c, d). e(a, c). e(d, a).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- tc(X, Z), tc(Z, Y).",
            Pred::new("tc", 2),
            &["-e(a, c).", "-e(d, a).", "+e(d, b). -e(b, c).", "-e(a, b)."],
        );
    }

    #[test]
    fn ranked_transaction_deletes_and_inserts_in_one_component() {
        check_ranked(
            &format!("e(a, b). e(b, c). e(c, d). e(a, d). {TC}"),
            Pred::new("tc", 2),
            &[
                "-e(b, c). +e(b, d). +e(d, c).",
                "-e(a, d). +e(d, a).",
                "-e(w0, w2). +e(w3, w0). -e(a, b).",
            ],
        );
    }

    #[test]
    fn interpret_stages_without_mutating() {
        let db = parse_database(
            "e(a, b). e(b, c).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
        )
        .unwrap();
        let engine = MaintenanceEngine::new(&db).unwrap();
        let txn = Transaction::parse(&db, "-e(a, b).").unwrap();
        let before = engine.tuple_count();
        let (res, staged) = engine.interpret(&db, &txn).unwrap();
        assert!(!res.derived.is_empty());
        assert!(staged.new_exts.contains_key(&Pred::new("tc", 2)));
        assert_eq!(engine.tuple_count(), before, "interpret must not mutate");
        let mut engine2 = engine.clone();
        engine2.commit_staged(staged);
        assert!(engine2.tuple_count() < before);
    }

    /// A read whose pass rederives on an engine without ranks runs plain
    /// DRed and builds none: the engine is left as it was, and the answer
    /// is the oracle's. The same transaction committed does rank.
    #[test]
    fn a_read_that_rederives_builds_no_ranks() {
        let tc = Pred::new("tc", 2);
        let (db, engine) = check_against_semantic(&format!("{DIAMOND}\n{TC}"), &[]);
        let before = engine.clone();
        let txn = Transaction::parse(&db, RANK_UP[0]).unwrap();
        let (got, report) = dduf_obs::capture(|| engine.interpret_for(&db, &txn, None).unwrap());
        let oracle = semantic::interpret(&db, &materialize(&db).unwrap(), &txn).unwrap();
        assert_eq!(got, oracle);
        // tc(w1, w3) and tc(w0, w3) go, and tc(w0, w3) comes back via w2.
        let total = |name| report.total("upward.apply", name);
        assert_eq!((total("overdeleted"), total("rederived")), (2, 1));
        assert!(report
            .iter()
            .all(|(phase, _, _)| phase != "upward.maintain"));
        assert_eq!(engine.rank(tc, &syms(&["w0", "w3"])), None);
        assert!(engine.ranks.is_empty());
        assert_eq!(engine.interpretation(), before.interpretation());
        assert_eq!(engine.counts(), before.counts());
        let mut committed = engine.clone();
        committed.apply(&db, &txn).unwrap();
        assert_eq!(committed.rank(tc, &syms(&["w0", "w3"])), Some(1));
    }

    #[test]
    fn from_saved_round_trips() {
        let db = parse_database(
            "e(a, b). e(b, c). flag(b).
             v(X) :- e(X, Y), not flag(X).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
        )
        .unwrap();
        let engine = MaintenanceEngine::new(&db).unwrap();
        let dred_exts: BTreeMap<Pred, Relation> = engine
            .interpretation()
            .iter()
            .filter(|&(p, _)| engine.strategy(p) == Some(Strategy::DRed))
            .map(|(p, r)| (p, r.clone()))
            .collect();
        let restored =
            MaintenanceEngine::from_saved(&db, engine.counts().clone(), dred_exts).unwrap();
        assert_eq!(restored.interpretation(), engine.interpretation());
        assert_eq!(restored.counts(), engine.counts());
        // And the restored engine keeps maintaining correctly.
        let txn = Transaction::parse(&db, "-e(b, c).").unwrap();
        let mut a = engine.clone();
        let mut b = restored;
        assert_eq!(a.apply(&db, &txn).unwrap(), b.apply(&db, &txn).unwrap());
    }

    #[test]
    fn from_saved_rejects_mismatched_split() {
        let db =
            parse_database("e(a, b). tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).").unwrap();
        // tc is recursive, so counts for it cannot be loaded.
        let mut counts: BTreeMap<Pred, Counts> = BTreeMap::new();
        counts.insert(Pred::new("tc", 2), Counts::default());
        let err = MaintenanceEngine::from_saved(&db, counts, BTreeMap::new()).unwrap_err();
        assert!(err.to_string().contains("tc/2"), "{err}");
    }

    /// The engine's build and the oracle's materialization are two
    /// evaluators: linear, mutual and nonlinear recursion agree.
    #[test]
    fn interpretation_matches_materialize() {
        let sources = [
            "e(a, b). e(b, c). v(X) :- e(X, Y).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            "z(zero). s(zero, one). s(one, two). s(two, three). s(zero, two).
             even(X) :- z(X).
             even(X) :- s(Y, X), odd(Y).
             odd(X) :- s(Y, X), even(Y).",
            "e(a, b). e(b, c). e(c, d). e(a, c). e(d, a).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- tc(X, Z), tc(Z, Y).",
        ];
        for src in sources {
            let db = parse_database(src).unwrap();
            let old = materialize(&db).unwrap();
            let engine = MaintenanceEngine::new(&db).unwrap();
            assert_eq!(engine.interpretation(), &old, "{src}");
        }
    }

    #[test]
    fn noop_on_untouched_component() {
        // A transaction touching only `u` must not stage anything for tc.
        let db = parse_database(
            "e(a, b). f(x). u(X) :- f(X).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
        )
        .unwrap();
        let engine = MaintenanceEngine::new(&db).unwrap();
        let txn = Transaction::parse(&db, "+f(y).").unwrap();
        let (_, staged) = engine.interpret(&db, &txn).unwrap();
        assert!(!staged.new_exts.contains_key(&Pred::new("tc", 2)));
    }
}
