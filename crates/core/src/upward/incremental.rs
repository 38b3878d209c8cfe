//! The incremental upward engine: delta-driven evaluation of the event
//! rules, stratum by stratum.
//!
//! For every derived predicate `P`, in dependency (stratification) order:
//!
//! * **Insertions** — evaluate the disjunctands of the simplified
//!   insertion event rule that contain at least one positive event literal
//!   (the others cannot derive anything new; see
//!   [`dduf_events::simplify::for_insertion`]), joining old literals
//!   against the old state and event literals against the events computed
//!   so far (base events from the transaction, derived events from lower
//!   strata).
//! * **Deletions** — a tuple can only leave `P` if one of its supports is
//!   *broken*: for each defining rule and each body literal, join the rest
//!   of the old body with the literal's breaking event (`del Q` for a
//!   positive occurrence of `Q`, `ins Q` for a negative one). Candidates
//!   that held before and for which no transition-rule disjunct holds are
//!   the deletions (`del P(x̄) ← P°(x̄) ∧ ¬Pⁿ(x̄)`).
//!
//! Recursive components fall back to recomputing the component under the
//! new state with the semi-naive engine and diffing (see DESIGN.md §4.1);
//! everything below and above the component stays incremental.
//!
//! An upward *problem* asks for some events only (`ιIc` for integrity
//! checking, §5.1.1). Given those goals the engine first decides off the
//! dependency graph, by sign, whether one of them can follow from the
//! transaction at all, and otherwise evaluates only the components a goal
//! predicate depends on — never a subset of the event *kinds* of a
//! component it does evaluate (DESIGN.md §4.1 has the reason).

use crate::error::{Error, Result};
use crate::transaction::Transaction;
use crate::upward::UpwardResult;
use dduf_datalog::analysis::cost::{self, CostModel};
use dduf_datalog::ast::{Atom, Pred, Term, Var};
use dduf_datalog::depgraph::{DepGraph, EdgeSign};
use dduf_datalog::eval::join::{ground_terms, match_tuple, Bindings, JoinStats};
use dduf_datalog::eval::plan::{eval_plan_stats, IndexTracker, JoinPlan};
use dduf_datalog::eval::{component_label, record_component_trace, seminaive, Interpretation};
use dduf_datalog::storage::database::Database;
use dduf_datalog::storage::relation::Relation;
use dduf_datalog::storage::tuple::Tuple;
use dduf_datalog::stratify::Stratification;
use dduf_events::event::{EventKind, GroundEvent};
use dduf_events::formula::TrLit;
use dduf_events::simplify::{for_insertion, simplify_transition};
use dduf_events::store::EventStore;
use dduf_events::transition::TransitionRule;
use std::collections::BTreeSet;

/// Resolves the relation backing a transition literal: old literals query
/// the old state, event literals query the accumulated events.
fn trlit_relation<'a>(
    lit: &TrLit,
    db: &'a Database,
    old: &'a Interpretation,
    events: &'a EventStore,
) -> &'a Relation {
    match lit {
        TrLit::Old(l) => {
            if db.program().is_derived(l.atom.pred) {
                old.relation(l.atom.pred)
            } else {
                db.relation(l.atom.pred)
            }
        }
        TrLit::Event { event, .. } => events.relation(event.kind, event.pred()),
    }
}

/// Unifies a (possibly non-variable) rule head against a concrete tuple.
fn unify_head(head: &Atom, tuple: &Tuple) -> Option<Bindings> {
    match_tuple(&head.terms, tuple, &Bindings::new())
}

/// The dedup key for composite-index accounting on transition literals:
/// within one predicate's event-rule evaluation, each (source, predicate)
/// pair names exactly one relation (old state, insertion events, or
/// deletion events).
fn trlit_key(lit: &TrLit) -> (u8, Pred) {
    match lit {
        TrLit::Old(l) => (0, l.atom.pred),
        TrLit::Event { event, .. } => match event.kind {
            EventKind::Ins => (1, event.pred()),
            EventKind::Del => (2, event.pred()),
        },
    }
}

/// Compiled join plans for one predicate's transition rule, built once
/// per (pred, transaction) before any conjunct is evaluated.
struct TrPlans {
    /// Per branch, per insertion-relevant conjunct: the extended literal
    /// list (rule (6) conjoins ¬P°(head)) and its plan.
    ins: Vec<Vec<(Vec<TrLit>, JoinPlan)>>,
    /// Per branch, per disjunctand: the `Pⁿ` satisfiability plan, with
    /// the head's variables seed-bound (they are fixed by unification
    /// against the candidate tuple). `None` = the disjunct contains a
    /// positive event literal over an empty event relation and is
    /// unsatisfiable for this predicate — skipped without compiling.
    holds: Vec<Vec<Option<JoinPlan>>>,
}

impl TrPlans {
    fn compile(
        tr: &TransitionRule,
        db: &Database,
        old: &Interpretation,
        events: &EventStore,
    ) -> TrPlans {
        let ins = tr
            .branches
            .iter()
            .map(|branch| {
                for_insertion(&branch.dnf)
                    .0
                    .iter()
                    .filter_map(|conj| {
                        let mut lits = conj.0.clone();
                        lits.push(TrLit::old_neg(branch.head.clone()));
                        // A positive event literal over an empty event
                        // relation kills the disjunct — don't even
                        // compile it (the body's events are complete
                        // before the predicate is evaluated, so the
                        // compile count stays deterministic).
                        if lits.iter().any(|l| {
                            l.is_positive_event() && trlit_relation(l, db, old, events).is_empty()
                        }) {
                            return None;
                        }
                        // Event relations hold the transaction's (few)
                        // events; pin the first positive one as the scan
                        // head, exactly like a semi-naive delta.
                        let pinned = lits.iter().position(|l| l.is_positive_event());
                        let plan = JoinPlan::compile(&lits, &BTreeSet::new(), pinned);
                        Some((lits, plan))
                    })
                    .collect()
            })
            .collect();
        let holds = tr
            .branches
            .iter()
            .map(|branch| {
                let bound: BTreeSet<Var> = branch
                    .head
                    .terms
                    .iter()
                    .filter_map(|t| match t {
                        Term::Var(v) => Some(*v),
                        Term::Const(_) => None,
                    })
                    .collect();
                branch
                    .dnf
                    .0
                    .iter()
                    .map(|conj| {
                        // Same dead-disjunct filter as the insertion
                        // plans: a positive event literal over an empty
                        // event relation makes the disjunct
                        // unsatisfiable for every candidate.
                        let live = conj.0.iter().all(|l| {
                            !l.is_positive_event() || !trlit_relation(l, db, old, events).is_empty()
                        });
                        live.then(|| JoinPlan::compile(&conj.0, &bound, None))
                    })
                    .collect()
            })
            .collect();
        TrPlans { ins, holds }
    }

    fn compiled(&self) -> u64 {
        (self.ins.iter().map(Vec::len).sum::<usize>()
            + self
                .holds
                .iter()
                .map(|b| b.iter().flatten().count())
                .sum::<usize>()) as u64
    }
}

/// Pre-builds the composite indexes a plan declares, resolving each
/// signature's literal to its backing relation and asking the cost model
/// whether the build amortizes: old-state relations are gated through
/// their static size class, event relations (which exist only within the
/// transaction) through the purely dynamic gate. `driving` is how many
/// probe seeds are about to hit the plan.
#[allow(clippy::too_many_arguments)]
fn prebuild_sigs(
    plan: &JoinPlan,
    lits: &[TrLit],
    db: &Database,
    old: &Interpretation,
    events: &EventStore,
    model: &CostModel,
    driving: usize,
    indexes: &mut IndexTracker<(u8, Pred)>,
) {
    for (lit, cols) in plan.sigs() {
        let rel = trlit_relation(&lits[*lit], db, old, events);
        let worthwhile = match &lits[*lit] {
            TrLit::Old(l) => model.index_worthwhile(l.atom.pred, rel.len(), driving),
            TrLit::Event { .. } => cost::index_worthwhile_dynamic(rel.len(), driving),
        };
        if worthwhile {
            indexes.request(trlit_key(&lits[*lit]), rel, cols);
        }
    }
}

/// True iff `Pⁿ(tuple)` holds: some disjunctand of the transition rule is
/// satisfiable with the head unified to `tuple`, old literals evaluated
/// against `old` and event literals against `events`. This is the
/// executable form of the transition rule of §3.2 and is exposed for
/// verification: `Pⁿ(c̄)` must coincide with membership of `c̄` in the
/// materialized new state (property-tested in `tests/transition_semantics.rs`).
///
/// This entry point is the verification oracle, so it evaluates with the
/// reference loop, independent of the plan compiler the engine below
/// runs on.
pub fn new_state_holds(
    tr: &TransitionRule,
    tuple: &Tuple,
    db: &Database,
    old: &Interpretation,
    events: &EventStore,
) -> bool {
    tr.branches.iter().any(|branch| {
        unify_head(&branch.head, tuple).is_some_and(|seed| {
            branch.dnf.0.iter().any(|conj| {
                let rel_of =
                    |i: usize| -> &Relation { trlit_relation(&conj.0[i], db, old, events) };
                !dduf_datalog::eval::join::eval_conjunct(&conj.0, &rel_of, &seed).is_empty()
            })
        })
    })
}

/// The engine's `Pⁿ(tuple)`: the same question as [`new_state_holds`],
/// answered through the compiled `holds` plans and accumulating join work
/// into `stats`.
#[allow(clippy::too_many_arguments)]
fn new_state_holds_planned(
    tr: &TransitionRule,
    plans: &TrPlans,
    tuple: &Tuple,
    db: &Database,
    old: &Interpretation,
    events: &EventStore,
    stats: &mut JoinStats,
    indexes: &IndexTracker<(u8, Pred)>,
) -> bool {
    for (bi, branch) in tr.branches.iter().enumerate() {
        let Some(seed) = unify_head(&branch.head, tuple) else {
            continue;
        };
        for (ci, conj) in branch.dnf.0.iter().enumerate() {
            // Dead disjunct (empty positive event relation):
            // unsatisfiable, skip. Index prebuilds happened once in
            // `deletions`, before the candidate loop.
            let Some(pl) = &plans.holds[bi][ci] else {
                continue;
            };
            let rel_of = |i: usize| -> &Relation { trlit_relation(&conj.0[i], db, old, events) };
            let indexed_of =
                |i: usize, cols: &[usize]| indexes.contains(&trlit_key(&conj.0[i]), cols);
            if !eval_plan_stats(pl, &conj.0, &rel_of, &indexed_of, &seed, stats).is_empty() {
                return true;
            }
        }
    }
    false
}

/// Computes the induced insertions of a non-recursive derived predicate,
/// accumulating join work into `stats`.
#[allow(clippy::too_many_arguments)]
fn insertions(
    tr: &TransitionRule,
    plans: &TrPlans,
    db: &Database,
    old: &Interpretation,
    events: &EventStore,
    model: &CostModel,
    stats: &mut JoinStats,
    indexes: &mut IndexTracker<(u8, Pred)>,
) -> Relation {
    let mut out = Relation::new();
    for (branch, conjuncts) in tr.branches.iter().zip(&plans.ins) {
        // Rule (6) conjoined ¬P°(head) to each insertion-relevant
        // disjunctand, and disjunctands with a positive event literal
        // over an empty event relation were dropped, at compile time.
        for (lits, pl) in conjuncts {
            let rel_of = |i: usize| -> &Relation { trlit_relation(&lits[i], db, old, events) };
            // Driving cardinality: the pinned event relation the plan
            // scans first — each of its tuples seeds one pass over the
            // later probes.
            let driving = pl.steps().first().map_or(0, |s| rel_of(s.lit()).len());
            prebuild_sigs(pl, lits, db, old, events, model, driving, indexes);
            let indexed_of =
                |i: usize, cols: &[usize]| indexes.contains(&trlit_key(&lits[i]), cols);
            for b in eval_plan_stats(pl, lits, &rel_of, &indexed_of, &Bindings::new(), stats) {
                let t = ground_terms(&branch.head.terms, &b)
                    .expect("allowedness grounds transition heads");
                out.insert(t);
            }
        }
    }
    out
}

/// Computes the induced deletions of a non-recursive derived predicate,
/// accumulating join work into `stats` and per-(rule, literal) breaking
/// plans into `compiled`.
#[allow(clippy::too_many_arguments)]
fn deletions(
    pred: Pred,
    tr: &TransitionRule,
    plans: &TrPlans,
    db: &Database,
    old: &Interpretation,
    events: &EventStore,
    model: &CostModel,
    stats: &mut JoinStats,
    indexes: &mut IndexTracker<(u8, Pred)>,
    compiled: &mut u64,
) -> Relation {
    // Candidate tuples: supports broken by some event.
    let mut candidates = Relation::new();
    for rule in db.program().rules_for(pred) {
        for (i, lit) in rule.body.iter().enumerate() {
            let breaking = if lit.positive {
                EventKind::Del
            } else {
                EventKind::Ins
            };
            if events.relation(breaking, lit.atom.pred).is_empty() {
                continue;
            }
            let lits: Vec<TrLit> = rule
                .body
                .iter()
                .enumerate()
                .map(|(j, l)| {
                    if j == i {
                        TrLit::event(breaking, l.atom.clone())
                    } else {
                        TrLit::Old(l.clone())
                    }
                })
                .collect();
            let rel_of = |k: usize| -> &Relation { trlit_relation(&lits[k], db, old, events) };
            // The breaking event is this conjunct's delta: pin it first,
            // exactly like a semi-naive delta occurrence. It also drives
            // the probes — one pass per breaking event.
            *compiled += 1;
            let driving = events.relation(breaking, lit.atom.pred).len();
            let pl = JoinPlan::compile(&lits, &BTreeSet::new(), Some(i));
            prebuild_sigs(&pl, &lits, db, old, events, model, driving, indexes);
            let indexed_of =
                |k: usize, cols: &[usize]| indexes.contains(&trlit_key(&lits[k]), cols);
            for b in eval_plan_stats(&pl, &lits, &rel_of, &indexed_of, &Bindings::new(), stats) {
                if let Some(t) = ground_terms(&rule.head.terms, &b) {
                    candidates.insert(t);
                }
            }
        }
    }
    // Rule (7): del P = P° ∩ candidates, minus tuples still derivable.
    // The `Pⁿ` plans run once per candidate, so their index prebuilds are
    // hoisted here — one pass, driven by the candidate count — instead of
    // being re-requested inside every `new_state_holds_planned` call.
    if !candidates.is_empty() {
        for (bi, branch) in tr.branches.iter().enumerate() {
            for (ci, conj) in branch.dnf.0.iter().enumerate() {
                if let Some(pl) = &plans.holds[bi][ci] {
                    prebuild_sigs(
                        pl,
                        &conj.0,
                        db,
                        old,
                        events,
                        model,
                        candidates.len(),
                        indexes,
                    );
                }
            }
        }
    }
    let old_rel = old.relation(pred);
    candidates
        .iter()
        .filter(|t| {
            old_rel.contains(t)
                && !new_state_holds_planned(tr, plans, t, db, old, events, stats, indexes)
        })
        .cloned()
        .collect()
}

/// Upward-interprets `txn` incrementally: every induced event.
pub fn interpret(db: &Database, old: &Interpretation, txn: &Transaction) -> Result<UpwardResult> {
    interpret_for(db, old, txn, None)
}

/// What the component loop did with the components, for `upward.apply`.
#[derive(Default)]
struct Tally {
    skipped: u64,
    pruned: u64,
    recomputed: u64,
    event_ruled: u64,
}

/// An event kind as the dependency graph's sign of a change: an
/// insertion grows the predicate's extension, a deletion shrinks it.
fn change(kind: EventKind) -> EdgeSign {
    match kind {
        EventKind::Ins => EdgeSign::Positive,
        EventKind::Del => EdgeSign::Negative,
    }
}

/// Upward-interprets `txn` incrementally: every induced event when
/// `goals` is `None`, and otherwise the upward problem `goals` states —
/// the result is exact on the goal events and a subset of the full
/// interpretation elsewhere (`upward::interpret_for` has the contract;
/// DESIGN.md §4.1 the argument).
pub(crate) fn interpret_for(
    db: &Database,
    old: &Interpretation,
    txn: &Transaction,
    goals: Option<&BTreeSet<(Pred, EventKind)>>,
) -> Result<UpwardResult> {
    let tracing = dduf_obs::enabled();
    let timer = dduf_obs::timer();
    let (effective, _noops) = txn.normalize(db);
    let base = effective.events();

    // The possibility test, signed: an insertion can only come from an
    // insertion below a positive literal or a deletion below a negated
    // one, a deletion the other way round. When no goal event is among
    // what the base events can cause, the answer is known without
    // evaluating anything. The same closure, unsigned, is the cone: the
    // goal predicates and everything they depend on.
    let mut possible = !base.is_empty();
    let mut graph = None;
    let mut cone: Option<BTreeSet<Pred>> = None;
    if let (Some(goals), true) = (goals, possible) {
        let causes = graph
            .insert(DepGraph::build(db.program()))
            .signed_closure(goals.iter().map(|&(p, kind)| (p, change(kind))));
        possible = [EventKind::Ins, EventKind::Del].into_iter().any(|kind| {
            base.predicates(kind)
                .any(|p| causes.contains(&(p, change(kind))))
        });
        cone = Some(causes.into_iter().map(|(p, _)| p).collect());
    }
    let (derived, tally) = if possible {
        propagate(db, old, &effective, cone.as_ref(), graph)?
    } else {
        (EventStore::new(), Tally::default())
    };

    if tracing {
        let derived_ins = derived.iter().filter(|e| e.kind == EventKind::Ins).count() as u64;
        let mut counters = vec![
            ("base_events", base.len() as u64),
            ("derived_ins", derived_ins),
            ("derived_del", derived.len() as u64 - derived_ins),
            ("components_skipped", tally.skipped),
            ("components_recomputed", tally.recomputed),
            ("components_event_ruled", tally.event_ruled),
        ];
        if goals.is_some() {
            counters.push(("components_pruned", tally.pruned));
            counters.push(("decided_statically", u64::from(!possible)));
        }
        dduf_obs::record_timed("upward.apply", "incremental", &counters, timer.elapsed_us());
    }

    Ok(UpwardResult {
        base: base.clone(),
        derived,
    })
}

/// The component loop: evaluates, in dependency order, the components
/// `effective` affects — of those with a member in `cone`, when there is
/// one — and returns the induced derived events.
///
/// The cone is closed under dependency, so a component inside it reads
/// only components inside it: each one evaluated sees the events it would
/// see with no cone at all.
fn propagate(
    db: &Database,
    old: &Interpretation,
    effective: &Transaction,
    cone: Option<&BTreeSet<Pred>>,
    mut graph: Option<DepGraph>,
) -> Result<(EventStore, Tally)> {
    let program = db.program();
    let strat = Stratification::compute(program)
        .map_err(|e| Error::from(dduf_datalog::error::Error::from(e)))?;

    let tracing = dduf_obs::enabled();
    let mut events = effective.events().clone();
    let mut derived_events = EventStore::new();
    let mut new_interp = Interpretation::default();
    // Built by the first component that needs them: the new base state
    // (and the dependency graph) by a recursive one, the cost model —
    // static bounds over the program plus the old base state, consulted
    // by every event-rule index gate — by an event-ruled one.
    let mut new_db: Option<Database> = None;
    let mut cost_model: Option<CostModel> = None;

    // Predicates whose extension may have changed: base predicates with
    // events, extended with every derived predicate that produced events.
    // A component none of whose body predicates is touched cannot change
    // and is skipped wholesale.
    let mut touched: BTreeSet<Pred> = effective.events().iter().map(|e| e.pred).collect();
    // Components actually evaluated (their entry in `new_interp` is
    // authoritative, even when empty).
    let mut evaluated: BTreeSet<Pred> = BTreeSet::new();

    let mut tally = Tally::default();
    for component in strat.components() {
        if cone.is_some_and(|cone| !component.preds.iter().any(|p| cone.contains(p))) {
            tally.pruned += 1;
            continue; // nobody asked
        }
        let affected = component.preds.iter().any(|&p| {
            program
                .rules_for(p)
                .iter()
                .flat_map(|r| r.body.iter())
                .any(|lit| touched.contains(&lit.atom.pred))
        });
        if !affected {
            tally.skipped += 1;
            continue; // the old extension remains valid
        }
        // Per member predicate: its insertions, deletions and new extension.
        let changes: Vec<(Pred, Relation, Relation, Relation)> = if component.recursive {
            // Recompute under the new state and diff, after filling the
            // (unchanged) old extensions of skipped lower dependencies
            // into `new_interp`.
            tally.recomputed += 1;
            let new_db = new_db.get_or_insert_with(|| effective.apply(db));
            let graph = graph.get_or_insert_with(|| DepGraph::build(program));
            for &p in &component.preds {
                for dep in graph.reachable(p) {
                    if program.is_derived(dep)
                        && !component.preds.contains(&dep)
                        && !evaluated.contains(&dep)
                    {
                        new_interp.set(dep, old.relation(dep).clone());
                        evaluated.insert(dep);
                    }
                }
            }
            let (results, trace) = seminaive::eval_component(new_db, &new_interp, component);
            if tracing {
                record_component_trace(&component_label(&component.preds), &trace);
            }
            results
                .into_iter()
                .map(|(pred, new_rel)| {
                    let old_rel = old.relation(pred);
                    (
                        pred,
                        new_rel.difference(old_rel),
                        old_rel.difference(&new_rel),
                        new_rel,
                    )
                })
                .collect()
        } else {
            // A single non-recursive predicate: event-rule evaluation.
            tally.event_ruled += 1;
            let pred = component.preds[0];
            let cost_model = cost_model.get_or_insert_with(|| CostModel::from_database(db));
            let tr = simplify_transition(&TransitionRule::build(program, pred));
            let tr_plans = TrPlans::compile(&tr, db, old, &events);
            let mut stats = JoinStats::default();
            let mut indexes: IndexTracker<(u8, Pred)> = IndexTracker::new();
            let mut compiled = tr_plans.compiled();
            let ins = insertions(
                &tr,
                &tr_plans,
                db,
                old,
                &events,
                cost_model,
                &mut stats,
                &mut indexes,
            );
            let del = deletions(
                pred,
                &tr,
                &tr_plans,
                db,
                old,
                &events,
                cost_model,
                &mut stats,
                &mut indexes,
                &mut compiled,
            );
            if tracing {
                let label = pred.to_string();
                dduf_obs::record(
                    "upward.pred",
                    &label,
                    &[
                        ("ins", ins.len() as u64),
                        ("del", del.len() as u64),
                        ("probes", stats.probes),
                        ("matches", stats.matches),
                        ("indexed_probes", stats.indexed_probes),
                        ("scan_probes", stats.scan_probes),
                    ],
                );
                if compiled > 0 {
                    dduf_obs::record("plan.compile", &label, &[("compiled", compiled)]);
                }
                if indexes.count() > 0 {
                    dduf_obs::record(
                        "index.build",
                        &label,
                        &[("composite_built", indexes.count())],
                    );
                }
            }
            let mut new_rel = old.relation(pred).clone();
            new_rel.remove_all(del.iter());
            new_rel.merge(&ins);
            vec![(pred, ins, del, new_rel)]
        };
        for (pred, ins, del, new_rel) in changes {
            if !ins.is_empty() || !del.is_empty() {
                touched.insert(pred);
            }
            for (kind, tuples) in [(EventKind::Ins, ins), (EventKind::Del, del)] {
                for t in tuples.iter() {
                    let e = GroundEvent::new(kind, pred, t.clone());
                    events.insert(e.clone());
                    derived_events.insert(e);
                }
            }
            new_interp.set(pred, new_rel);
            evaluated.insert(pred);
        }
    }
    Ok((derived_events, tally))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upward::semantic;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;
    use dduf_datalog::storage::tuple::syms;

    fn check_against_semantic(src: &str, txn_src: &str) -> UpwardResult {
        let db = parse_database(src).unwrap();
        let old = materialize(&db).unwrap();
        let txn = Transaction::parse(&db, txn_src).unwrap();
        let inc = interpret(&db, &old, &txn).unwrap();
        let sem = semantic::interpret(&db, &old, &txn).unwrap();
        assert_eq!(inc, sem, "incremental vs semantic mismatch");
        inc
    }

    #[test]
    fn example_4_1() {
        let res = check_against_semantic("q(a). q(b). r(b). p(X) :- q(X), not r(X).", "-r(b).");
        assert_eq!(res.derived.len(), 1);
        assert!(res
            .derived
            .contains(&GroundEvent::ins(Pred::new("p", 1), syms(&["b"]))));
    }

    #[test]
    fn insertion_through_negation() {
        // +works(dolors) deletes unemp(dolors) and raises nothing else.
        let res = check_against_semantic(
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
        let res = check_against_semantic(
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
        let res = check_against_semantic("a(k). b(k). v(X) :- a(X). v(X) :- b(X).", "-a(k).");
        assert!(res.derived.is_empty());
        let res = check_against_semantic("a(k). v(X) :- a(X). v(X) :- b(X).", "-a(k).");
        assert!(res
            .derived
            .contains(&GroundEvent::del(Pred::new("v", 1), syms(&["k"]))));
    }

    #[test]
    fn recursive_component_incremental() {
        let res = check_against_semantic(
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
        let res = check_against_semantic(
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
        let res =
            check_against_semantic("q(a). r(a). q(b). p(X) :- q(X), not r(X).", "-r(a). +r(b).");
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
        let res = check_against_semantic(
            "la(dolors).
             alarm(red) :- la(X), not works(X).",
            "+works(dolors).",
        );
        assert!(res
            .derived
            .contains(&GroundEvent::del(Pred::new("alarm", 1), syms(&["red"]))));
        let res = check_against_semantic(
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
        let res = check_against_semantic(
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
        let res = check_against_semantic(
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
}
