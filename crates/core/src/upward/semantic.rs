//! The semantic (state-diff) upward oracle.
//!
//! Directly applies the event definitions (1)/(2) of §3.1: apply the
//! transaction, materialize the new state, and compute
//! `ins P = Pⁿ \ P°`, `del P = P° \ Pⁿ` for every derived predicate. This
//! is the specification itself — the maintenance engine is tested
//! against it. [`new_state_holds`] is the other half of the
//! specification: the transition rule of §3.2, evaluated literally.
//!
//! Join planning reaches [`interpret`] through the materialization call,
//! which compiles per-rule
//! [`JoinPlan`](dduf_datalog::eval::plan::JoinPlan)s, so the oracle needs
//! no plan wiring of its own.

use crate::error::Result;
use crate::transaction::Transaction;
use crate::upward::UpwardResult;
use dduf_datalog::eval::join::{eval_conjunct, match_tuple, Bindings};
use dduf_datalog::eval::{materialize, Interpretation};
use dduf_datalog::storage::database::Database;
use dduf_datalog::storage::relation::Relation;
use dduf_datalog::storage::tuple::Tuple;
use dduf_events::formula::TrLit;
use dduf_events::store::EventStore;
use dduf_events::transition::TransitionRule;

/// Upward-interprets `txn` by materializing the new state and diffing.
pub fn interpret(db: &Database, old: &Interpretation, txn: &Transaction) -> Result<UpwardResult> {
    let timer = dduf_obs::timer();
    let (effective, _noops) = txn.normalize(db);
    let new_db = effective.apply(db);
    let new = materialize(&new_db).map_err(crate::error::Error::from)?;
    let derived = diff_interpretations(db, old, &new);
    if dduf_obs::enabled() {
        let derived_ins = derived
            .iter()
            .filter(|e| e.kind == dduf_events::event::EventKind::Ins)
            .count() as u64;
        dduf_obs::record_timed(
            "upward.apply",
            "semantic",
            &[
                ("base_events", effective.events().len() as u64),
                ("derived_ins", derived_ins),
                ("derived_del", derived.len() as u64 - derived_ins),
            ],
            timer.elapsed_us(),
        );
    }
    Ok(UpwardResult {
        base: effective.events().clone(),
        derived,
    })
}

/// The events implied by two interpretations of the same program:
/// insertions are `new \ old`, deletions `old \ new`, per derived
/// predicate.
pub fn diff_interpretations(
    db: &Database,
    old: &Interpretation,
    new: &Interpretation,
) -> EventStore {
    let mut events = EventStore::new();
    let program = db.program();
    for (pred, _) in program.predicates().filter(|&(p, _)| program.is_derived(p)) {
        events.add_difference(pred, old.relation(pred), new.relation(pred));
    }
    events
}

/// True iff `Pⁿ(tuple)` holds: some disjunctand of the transition rule is
/// satisfiable with the head unified to `tuple`, old literals evaluated
/// against the old state (`db` and `old`) and event literals against
/// `events`. This is the executable form of the transition rule of §3.2,
/// for verification: `Pⁿ(c̄)` must coincide with membership of `c̄` in
/// the materialized new state (property-tested in
/// `tests/transition_semantics.rs`). It evaluates with the reference
/// loop, independent of the plan compiler every engine runs on.
pub fn new_state_holds(
    tr: &TransitionRule,
    tuple: &Tuple,
    db: &Database,
    old: &Interpretation,
    events: &EventStore,
) -> bool {
    tr.branches.iter().any(|branch| {
        match_tuple(&branch.head.terms, tuple, &Bindings::new()).is_some_and(|seed| {
            branch.dnf.0.iter().any(|conj| {
                let rel_of = |i: usize| trlit_relation(&conj.0[i], db, old, events);
                !eval_conjunct(&conj.0, &rel_of, &seed).is_empty()
            })
        })
    })
}

/// The relation backing a transition literal: old literals read the old
/// state, event literals the events.
fn trlit_relation<'a>(
    lit: &TrLit,
    db: &'a Database,
    old: &'a Interpretation,
    events: &'a EventStore,
) -> &'a Relation {
    match lit {
        TrLit::Old(l) if db.program().is_derived(l.atom.pred) => old.relation(l.atom.pred),
        TrLit::Old(l) => db.relation(l.atom.pred),
        TrLit::Event { event, .. } => events.relation(event.kind, event.pred()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::Pred;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;
    use dduf_datalog::storage::tuple::syms;
    use dduf_events::event::{EventKind, GroundEvent};

    #[test]
    fn deletion_induces_derived_deletion() {
        let db = parse_database("q(a). p(X) :- q(X).").unwrap();
        let old = materialize(&db).unwrap();
        let txn = Transaction::parse(&db, "-q(a).").unwrap();
        let res = interpret(&db, &old, &txn).unwrap();
        assert!(res
            .derived
            .contains(&GroundEvent::del(Pred::new("p", 1), syms(&["a"]))));
        assert_eq!(res.derived.len(), 1);
    }

    #[test]
    fn cascades_through_strata() {
        // Example 5.1 setup: deleting u_benefit(dolors) raises ic1 (and ic).
        let db = parse_database(
            "la(dolors). u_benefit(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        let txn = Transaction::parse(&db, "-u_benefit(dolors).").unwrap();
        let res = interpret(&db, &old, &txn).unwrap();
        assert!(res
            .derived
            .contains(&GroundEvent::ins(Pred::new("ic1", 0), syms(&[]))));
        assert!(res
            .derived
            .contains(&GroundEvent::ins(Pred::new("ic", 0), syms(&[]))));
        // unemp(dolors) held before and still holds: no event on it.
        assert!(res
            .derived
            .relation(EventKind::Ins, Pred::new("unemp", 1))
            .is_empty());
        assert!(res
            .derived
            .relation(EventKind::Del, Pred::new("unemp", 1))
            .is_empty());
    }

    #[test]
    fn recursive_views_diffed() {
        let db = parse_database(
            "e(a, b).
             tc(X, Y) :- e(X, Y).
             tc(X, Y) :- e(X, Z), tc(Z, Y).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        let txn = Transaction::parse(&db, "+e(b, c).").unwrap();
        let res = interpret(&db, &old, &txn).unwrap();
        let ins = res.derived.relation(EventKind::Ins, Pred::new("tc", 2));
        assert!(ins.contains(&syms(&["b", "c"])));
        assert!(ins.contains(&syms(&["a", "c"])));
        assert_eq!(ins.len(), 2);
    }
}
