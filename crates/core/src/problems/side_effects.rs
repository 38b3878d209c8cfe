//! §5.2.2 — Preventing side effects (downward).
//!
//! A *side effect* is a non-desired induced update on a derived predicate.
//! Given a transaction `T` and an event `ev` to avoid, the problem is to
//! find base fact updates which, appended to `T`, guarantee `ev` is not
//! induced: the downward interpretation of `{T, ¬ev}`.

use crate::downward::{self, DownwardOptions, DownwardResult, Request};
use crate::error::Result;
use crate::transaction::Transaction;
use dduf_datalog::eval::Interpretation;
use dduf_datalog::storage::database::Database;
use dduf_events::event::EventAtom;

/// Resulting transactions that perform `txn` while not inducing any of
/// `unwanted`: the downward interpretation of `{T, ¬ev₁, ..., ¬evₖ}`.
/// Events may be non-ground — a non-ground `ev` prevents *every* instance
/// ("we have to take into account all possible values of X").
pub fn prevent(
    db: &Database,
    old: &Interpretation,
    txn: &Transaction,
    unwanted: &[EventAtom],
    opts: &DownwardOptions,
) -> Result<DownwardResult> {
    let mut req = Request::new().with_transaction(txn);
    for ev in unwanted {
        req = req.prevent(ev.kind, ev.atom.clone());
    }
    downward::interpret_with(db, old, &req, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upward;
    use dduf_datalog::ast::{Atom, Const, Term};
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;
    use dduf_events::event::EventKind;

    fn employment() -> (Database, Interpretation) {
        let db = parse_database(
            "la(dolors). u_benefit(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        (db, old)
    }

    /// Example 5.3: prevent ins Unemp(Maria) under T = {ins La(Maria)} —
    /// the only resulting transaction is {ins La(Maria), ins Works(Maria)}.
    #[test]
    fn example_5_3_via_problem_api() {
        let (db, old) = employment();
        let txn = Transaction::parse(&db, "+la(maria).").unwrap();
        // First inspect: the side effect does occur without prevention.
        let fx = upward::interpret(&db, &txn).unwrap().derived;
        assert!(fx.iter().any(|e| e.to_string() == "+unemp(maria)"));

        let unwanted = [EventAtom::new(
            EventKind::Ins,
            Atom::ground("unemp", vec![Const::sym("maria")]),
        )];
        let res = prevent(&db, &old, &txn, &unwanted, &DownwardOptions::default()).unwrap();
        assert_eq!(res.alternatives.len(), 1);
        assert_eq!(
            res.alternatives[0].to_do.to_string(),
            "{+la(maria), +works(maria)}"
        );
    }

    #[test]
    fn prevention_verified_by_replay() {
        let (db, old) = employment();
        let txn = Transaction::parse(&db, "+la(maria).").unwrap();
        let unwanted = [EventAtom::new(
            EventKind::Ins,
            Atom::ground("unemp", vec![Const::sym("maria")]),
        )];
        let res = prevent(&db, &old, &txn, &unwanted, &DownwardOptions::default()).unwrap();
        for alt in &res.alternatives {
            let t2 = alt.to_transaction(&db).unwrap();
            let fx = upward::interpret(&db, &t2).unwrap().derived;
            assert!(
                !fx.iter().any(|e| e.to_string() == "+unemp(maria)"),
                "side effect not prevented by {alt}"
            );
        }
    }

    #[test]
    fn prevent_all_instances() {
        let (db, old) = employment();
        let txn = Transaction::parse(&db, "+la(maria). +la(pere).").unwrap();
        // Non-ground events: every instance of either side effect.
        let unemp = Atom::new("unemp", vec![Term::var("X")]);
        let unwanted = [EventAtom::ins(unemp.clone()), EventAtom::del(unemp)];
        let res = prevent(&db, &old, &txn, &unwanted, &DownwardOptions::default()).unwrap();
        // Every alternative must employ both maria and pere.
        assert!(!res.alternatives.is_empty());
        for alt in &res.alternatives {
            let shown = alt.to_do.to_string();
            assert!(shown.contains("+works(maria)"), "{shown}");
            assert!(shown.contains("+works(pere)"), "{shown}");
        }
    }

    #[test]
    fn unpreventable_conflict_yields_nothing() {
        // T deletes q(a); preventing del p(a) where p(X) :- q(X) and no
        // other rule can re-derive p(a) is impossible.
        let db = parse_database("q(a). p(X) :- q(X).").unwrap();
        let old = materialize(&db).unwrap();
        let txn = Transaction::parse(&db, "-q(a).").unwrap();
        let unwanted = [EventAtom::new(
            EventKind::Del,
            Atom::ground("p", vec![Const::sym("a")]),
        )];
        let res = prevent(&db, &old, &txn, &unwanted, &DownwardOptions::default()).unwrap();
        assert!(res.alternatives.is_empty());
    }
}
