//! §5.2.6 — Preventing condition activation (downward).
//!
//! Given a transaction `T`, find additional base updates guaranteeing that
//! no change on a monitored condition occurs during the transition: the
//! downward interpretation of `{T, ¬ins Cond(X̄)}` and/or
//! `{T, ¬del Cond(X̄)}` — "if we want to prevent all possible activations
//! of Cond, we have to take into account all possible values of X".

use crate::downward::{DownwardOptions, DownwardResult};
use crate::error::Result;
use crate::problems::side_effects;
use crate::transaction::Transaction;
use dduf_datalog::ast::{Atom, Pred, Term};
use dduf_datalog::eval::Interpretation;
use dduf_datalog::storage::database::Database;
use dduf_events::event::EventAtom;

/// Which condition transitions to block.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PreventKinds {
    /// Block activations (`¬ins Cond`).
    #[default]
    Activation,
    /// Block deactivations (`¬del Cond`).
    Deactivation,
    /// Block both.
    Both,
}

/// Prevents changes on `cond` under `txn`: downward `{T, ¬ev}` for the
/// selected event kinds, over all instances of the condition.
pub fn prevent_activation(
    db: &Database,
    old: &Interpretation,
    txn: &Transaction,
    cond: Pred,
    kinds: PreventKinds,
    opts: &DownwardOptions,
) -> Result<DownwardResult> {
    let vars: Vec<Term> = (0..cond.arity)
        .map(|i| Term::var(&format!("Vc{i}")))
        .collect();
    let atom = Atom {
        pred: cond,
        terms: vars,
        span: None,
    };
    let unwanted: Vec<EventAtom> = match kinds {
        PreventKinds::Activation => vec![EventAtom::ins(atom)],
        PreventKinds::Deactivation => vec![EventAtom::del(atom)],
        PreventKinds::Both => vec![EventAtom::ins(atom.clone()), EventAtom::del(atom)],
    };
    // Structurally identical to preventing side effects (§5.2.2); the
    // derived predicate merely plays the Cond role.
    side_effects::prevent(db, old, txn, &unwanted, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upward;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;

    fn db() -> (Database, Interpretation) {
        let db = parse_database(
            "#cond alert/1.
             stock(widget).
             alert(X) :- stock(X), low(X), not acked(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        (db, old)
    }

    #[test]
    fn activation_prevented_by_ack() {
        let (db, old) = db();
        let txn = Transaction::parse(&db, "+low(widget).").unwrap();
        let res = prevent_activation(
            &db,
            &old,
            &txn,
            Pred::new("alert", 1),
            PreventKinds::Activation,
            &DownwardOptions::default(),
        )
        .unwrap();
        assert!(!res.alternatives.is_empty());
        for alt in &res.alternatives {
            let t2 = alt.to_transaction(&db).unwrap();
            let fx = upward::interpret(&db, &t2).unwrap().derived;
            assert!(
                fx.iter().all(|e| e.pred != Pred::new("alert", 1)),
                "{alt} still changes alert"
            );
        }
        // One expected solution: +low(widget) together with +acked(widget).
        assert!(res
            .alternatives
            .iter()
            .any(|a| a.to_do.to_string().contains("+acked(widget)")));
    }

    #[test]
    fn both_directions_blocked() {
        let db = parse_database(
            "#cond alert/1.
             stock(widget). low(widget).
             alert(X) :- stock(X), low(X), not acked(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        // T would deactivate alert(widget): prevent that too.
        let txn = Transaction::parse(&db, "+acked(widget).").unwrap();
        let res = prevent_activation(
            &db,
            &old,
            &txn,
            Pred::new("alert", 1),
            PreventKinds::Both,
            &DownwardOptions::default(),
        )
        .unwrap();
        // No way to keep alert(widget) active while acknowledging it —
        // unless another base change re-derives it, which is impossible.
        assert!(res.alternatives.is_empty());
    }

    #[test]
    fn unrelated_transaction_passes() {
        let (db, old) = db();
        let txn = Transaction::parse(&db, "+stock(gadget).").unwrap();
        let res = prevent_activation(
            &db,
            &old,
            &txn,
            Pred::new("alert", 1),
            PreventKinds::Both,
            &DownwardOptions::default(),
        )
        .unwrap();
        assert!(res
            .alternatives
            .iter()
            .any(|a| a.to_do.to_string() == "{+stock(gadget)}"));
    }
}
