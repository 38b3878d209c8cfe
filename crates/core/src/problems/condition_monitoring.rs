//! §5.1.2 — Condition monitoring (upward).
//!
//! Changes induced on a monitored condition `Cond(x̄)` by a transaction:
//! the upward interpretation of `ins Cond(x̄)` (newly satisfied instances)
//! and `del Cond(x̄)` (no longer satisfied instances). The complementary
//! reading — the transaction does not affect the condition — is the
//! emptiness of both.

use crate::upward::UpwardResult;
use dduf_datalog::ast::Pred;
use dduf_datalog::schema::{DerivedRole, Role};
use dduf_datalog::storage::database::Database;
use dduf_datalog::storage::tuple::Tuple;
use dduf_events::event::EventKind;
use std::collections::BTreeMap;

/// Changes on monitored conditions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConditionChanges {
    /// Instances that satisfy the condition after the transaction but not
    /// before (`ins Cond`).
    pub activated: BTreeMap<Pred, Vec<Tuple>>,
    /// Instances that satisfied the condition before but not after
    /// (`del Cond`).
    pub deactivated: BTreeMap<Pred, Vec<Tuple>>,
}

impl ConditionChanges {
    /// True iff no monitored condition changed.
    pub fn is_empty(&self) -> bool {
        self.activated.values().all(Vec::is_empty) && self.deactivated.values().all(Vec::is_empty)
    }

    /// Total number of condition events.
    pub fn len(&self) -> usize {
        self.activated.values().map(Vec::len).sum::<usize>()
            + self.deactivated.values().map(Vec::len).sum::<usize>()
    }
}

/// Reads the changes on all `Cond`-role predicates (or an explicit
/// subset) off `up`: the upward interpretation of
/// `{ins Cond(x̄), del Cond(x̄)}`.
pub fn monitor(db: &Database, up: &UpwardResult, conditions: Option<&[Pred]>) -> ConditionChanges {
    let monitored: Vec<Pred> = match conditions {
        Some(preds) => preds.to_vec(),
        None => db.program().derived_with_role(DerivedRole::Cond),
    };
    let mut out = ConditionChanges::default();
    for pred in monitored {
        let ins: Vec<Tuple> = up
            .derived
            .relation(EventKind::Ins, pred)
            .iter()
            .cloned()
            .collect();
        let del: Vec<Tuple> = up
            .derived
            .relation(EventKind::Del, pred)
            .iter()
            .cloned()
            .collect();
        if !ins.is_empty() {
            out.activated.insert(pred, ins);
        }
        if !del.is_empty() {
            out.deactivated.insert(pred, del);
        }
    }
    out
}

/// The complementary problem: true iff the transaction behind `up` does
/// not induce any change on `cond` (upward interpretation of
/// `{¬ins Cond(x̄), ¬del Cond(x̄)}`).
pub fn unaffected(db: &Database, up: &UpwardResult, cond: Pred) -> bool {
    debug_assert!(matches!(
        db.program().role(cond),
        Some(Role::Derived(_)) | None
    ));
    monitor(db, up, Some(&[cond])).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;
    use crate::upward;
    use dduf_datalog::parser::parse_database;
    use dduf_datalog::storage::tuple::syms;

    fn db() -> Database {
        parse_database(
            "#cond needy/1.
             la(dolors). la(joan). works(joan).
             needy(X) :- la(X), not works(X).",
        )
        .unwrap()
    }

    fn interpret(db: &Database, txn: &str) -> UpwardResult {
        upward::interpret(db, &Transaction::parse(db, txn).unwrap()).unwrap()
    }

    #[test]
    fn activation_detected() {
        let db = db();
        let ch = monitor(&db, &interpret(&db, "+la(maria)."), None);
        assert_eq!(ch.len(), 1);
        assert_eq!(ch.activated[&Pred::new("needy", 1)], vec![syms(&["maria"])]);
    }

    #[test]
    fn deactivation_detected() {
        let db = db();
        let ch = monitor(&db, &interpret(&db, "+works(dolors)."), None);
        assert_eq!(
            ch.deactivated[&Pred::new("needy", 1)],
            vec![syms(&["dolors"])]
        );
        assert!(ch.activated.is_empty());
    }

    #[test]
    fn unaffected_complement() {
        let db = db();
        let needy = Pred::new("needy", 1);
        // joan already works; making her work "more" changes nothing.
        let up = interpret(&db, "+la(nuria). +works(nuria).");
        assert!(unaffected(&db, &up, needy));
        assert!(!unaffected(&db, &interpret(&db, "+la(pere)."), needy));
    }

    #[test]
    fn explicit_condition_subset() {
        let db = parse_database(
            "#cond c1/1. #cond c2/1.
             b(a).
             c1(X) :- b(X).
             c2(X) :- b(X).",
        )
        .unwrap();
        let ch = monitor(&db, &interpret(&db, "+b(z)."), Some(&[Pred::new("c1", 1)]));
        assert!(ch.activated.contains_key(&Pred::new("c1", 1)));
        assert!(!ch.activated.contains_key(&Pred::new("c2", 1)));
    }
}
