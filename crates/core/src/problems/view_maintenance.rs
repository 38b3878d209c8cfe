//! §5.1.3 — Materialized view maintenance (upward).
//!
//! Given a transaction of base fact updates, incrementally determine the
//! changes needed to keep materialized view extensions up to date: the
//! upward interpretation of `ins View(x̄)` (tuples to insert into the
//! stored extension) and `del View(x̄)` (tuples to delete).

use crate::upward::UpwardResult;
use dduf_datalog::ast::Pred;
use dduf_datalog::schema::DerivedRole;
use dduf_datalog::storage::database::Database;
use dduf_events::event::{EventKind, GroundEvent};
use dduf_events::store::EventStore;

/// Report of one maintenance pass: what to apply to the stored extensions
/// of the `View`-role predicates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// The induced `ins View(x̄)` / `del View(x̄)` events.
    pub events: EventStore,
    /// Tuples to insert, over all views.
    pub insertions: usize,
    /// Tuples to delete, over all views.
    pub deletions: usize,
}

/// Maintains the materialized views: reads the induced view events off
/// `up`. The stored extensions themselves are the processor's
/// interpretation, which
/// [`commit`](crate::processor::UpdateProcessor::commit) updates from the
/// same events.
pub fn maintain(db: &Database, up: &UpwardResult) -> MaintenanceReport {
    let mut report = MaintenanceReport {
        events: EventStore::new(),
        insertions: 0,
        deletions: 0,
    };
    for view in db.program().derived_with_role(DerivedRole::View) {
        let ins = up.derived.relation(EventKind::Ins, view);
        let del = up.derived.relation(EventKind::Del, view);
        report.insertions += ins.len();
        report.deletions += del.len();
        for t in ins.iter() {
            report.events.insert(GroundEvent::ins(view, t.clone()));
        }
        for t in del.iter() {
            report.events.insert(GroundEvent::del(view, t.clone()));
        }
    }
    report
}

/// The complementary problem: true iff the transaction behind `up` does
/// not affect `view` (upward interpretation of
/// `{¬ins View(x̄), ¬del View(x̄)}`), in which case its stored extension
/// needs no maintenance.
pub fn view_unaffected(up: &UpwardResult, view: Pred) -> bool {
    up.derived.relation(EventKind::Ins, view).is_empty()
        && up.derived.relation(EventKind::Del, view).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::UpdateProcessor;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;

    fn emp_city() -> Pred {
        Pred::new("emp_city", 2)
    }

    fn setup() -> UpdateProcessor {
        let db = parse_database(
            "emp(john, sales). dept(sales, bcn).
             emp_city(E, C) :- emp(E, D), dept(D, C).",
        )
        .unwrap();
        UpdateProcessor::new(db).unwrap()
    }

    /// The stored extension of the view equals a fresh materialization.
    fn assert_view_fresh(proc: &UpdateProcessor) {
        let fresh = materialize(proc.database()).unwrap();
        assert_eq!(
            proc.interpretation().relation(emp_city()),
            fresh.relation(emp_city())
        );
    }

    #[test]
    fn maintenance_matches_rematerialization() {
        let mut proc = setup();
        let txn = proc
            .transaction("+emp(mary, sales). -emp(john, sales).")
            .unwrap();
        let report = proc.maintain_views(&txn).unwrap();
        assert_eq!(report.insertions, 1);
        assert_eq!(report.deletions, 1);
        assert_eq!(report.events, proc.commit(&txn).unwrap().derived);
        assert_view_fresh(&proc);
    }

    #[test]
    fn only_view_role_events_are_reported() {
        let db = parse_database(
            "q(a). r(a). v(X) :- q(X).
             :- q(X), r(X), s(X).",
        )
        .unwrap();
        let proc = UpdateProcessor::new(db).unwrap();
        let txn = proc.transaction("+s(a). +q(b).").unwrap();
        let report = proc.maintain_views(&txn).unwrap();
        assert_eq!(report.events.to_string(), "{+v(b)}");
        assert_eq!((report.insertions, report.deletions), (1, 0));
    }

    #[test]
    fn unaffected_view_detected() {
        let proc = setup();
        // A new department with no employees does not change emp_city.
        let txn = proc.transaction("+dept(hr, madrid).").unwrap();
        assert!(view_unaffected(&proc.upward(&txn).unwrap(), emp_city()));
        let txn2 = proc.transaction("+emp(pere, sales).").unwrap();
        assert!(!view_unaffected(&proc.upward(&txn2).unwrap(), emp_city()));
    }

    #[test]
    fn repeated_maintenance_converges() {
        let mut proc = setup();
        for t in ["+emp(a, sales).", "+emp(b, sales).", "-emp(a, sales)."] {
            let txn = proc.transaction(t).unwrap();
            proc.maintain_views(&txn).unwrap();
            proc.commit(&txn).unwrap();
            assert_view_fresh(&proc);
        }
    }
}
