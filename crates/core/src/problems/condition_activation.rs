//! §5.2.5 — Enforcing condition activation and condition validation
//! (downward).
//!
//! *Enforcing*: find base updates whose application would induce the
//! activation (`ins Cond(X̄)`) — or deactivation (`del Cond(X̄)`) — of a
//! monitored condition: the downward interpretation of the corresponding
//! event.
//!
//! *Condition validation*: find at least one `X̄` for which such a
//! transaction exists — validating that the condition, as defined, can be
//! triggered at all.

use crate::downward::{self, DownwardOptions, DownwardResult, Request};
use crate::error::Result;
use crate::problems::view_updating::{validate as validate_derived, ValidationWitness};
use crate::upward::maintain::MaintenanceEngine;
use dduf_datalog::ast::{Atom, Pred};
use dduf_datalog::eval::Interpretation;
use dduf_datalog::storage::database::Database;
use dduf_events::event::EventKind;

/// Enforcing condition activation/deactivation: downward `ins Cond(X̄)` or
/// `del Cond(X̄)`. The atom may be non-ground (all ways to trigger any
/// instance).
pub fn enforce(
    db: &Database,
    old: &Interpretation,
    kind: EventKind,
    cond_atom: Atom,
    opts: &DownwardOptions,
) -> Result<DownwardResult> {
    let req = Request::new().achieve(kind, cond_atom);
    downward::interpret_with(db, old, &req, opts)
}

/// Condition validation: one witness instantiation for which the
/// condition can be activated (or deactivated), if any. `engine` must
/// maintain `db`.
pub fn validate(
    db: &Database,
    engine: &MaintenanceEngine,
    cond: Pred,
    kind: EventKind,
    opts: &DownwardOptions,
) -> Result<Option<ValidationWitness>> {
    // Structurally the same search as view validation (§5.2.1); the only
    // difference is the role given to the derived predicate.
    validate_derived(db, engine, cond, kind, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::Const;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;

    fn monitored_db() -> (Database, Interpretation) {
        let db = parse_database(
            "#cond alert/1.
             stock(widget). low(widget).
             alert(X) :- stock(X), low(X), not acked(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        (db, old)
    }

    #[test]
    fn enforce_deactivation() {
        let (db, old) = monitored_db();
        // alert(widget) is active; how can it be deactivated?
        let res = enforce(
            &db,
            &old,
            EventKind::Del,
            Atom::ground("alert", vec![Const::sym("widget")]),
            &DownwardOptions::default(),
        )
        .unwrap();
        let shown: Vec<String> = res
            .alternatives
            .iter()
            .map(|a| a.to_do.to_string())
            .collect();
        assert!(shown.contains(&"{+acked(widget)}".to_string()), "{shown:?}");
        assert!(shown.contains(&"{-stock(widget)}".to_string()), "{shown:?}");
        assert!(shown.contains(&"{-low(widget)}".to_string()), "{shown:?}");
    }

    #[test]
    fn enforce_activation_with_open_atom() {
        let db = parse_database(
            "#cond alert/1.
             stock(widget). stock(gadget). low(widget).
             alert(X) :- stock(X), low(X), not acked(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        // alert(widget) already active; the open request finds gadget.
        let res = enforce(
            &db,
            &old,
            EventKind::Ins,
            Atom::new("alert", vec![dduf_datalog::ast::Term::var("X")]),
            &DownwardOptions::default(),
        )
        .unwrap();
        assert!(
            res.alternatives
                .iter()
                .any(|a| a.to_do.to_string() == "{+low(gadget)}"),
            "{:?}",
            res.alternatives
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn validation_finds_activation_witness() {
        let (db, _) = monitored_db();
        let w = validate(
            &db,
            &MaintenanceEngine::new(&db).unwrap(),
            Pred::new("alert", 1),
            EventKind::Ins,
            &DownwardOptions::default(),
        )
        .unwrap();
        // widget's alert already holds, but another constant can be staged.
        assert!(w.is_some());
    }

    #[test]
    fn unactivatable_condition_detected() {
        let db = parse_database("#cond ghost/1. q(a). p(X) :- q(X).").unwrap();
        let w = validate(
            &db,
            &MaintenanceEngine::new(&db).unwrap(),
            Pred::new("ghost", 1),
            EventKind::Ins,
            &DownwardOptions::default(),
        )
        .unwrap();
        assert!(w.is_none());
    }
}
