//! §5.1.1 — Integrity constraints checking (upward).
//!
//! Given a consistent state and a transaction, determine *incrementally*
//! whether the transaction violates the constraints: the upward
//! interpretation of `ins Ic`, provided `Ic°` does not hold. The
//! complementary problem — given an *inconsistent* state, does the
//! transaction restore consistency? — is the upward interpretation of
//! `del Ic`, provided `Ic°` holds.

use crate::error::Result;
use crate::transaction::Transaction;
use crate::upward::maintain::MaintenanceEngine;
use crate::upward::UpwardResult;
use dduf_datalog::ast::Pred;
use dduf_datalog::eval::Interpretation;
use dduf_datalog::schema::DerivedRole;
use dduf_datalog::storage::database::Database;
use dduf_events::event::{EventKind, GroundEvent};
use std::fmt;

/// Outcome of checking a transaction against the integrity constraints.
/// Its `Display` is the `:check` reply of the shell and the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The database has no integrity constraints; nothing to check.
    NoConstraints,
    /// The precondition `¬Ic°` fails: the old state is already
    /// inconsistent, so checking (in the paper's sense) does not apply —
    /// see [`restores_consistency`] instead.
    AlreadyInconsistent,
    /// The transaction does not violate any constraint (`ins Ic` was not
    /// induced).
    Consistent,
    /// The transaction violates some constraint: the induced insertion
    /// events on the individual inconsistency predicates.
    Violated(Vec<GroundEvent>),
}

impl CheckOutcome {
    /// True iff the transaction may be applied without violating
    /// integrity.
    pub fn accepts(&self) -> bool {
        matches!(self, CheckOutcome::Consistent | CheckOutcome::NoConstraints)
    }
}

impl fmt::Display for CheckOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckOutcome::Violated(events) => write!(f, "REJECT: violates {}", list(events)),
            CheckOutcome::Consistent => write!(f, "ok: no constraint violated"),
            CheckOutcome::NoConstraints => write!(f, "ok: no constraints declared"),
            CheckOutcome::AlreadyInconsistent => {
                write!(f, "warning: database is already inconsistent (see :repair)")
            }
        }
    }
}

/// A checked commit that was refused: the violations the transaction
/// would induce. Its `Display` is the `:apply` reply of the shell and the
/// server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection(pub Vec<GroundEvent>);

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "REJECTED: violates {} (use :force to override)",
            list(&self.0)
        )
    }
}

fn list(events: &[GroundEvent]) -> String {
    let events: Vec<String> = events.iter().map(GroundEvent::to_string).collect();
    events.join(", ")
}

/// True iff `Ic°` holds (some constraint is violated in the current state).
pub fn is_inconsistent(db: &Database, old: &Interpretation) -> bool {
    db.program()
        .global_ic()
        .is_some_and(|ic| !old.relation(ic).is_empty())
}

/// The individual inconsistency predicates `Ic1 … Icn` — the global `Ic`
/// only says that one of them holds.
fn constraints(db: &Database) -> impl Iterator<Item = Pred> + '_ {
    let global = db.program().global_ic();
    db.program()
        .derived_with_role(DerivedRole::Ic)
        .into_iter()
        .filter(move |&p| Some(p) != global)
}

/// `:check`: does `txn` violate the integrity constraints? The upward
/// interpretation of `ins Ic1 … ins Icn` and nothing else
/// ([`MaintenanceEngine::interpret_for`]), read by [`check`]. `engine`
/// must maintain `db`. A database without constraints, or one that is
/// already inconsistent, is answered before anything is interpreted.
pub fn check_transaction(
    db: &Database,
    engine: &MaintenanceEngine,
    txn: &Transaction,
) -> Result<CheckOutcome> {
    let old = engine.interpretation();
    if let Some(outcome) = precondition(db, old) {
        return Ok(outcome);
    }
    let goals = constraints(db).map(|p| (p, EventKind::Ins)).collect();
    let up = engine.interpret_for(db, txn, Some(&goals))?;
    Ok(check(db, old, &up))
}

/// The answers [`check`] gives whatever the transaction: no constraints,
/// or `Ic°` already holds.
fn precondition(db: &Database, old: &Interpretation) -> Option<CheckOutcome> {
    if db.program().global_ic().is_none() {
        Some(CheckOutcome::NoConstraints)
    } else if is_inconsistent(db, old) {
        Some(CheckOutcome::AlreadyInconsistent)
    } else {
        None
    }
}

/// Reads off `up` whether its transaction violates the integrity
/// constraints: the upward interpretation of `ins Ic` (§5.1.1). `up` must
/// be an upward interpretation over `db` and its materialization `old`.
pub fn check(db: &Database, old: &Interpretation, up: &UpwardResult) -> CheckOutcome {
    if let Some(outcome) = precondition(db, old) {
        return outcome;
    }
    let violated: Vec<GroundEvent> = constraints(db)
        .flat_map(|ic| {
            up.derived
                .relation(EventKind::Ins, ic)
                .iter()
                .map(move |t| GroundEvent::ins(ic, t.clone()))
        })
        .collect();
    if violated.is_empty() {
        CheckOutcome::Consistent
    } else {
        CheckOutcome::Violated(violated)
    }
}

/// Outcome of checking whether a transaction restores consistency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// The old state is already consistent; nothing to restore.
    AlreadyConsistent,
    /// The transaction induces `del Ic`: consistency is restored.
    Restored,
    /// The database remains inconsistent after the transaction.
    StillInconsistent,
}

/// Reads off `up` whether its transaction restores a currently
/// inconsistent database to consistency: the upward interpretation of
/// `del Ic`, provided `Ic°` holds (§5.1.1, second problem).
pub fn restores_consistency(
    db: &Database,
    old: &Interpretation,
    up: &UpwardResult,
) -> RestoreOutcome {
    let Some(global) = db.program().global_ic() else {
        return RestoreOutcome::AlreadyConsistent;
    };
    if !is_inconsistent(db, old) {
        return RestoreOutcome::AlreadyConsistent;
    }
    let deleted = up.derived.contains(&GroundEvent::del(
        global,
        dduf_datalog::storage::tuple::Tuple::empty(),
    ));
    if deleted {
        RestoreOutcome::Restored
    } else {
        RestoreOutcome::StillInconsistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;
    use crate::upward::semantic;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;

    const EMPLOYMENT: &str = "
        la(dolors). u_benefit(dolors).
        unemp(X) :- la(X), not works(X).
        :- unemp(X), not u_benefit(X).
    ";

    /// dolors is unemployed without benefit: already inconsistent.
    const INCONSISTENT: &str = "
        la(dolors).
        unemp(X) :- la(X), not works(X).
        :- unemp(X), not u_benefit(X).
    ";

    /// The database, its materialization, and the interpretation of
    /// `txn` every reading below is taken off: the engine's read, which
    /// must be the oracle's.
    fn interpreted(src: &str, txn: &str) -> (Database, Interpretation, UpwardResult) {
        let db = parse_database(src).unwrap();
        let old = materialize(&db).unwrap();
        let txn = Transaction::parse(&db, txn).unwrap();
        let engine = MaintenanceEngine::new(&db).unwrap();
        let up = engine.interpret_for(&db, &txn, None).unwrap();
        assert_eq!(up, semantic::interpret(&db, &old, &txn).unwrap());
        (db, old, up)
    }

    /// Example 5.1 of the paper: T = {del U_benefit(Dolors)} violates Ic1
    /// and must be rejected.
    #[test]
    fn example_5_1_violation_detected() {
        let (db, old, up) = interpreted(EMPLOYMENT, "-u_benefit(dolors).");
        let out = check(&db, &old, &up);
        match &out {
            CheckOutcome::Violated(events) => {
                assert_eq!(events.len(), 1);
                assert_eq!(events[0].to_string(), "+ic1");
            }
            other => panic!("expected violation, got {other:?}"),
        }
        assert!(!out.accepts());
    }

    #[test]
    fn harmless_transaction_accepted() {
        let (db, old, up) = interpreted(EMPLOYMENT, "+works(dolors).");
        let out = check(&db, &old, &up);
        assert_eq!(out, CheckOutcome::Consistent);
        assert!(out.accepts());
    }

    #[test]
    fn no_constraints_short_circuits() {
        let (db, old, up) = interpreted("q(a). p(X) :- q(X).", "-q(a).");
        assert_eq!(check(&db, &old, &up), CheckOutcome::NoConstraints);
    }

    #[test]
    fn inconsistent_precondition_reported() {
        let (db, old, up) = interpreted(INCONSISTENT, "+la(maria).");
        assert!(is_inconsistent(&db, &old));
        assert_eq!(check(&db, &old, &up), CheckOutcome::AlreadyInconsistent);
    }

    #[test]
    fn restoration_detected() {
        let (db, old, good) = interpreted(INCONSISTENT, "+u_benefit(dolors).");
        assert_eq!(
            restores_consistency(&db, &old, &good),
            RestoreOutcome::Restored
        );
        let (db, old, useless) = interpreted(INCONSISTENT, "+la(maria). +u_benefit(maria).");
        assert_eq!(
            restores_consistency(&db, &old, &useless),
            RestoreOutcome::StillInconsistent
        );
    }

    #[test]
    fn restore_on_consistent_db_is_noop() {
        let (db, old, up) = interpreted(EMPLOYMENT, "+works(dolors).");
        assert_eq!(
            restores_consistency(&db, &old, &up),
            RestoreOutcome::AlreadyConsistent
        );
    }

    /// The replies both frontends send, word for word.
    #[test]
    fn outcomes_render_the_wire_replies() {
        let (db, old, up) = interpreted(EMPLOYMENT, "-u_benefit(dolors).");
        let CheckOutcome::Violated(events) = check(&db, &old, &up) else {
            panic!("expected a violation");
        };
        assert_eq!(
            Rejection(events.clone()).to_string(),
            "REJECTED: violates +ic1 (use :force to override)"
        );
        assert_eq!(
            CheckOutcome::Violated(events).to_string(),
            "REJECT: violates +ic1"
        );
        assert_eq!(
            CheckOutcome::Consistent.to_string(),
            "ok: no constraint violated"
        );
        assert_eq!(
            CheckOutcome::NoConstraints.to_string(),
            "ok: no constraints declared"
        );
        assert_eq!(
            CheckOutcome::AlreadyInconsistent.to_string(),
            "warning: database is already inconsistent (see :repair)"
        );
    }
}
