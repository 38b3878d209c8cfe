//! §5.2.4 — Integrity constraints maintenance (downward), and its dual,
//! maintaining inconsistency.
//!
//! Given a consistent state and a transaction that may violate some
//! constraints, find *repairs*: additional base updates to append such
//! that the resulting transaction satisfies all constraints — the downward
//! interpretation of `{T, ¬ins Ic}`, provided `Ic°` does not hold.
//! Eventually no repair exists and the transaction must be rejected.
//!
//! The dual (`{T, ¬del Ic}` provided `Ic°` holds) keeps an inconsistent
//! database inconsistent; the paper notes it has no obvious practical
//! application but classifies it for completeness, and so do we.

use crate::downward::{self, DownwardOptions, DownwardResult, Request};
use crate::error::Result;
use crate::problems::ic_checking::is_inconsistent;
use crate::transaction::Transaction;
use dduf_datalog::ast::Atom;
use dduf_datalog::eval::Interpretation;
use dduf_datalog::storage::database::Database;
use dduf_events::event::EventKind;

/// Outcome of integrity maintenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaintenanceOutcome {
    /// No constraints: the transaction stands as is.
    NoConstraints,
    /// Precondition failure: the old state is already inconsistent.
    AlreadyInconsistent,
    /// The resulting transactions (each contains `T` plus repairs). Empty
    /// means no repair exists and `T` must be rejected.
    Resulting(DownwardResult),
}

/// Integrity maintenance: downward `{T, ¬ins Ic}` (§5.2.4).
pub fn maintain(
    db: &Database,
    old: &Interpretation,
    txn: &Transaction,
    opts: &DownwardOptions,
) -> Result<MaintenanceOutcome> {
    let Some(global) = db.program().global_ic() else {
        return Ok(MaintenanceOutcome::NoConstraints);
    };
    if is_inconsistent(db, old) {
        return Ok(MaintenanceOutcome::AlreadyInconsistent);
    }
    let req = Request::new().with_transaction(txn).prevent(
        EventKind::Ins,
        Atom {
            pred: global,
            terms: vec![],
            span: None,
        },
    );
    Ok(MaintenanceOutcome::Resulting(downward::interpret_with(
        db, old, &req, opts,
    )?))
}

/// Maintaining inconsistency: downward `{T, ¬del Ic}`, provided `Ic°`
/// holds (§5.2.4, dual problem).
pub fn maintain_inconsistency(
    db: &Database,
    old: &Interpretation,
    txn: &Transaction,
    opts: &DownwardOptions,
) -> Result<MaintenanceOutcome> {
    let Some(global) = db.program().global_ic() else {
        return Ok(MaintenanceOutcome::NoConstraints);
    };
    if !is_inconsistent(db, old) {
        return Ok(MaintenanceOutcome::AlreadyInconsistent); // i.e. precondition fails
    }
    let req = Request::new().with_transaction(txn).prevent(
        EventKind::Del,
        Atom {
            pred: global,
            terms: vec![],
            span: None,
        },
    );
    Ok(MaintenanceOutcome::Resulting(downward::interpret_with(
        db, old, &req, opts,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::ic_checking::{self, CheckOutcome};
    use crate::upward::semantic;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;

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

    #[test]
    fn violating_transaction_gets_repaired() {
        let (db, old) = employment();
        // Adding maria in labour age would make her unemployed w/o benefit.
        let txn = Transaction::parse(&db, "+la(maria).").unwrap();
        let up = semantic::interpret(&db, &old, &txn).unwrap();
        let CheckOutcome::Violated(_) = ic_checking::check(&db, &old, &up) else {
            panic!("transaction should violate ic1");
        };
        let MaintenanceOutcome::Resulting(res) =
            maintain(&db, &old, &txn, &DownwardOptions::default()).unwrap()
        else {
            panic!("expected resulting transactions");
        };
        assert!(!res.alternatives.is_empty());
        // Every resulting transaction must contain T and pass checking.
        for alt in &res.alternatives {
            let shown = alt.to_do.to_string();
            assert!(shown.contains("+la(maria)"), "{shown}");
            let t2 = alt.to_transaction(&db).unwrap();
            let up = semantic::interpret(&db, &old, &t2).unwrap();
            let out = ic_checking::check(&db, &old, &up);
            assert!(out.accepts(), "resulting transaction {alt} still violates");
        }
        // Expected repairs: employ maria or give her a benefit.
        let shown: Vec<String> = res
            .alternatives
            .iter()
            .map(|a| a.to_do.to_string())
            .collect();
        assert!(
            shown.iter().any(|s| s.contains("+works(maria)")),
            "{shown:?}"
        );
        assert!(
            shown.iter().any(|s| s.contains("+u_benefit(maria)")),
            "{shown:?}"
        );
    }

    #[test]
    fn harmless_transaction_passes_unchanged() {
        let (db, old) = employment();
        let txn = Transaction::parse(&db, "+works(dolors).").unwrap();
        let MaintenanceOutcome::Resulting(res) =
            maintain(&db, &old, &txn, &DownwardOptions::default()).unwrap()
        else {
            panic!();
        };
        // The minimal resulting transaction is T itself.
        assert!(res
            .alternatives
            .iter()
            .any(|a| a.to_do.to_string() == "{+works(dolors)}"));
    }

    #[test]
    fn maintain_on_inconsistent_db_rejected() {
        let db = parse_database(
            "la(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        let txn = Transaction::parse(&db, "+la(maria).").unwrap();
        assert_eq!(
            maintain(&db, &old, &txn, &DownwardOptions::default()).unwrap(),
            MaintenanceOutcome::AlreadyInconsistent
        );
    }

    #[test]
    fn maintaining_inconsistency() {
        // Inconsistent: dolors unemployed without benefit. T would repair
        // it; maintaining inconsistency must block the repair.
        let db = parse_database(
            "la(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        let txn = Transaction::parse(&db, "+u_benefit(dolors).").unwrap();
        let MaintenanceOutcome::Resulting(res) =
            maintain_inconsistency(&db, &old, &txn, &DownwardOptions::default()).unwrap()
        else {
            panic!();
        };
        // The benefit insertion repairs the only violation; keeping the
        // database inconsistent requires creating a new violation, e.g.
        // putting someone else in labour age without benefit... but the
        // active domain only has dolors, so deleting her benefit again is
        // contradictory. Check each alternative is genuinely inconsistent.
        for alt in &res.alternatives {
            let t2 = alt.to_transaction(&db).unwrap();
            let new = materialize(&t2.apply(&db)).unwrap();
            let ic = db.program().global_ic().unwrap();
            assert!(!new.relation(ic).is_empty(), "{alt} lost inconsistency");
        }
    }
}
