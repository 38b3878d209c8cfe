//! §5.2.3 — Repairing inconsistent databases, integrity-constraint
//! satisfiability, and ensuring satisfaction (downward).
//!
//! * **Repair**: given an inconsistent state, the downward interpretation
//!   of `del Ic` (provided `Ic°` holds) yields the transactions restoring
//!   consistency.
//! * **Satisfiability**: the constraints are satisfiable iff either `Ic°`
//!   does not hold (the current state already satisfies them) or the
//!   downward interpretation of `del Ic` defines at least one transaction.
//! * **Ensuring satisfaction**: the downward interpretation of `ins Ic`
//!   enumerates the ways the database could *become* inconsistent; if it
//!   defines none, no reachable state violates the constraints.

use crate::downward::{self, DownwardOptions, DownwardResult, Request};
use crate::error::Result;
use crate::problems::ic_checking::is_inconsistent;
use dduf_datalog::ast::Atom;
use dduf_datalog::eval::Interpretation;
use dduf_datalog::storage::database::Database;
use dduf_events::event::EventKind;

/// Outcome of a repair request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// `Ic°` does not hold: nothing to repair.
    AlreadyConsistent,
    /// The database has no constraints at all.
    NoConstraints,
    /// The alternative repairing transactions (may be empty: inconsistency
    /// not repairable by base updates alone).
    Repairs(DownwardResult),
}

/// Computes the repairs of an inconsistent database: downward `del Ic`.
pub fn repairs(
    db: &Database,
    old: &Interpretation,
    opts: &DownwardOptions,
) -> Result<RepairOutcome> {
    let Some(global) = db.program().global_ic() else {
        return Ok(RepairOutcome::NoConstraints);
    };
    if !is_inconsistent(db, old) {
        return Ok(RepairOutcome::AlreadyConsistent);
    }
    let req = Request::new().achieve(
        EventKind::Del,
        Atom {
            pred: global,
            terms: vec![],
            span: None,
        },
    );
    Ok(RepairOutcome::Repairs(downward::interpret_with(
        db, old, &req, opts,
    )?))
}

/// Satisfiability verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Satisfiability {
    /// The current state already satisfies every constraint.
    SatisfiedNow,
    /// Some state satisfying the constraints is reachable; one witness
    /// transaction is included.
    Satisfiable(DownwardResult),
    /// No base-fact updates reach a consistent state (relative to the
    /// finite domain in use).
    Unsatisfiable,
}

/// Integrity-constraint satisfiability (§5.2.3 / \[BDM88\]): is there a
/// state of the extensional database satisfying all constraints?
pub fn satisfiable(
    db: &Database,
    old: &Interpretation,
    opts: &DownwardOptions,
) -> Result<Satisfiability> {
    match repairs(db, old, opts)? {
        RepairOutcome::AlreadyConsistent | RepairOutcome::NoConstraints => {
            Ok(Satisfiability::SatisfiedNow)
        }
        RepairOutcome::Repairs(r) => {
            if r.alternatives.is_empty() {
                Ok(Satisfiability::Unsatisfiable)
            } else {
                Ok(Satisfiability::Satisfiable(r))
            }
        }
    }
}

/// Ensuring integrity-constraint satisfaction (§5.2.3): the ways the
/// database may become inconsistent — downward `ins Ic`. An empty result
/// means no reachable state violates the constraints (relative to the
/// domain); the database designer can then drop run-time checking.
pub fn violating_transactions(
    db: &Database,
    old: &Interpretation,
    opts: &DownwardOptions,
) -> Result<Option<DownwardResult>> {
    let Some(global) = db.program().global_ic() else {
        return Ok(None);
    };
    let req = Request::new().achieve(
        EventKind::Ins,
        Atom {
            pred: global,
            terms: vec![],
            span: None,
        },
    );
    Ok(Some(downward::interpret_with(db, old, &req, opts)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::ic_checking;
    use crate::upward::semantic;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;

    fn inconsistent_db() -> (Database, Interpretation) {
        // dolors is unemployed without benefit.
        let db = parse_database(
            "la(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        (db, old)
    }

    #[test]
    fn repairs_found_and_verified() {
        let (db, old) = inconsistent_db();
        let RepairOutcome::Repairs(res) = repairs(&db, &old, &DownwardOptions::default()).unwrap()
        else {
            panic!("expected repairs");
        };
        assert!(!res.alternatives.is_empty());
        // Every repair, applied, yields a consistent database.
        for alt in &res.alternatives {
            let txn = alt.to_transaction(&db).unwrap();
            let up = semantic::interpret(&db, &old, &txn).unwrap();
            assert_eq!(
                ic_checking::restores_consistency(&db, &old, &up),
                ic_checking::RestoreOutcome::Restored,
                "repair {alt} does not restore consistency"
            );
        }
        // Expected repair shapes: give benefit, employ her, or remove her.
        let shown: Vec<String> = res
            .alternatives
            .iter()
            .map(|a| a.to_do.to_string())
            .collect();
        assert!(
            shown.iter().any(|s| s.contains("+u_benefit(dolors)")),
            "{shown:?}"
        );
        assert!(
            shown.iter().any(|s| s.contains("+works(dolors)")),
            "{shown:?}"
        );
        assert!(shown.iter().any(|s| s.contains("-la(dolors)")), "{shown:?}");
    }

    /// Regression: with TWO violated constraints whose repairs interact
    /// (fixing ic2 deletes facts that could make ic1 fire for pere), the
    /// greedy negation fold used to starve itself and return no repairs;
    /// the automatic exhaustive retry must find them.
    #[test]
    fn doubly_inconsistent_database_is_repairable() {
        let db = parse_database(
            "la(pere). la(rosa). works(pere). u_benefit(pere).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).
             :- works(X), u_benefit(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        let RepairOutcome::Repairs(res) = repairs(&db, &old, &DownwardOptions::default()).unwrap()
        else {
            panic!("expected repairs");
        };
        assert!(!res.alternatives.is_empty(), "retry must find repairs");
        for alt in &res.alternatives {
            let txn = alt.to_transaction(&db).unwrap();
            let up = semantic::interpret(&db, &old, &txn).unwrap();
            let out = ic_checking::restores_consistency(&db, &old, &up);
            assert_eq!(out, ic_checking::RestoreOutcome::Restored, "{alt}");
        }
    }

    #[test]
    fn consistent_db_needs_no_repair() {
        let db = parse_database(
            "la(dolors). u_benefit(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        assert_eq!(
            repairs(&db, &old, &DownwardOptions::default()).unwrap(),
            RepairOutcome::AlreadyConsistent
        );
        assert_eq!(
            satisfiable(&db, &old, &DownwardOptions::default()).unwrap(),
            Satisfiability::SatisfiedNow
        );
    }

    #[test]
    fn satisfiability_of_inconsistent_db() {
        let (db, old) = inconsistent_db();
        match satisfiable(&db, &old, &DownwardOptions::default()).unwrap() {
            Satisfiability::Satisfiable(r) => assert!(!r.alternatives.is_empty()),
            other => panic!("expected satisfiable, got {other:?}"),
        }
    }

    #[test]
    fn ensuring_satisfaction_finds_violating_transactions() {
        let db = parse_database(
            "la(dolors). u_benefit(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        let res = violating_transactions(&db, &old, &DownwardOptions::default())
            .unwrap()
            .expect("has constraints");
        // E.g. deleting dolors' benefit turns the database inconsistent.
        assert!(!res.alternatives.is_empty());
        let shown: Vec<String> = res
            .alternatives
            .iter()
            .map(|a| a.to_do.to_string())
            .collect();
        assert!(
            shown.iter().any(|s| s.contains("-u_benefit(dolors)")),
            "{shown:?}"
        );
    }

    #[test]
    fn no_constraints_cases() {
        let db = parse_database("q(a). p(X) :- q(X).").unwrap();
        let old = materialize(&db).unwrap();
        assert_eq!(
            repairs(&db, &old, &DownwardOptions::default()).unwrap(),
            RepairOutcome::NoConstraints
        );
        assert!(
            violating_transactions(&db, &old, &DownwardOptions::default())
                .unwrap()
                .is_none()
        );
    }
}
