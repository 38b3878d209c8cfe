//! §5.2.1 — View updating and view validation (downward).
//!
//! *View updating*: translate a request to insert/delete derived facts into
//! the alternative sets of base fact updates that accomplish it — the
//! downward interpretation of `ins View(X̄)` / `del View(X̄)` (in general a
//! set of such events, interpreted conjunctively).
//!
//! *View validation*: find at least one `X̄` for which some translation of
//! `ins View(X̄)` (or `del View(X̄)`) exists — e.g. validate that a state
//! with a non-empty view extension is reachable.

use crate::downward::{self, Alternative, DownwardOptions, DownwardResult, Request};
use crate::error::Result;
use crate::upward::maintain::MaintenanceEngine;
use dduf_datalog::ast::{Atom, Pred, Term};
use dduf_datalog::eval::Interpretation;
use dduf_datalog::storage::database::Database;
use dduf_datalog::storage::tuple::Tuple;
use dduf_events::event::EventKind;

/// Translates a view update request (a set of derived events to achieve)
/// into its alternative base transactions.
pub fn translate(
    db: &Database,
    old: &Interpretation,
    request: &Request,
    opts: &DownwardOptions,
) -> Result<DownwardResult> {
    downward::interpret_with(db, old, request, opts)
}

/// A view-validation witness: an instantiation plus one translation
/// realizing the event on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationWitness {
    /// The witnessing tuple.
    pub tuple: Tuple,
    /// One transaction realizing the event on the witness.
    pub alternative: Alternative,
}

/// View validation: searches for one instantiation of `view` for which the
/// requested event has a translation. Returns the first witness in
/// deterministic (domain) order, or `None` if the view definition cannot
/// be given (resp. deprived of) an instance by base updates.
///
/// The search domain is the active domain *plus one fresh constant*
/// (`$new`): validation asks whether *some* reachable state changes the
/// view, and a state mentioning a previously unseen constant is reachable
/// — without this, a view already satisfied by every known constant would
/// wrongly validate as frozen. `engine` must maintain `db`; the witness
/// is read off its upward interpretation of each alternative.
pub fn validate(
    db: &Database,
    engine: &MaintenanceEngine,
    view: Pred,
    kind: EventKind,
    opts: &DownwardOptions,
) -> Result<Option<ValidationWitness>> {
    let vars: Vec<Term> = (0..view.arity)
        .map(|i| Term::var(&format!("Vv{i}")))
        .collect();
    let atom = Atom {
        pred: view,
        terms: vars,
        span: None,
    };
    let mut domain = opts
        .domain
        .clone()
        .unwrap_or_else(|| crate::domain::Domain::active(db));
    domain.extend([dduf_datalog::ast::Const::sym("$new")]);
    let opts = DownwardOptions {
        domain: Some(domain),
        ..opts.clone()
    };
    let opts = &opts;
    let req = Request::new().achieve(kind, atom.clone());
    let res = downward::interpret_with(db, engine.interpretation(), &req, opts)?;
    // Each alternative realizes the event for at least one instantiation;
    // recover a witness by replaying the first alternative upward.
    let goals = [(view, kind)].into();
    for alt in &res.alternatives {
        let txn = alt.to_transaction(db)?;
        let up = engine.interpret_for(db, &txn, Some(&goals))?;
        let witness = up.derived.relation(kind, view).iter().next().cloned();
        if let Some(tuple) = witness {
            return Ok(Some(ValidationWitness {
                tuple,
                alternative: alt.clone(),
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::Const;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;
    use dduf_datalog::storage::tuple::syms;

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
    fn example_5_2_via_problem_api() {
        let (db, old) = employment();
        let req = Request::new().achieve(
            EventKind::Del,
            Atom::ground("unemp", vec![Const::sym("dolors")]),
        );
        let res = translate(&db, &old, &req, &DownwardOptions::default()).unwrap();
        assert_eq!(res.alternatives.len(), 2);
    }

    #[test]
    fn multi_event_request_is_conjunctive() {
        let db = parse_database(
            "q(a). q(b). r(a). r(b).
             p(X) :- q(X), not r(X).
             w(X) :- r(X).",
        )
        .unwrap();
        let old = materialize(&db).unwrap();
        // Insert p(a) (needs -r(a)) while deleting w(b) (needs -r(b)).
        let req = Request::new()
            .achieve(EventKind::Ins, Atom::ground("p", vec![Const::sym("a")]))
            .achieve(EventKind::Del, Atom::ground("w", vec![Const::sym("b")]));
        let res = translate(&db, &old, &req, &DownwardOptions::default()).unwrap();
        assert_eq!(res.alternatives.len(), 1);
        let todo = &res.alternatives[0].to_do;
        assert!(todo.contains(&dduf_events::event::GroundEvent::del(
            Pred::new("r", 1),
            syms(&["a"])
        )));
        assert!(todo.contains(&dduf_events::event::GroundEvent::del(
            Pred::new("r", 1),
            syms(&["b"])
        )));
    }

    #[test]
    fn validation_finds_witness() {
        let (db, _) = employment();
        // Can unemp gain an instance? Yes: e.g. insert la(x) for fresh x —
        // active domain instantiation uses existing constants.
        let w = validate(
            &db,
            &MaintenanceEngine::new(&db).unwrap(),
            Pred::new("unemp", 1),
            EventKind::Ins,
            &DownwardOptions::default(),
        )
        .unwrap();
        assert!(w.is_some());
    }

    #[test]
    fn validation_reports_unreachable() {
        // v has no rules: no state with a v-instance is reachable.
        let db = parse_database("#view v/1. q(a). p(X) :- q(X).").unwrap();
        let w = validate(
            &db,
            &MaintenanceEngine::new(&db).unwrap(),
            Pred::new("v", 1),
            EventKind::Ins,
            &DownwardOptions::default(),
        )
        .unwrap();
        assert!(w.is_none());
    }

    #[test]
    fn deletion_validation() {
        let (db, _) = employment();
        let w = validate(
            &db,
            &MaintenanceEngine::new(&db).unwrap(),
            Pred::new("unemp", 1),
            EventKind::Del,
            &DownwardOptions::default(),
        )
        .unwrap()
        .expect("unemp(dolors) is deletable");
        assert_eq!(w.tuple, syms(&["dolors"]));
    }
}
