//! Error-path integration tests: the typed failures the framework promises
//! (unstratifiable programs, unsafe rules, invalid transactions, recursive
//! downward requests, search limits).

use dduf::core::Error as CoreError;
use dduf::datalog::error::{Error as DlError, SchemaError};
use dduf::prelude::*;

#[test]
fn unstratifiable_program_rejected_at_materialization() {
    let db = parse_database("p(X) :- b(X), not q(X). q(X) :- b(X), p(X). b(a).").unwrap();
    let err = materialize(&db).unwrap_err();
    assert!(matches!(
        err,
        DlError::Schema(SchemaError::NotStratifiable(_))
    ));
}

#[test]
fn unsafe_rule_rejected() {
    let db = parse_database("p(X) :- not q(X).").unwrap();
    let err = materialize(&db).unwrap_err();
    assert!(matches!(
        err,
        DlError::Schema(SchemaError::NotAllowed { .. })
    ));
}

#[test]
fn parse_errors_have_positions() {
    let err = parse_database("p(a)\nq(b).").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("2:1"), "{msg}");
}

#[test]
fn transaction_on_derived_predicate_rejected() {
    let db = parse_database("q(a). p(X) :- q(X).").unwrap();
    let err = Transaction::parse(&db, "+p(b).").unwrap_err();
    assert!(matches!(err, CoreError::DerivedEventInTransaction(_)));
    assert!(err.to_string().contains("base fact updates"));
}

#[test]
fn conflicting_transaction_rejected() {
    let db = parse_database("q(a). p(X) :- q(X).").unwrap();
    let err = Transaction::parse(&db, "+q(b). -q(b).").unwrap_err();
    assert!(matches!(err, CoreError::ConflictingEvents { .. }));
}

#[test]
fn recursive_downward_reports_predicate() {
    let db =
        parse_database("e(a, b). tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).").unwrap();
    let req = Request::new().achieve(
        EventKind::Ins,
        Atom::ground("tc", vec![Const::sym("a"), Const::sym("c")]),
    );
    let err = dduf::core::downward::interpret(&db, &req, &DownwardOptions::default()).unwrap_err();
    match err {
        CoreError::RecursiveDownward(p) => assert_eq!(p, Pred::new("tc", 2)),
        other => panic!("expected RecursiveDownward, got {other:?}"),
    }
}

#[test]
fn grounding_limit_enforced() {
    // 26 constants, event with 2 unbound vars = 676 groundings > limit 100.
    let mut src = String::from("link(X, Y) :- node(X), node(Y), not blocked(X, Y).\n");
    for i in 0..26 {
        src.push_str(&format!("node(n{i}).\n"));
    }
    let db = parse_database(&src).unwrap();
    let req = Request::new().achieve(
        EventKind::Ins,
        Atom::new("link", vec![Term::var("A"), Term::var("B")]),
    );
    let opts = DownwardOptions {
        max_groundings: 100,
        ..DownwardOptions::default()
    };
    let err = dduf::core::downward::interpret(&db, &req, &opts).unwrap_err();
    assert!(matches!(
        err,
        CoreError::LimitExceeded {
            what: "groundings",
            ..
        }
    ));
}

#[test]
fn alternatives_limit_enforced() {
    // Prevent-everything over a wide disjunction explodes; the cap fires.
    let mut src = String::from("v(X) :- b(X), not r(X).\n");
    for i in 0..30 {
        src.push_str(&format!("b(k{i}).\n"));
    }
    let db = parse_database(&src).unwrap();
    let req = Request::new().prevent(EventKind::Del, Atom::new("v", vec![Term::var("X")]));
    let opts = DownwardOptions {
        max_alternatives: 50,
        ..DownwardOptions::default()
    };
    let result = dduf::core::downward::interpret(&db, &req, &opts);
    match result {
        Err(CoreError::LimitExceeded { .. }) => {}
        Ok(res) => {
            // Acceptable alternative outcome: the requirement collapses to
            // few alternatives after pruning; it must then be small.
            assert!(res.alternatives.len() <= 50);
        }
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn empty_domain_reported() {
    // A database with no constants anywhere and an open request.
    let db = parse_database("#base b/1.\nv(X) :- b(X).").unwrap();
    let req = Request::new().achieve(EventKind::Ins, Atom::new("v", vec![Term::var("X")]));
    let err = dduf::core::downward::interpret(&db, &req, &DownwardOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::EmptyDomain));
}

#[test]
fn fact_on_derived_predicate_rejected_by_loader() {
    let err = parse_database("p(X) :- q(X). p(a).").unwrap_err();
    assert!(matches!(
        err,
        DlError::Schema(SchemaError::FactOnDerivedPredicate(_))
    ));
}

/// The processor builds its derived state itself and raises what
/// materialization raises: an unstratifiable program, an unsafe rule.
#[test]
fn processor_construction_raises_what_materialization_raises() {
    for src in [
        "p(X) :- b(X), not q(X). q(X) :- b(X), p(X). b(a).",
        "p(X) :- not q(X).",
    ] {
        let db = parse_database(src).unwrap();
        let expected = materialize(&db).unwrap_err();
        assert!(matches!(expected, DlError::Schema(_)), "{src}");
        let err = UpdateProcessor::new(db).unwrap_err();
        assert_eq!(err, CoreError::Datalog(expected), "{src}");
    }
}
