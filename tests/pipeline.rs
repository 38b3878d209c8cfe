//! Cross-crate integration: full update-processing pipelines combining
//! upward and downward problems (§5.3), long transaction streams, and the
//! three derived-predicate roles interacting in one database.

use dduf::core::problems::condition_prevention::PreventKinds;
use dduf::core::problems::ic_maintenance::MaintenanceOutcome;
use dduf::core::problems::{condition_monitoring, ic_checking, view_maintenance};
use dduf::core::testkit;
use dduf::prelude::*;

mod common;
use common::commit_maintaining_views;

/// A library lending system exercising all three roles at once: a view
/// (`borrowed_by`), two constraints, and a monitored condition
/// (`overdue_alert`).
fn library_db() -> Database {
    parse_database(
        "#cond overdue_alert/1.
         member(ana). member(ben).
         book(rust_book). book(dune). book(sicp).
         loan(rust_book, ana). overdue(rust_book).
         borrowed_by(B, M) :- loan(B, M).
         available(B) :- book(B), not on_loan(B).
         on_loan(B) :- loan(B, _).
         overdue_alert(M) :- loan(B, M), overdue(B).
         :- loan(B, M), not member(M).
         :- loan(B, M), not book(B).",
    )
    .unwrap()
}

#[test]
fn combined_upward_set_interpretation() {
    // §5.3: "combine materialized view maintenance, integrity constraints
    // checking and condition monitoring by upward interpreting the set".
    let db = library_db();
    let proc = UpdateProcessor::new(db).unwrap();
    let txn = proc
        .transaction("+loan(dune, ben). +overdue(dune).")
        .unwrap();

    // One upward pass answers all three problems.
    let (db, up) = (proc.database(), proc.upward(&txn).unwrap());
    assert!(ic_checking::check(db, proc.interpretation(), &up).accepts());
    let conditions = condition_monitoring::monitor(db, &up, None);
    assert_eq!(
        conditions.activated[&Pred::new("overdue_alert", 1)],
        vec![Tuple::new(vec![Const::sym("ben")])]
    );
    let report = view_maintenance::maintain(db, &up);
    assert!(report.insertions >= 1); // borrowed_by(dune, ben)
}

#[test]
fn view_update_then_check_then_commit() {
    let db = library_db();
    let mut proc = UpdateProcessor::new(db).unwrap();
    // Request: make sicp borrowed by ana.
    let req = Request::new().achieve(
        EventKind::Ins,
        Atom::ground("borrowed_by", vec![Const::sym("sicp"), Const::sym("ana")]),
    );
    let res = proc.view_update_checked(&req).unwrap();
    assert!(!res.alternatives.is_empty());
    let alt = res.alternatives[0].clone();
    proc.commit_alternative(&alt).unwrap();
    assert!(proc.state().holds(
        Pred::new("borrowed_by", 2),
        &Tuple::new(vec![Const::sym("sicp"), Const::sym("ana")])
    ));
    // Committed state remains consistent.
    let fresh = materialize(proc.database()).unwrap();
    assert!(fresh
        .relation(proc.database().program().global_ic().unwrap())
        .is_empty());
}

#[test]
fn view_update_for_unknown_member_needs_membership() {
    let db = library_db();
    let proc = UpdateProcessor::new(db).unwrap();
    // cara is not a member: plain translation would violate ic; the
    // integrity-maintaining translation must also insert member(cara).
    let req = Request::new().achieve(
        EventKind::Ins,
        Atom::ground("borrowed_by", vec![Const::sym("dune"), Const::sym("cara")]),
    );
    let safe = proc.view_update_with_integrity(&req).unwrap();
    assert!(!safe.alternatives.is_empty());
    for alt in &safe.alternatives {
        let s = alt.to_do.to_string();
        assert!(s.contains("+loan(dune, cara)"), "{s}");
        assert!(s.contains("+member(cara)"), "{s}");
    }
}

#[test]
fn maintenance_stream_stays_consistent() {
    // A longer random-ish stream over the employment database with all
    // problems engaged each step.
    let db = testkit::employment_db_with_condition();
    let mut proc = UpdateProcessor::new(db).unwrap();
    let stream = [
        "+la(maria). +u_benefit(maria).",
        "+works(maria).",
        "-u_benefit(maria).",
        "+la(pere). +u_benefit(pere).",
        "-works(maria). +u_benefit(maria).",
        "-la(dolors).",
    ];
    for (i, src) in stream.iter().enumerate() {
        let txn = proc.transaction(src).unwrap();
        let check = proc.check_integrity(&txn).unwrap();
        assert!(check.accepts(), "step {i}: {src} violates integrity");
        commit_maintaining_views(&mut proc, &txn, i);
        let fresh = materialize(proc.database()).unwrap();
        assert_eq!(proc.interpretation(), &fresh, "interp stale at step {i}");
    }
}

#[test]
fn downward_then_upward_chain() {
    // §5.3: "the result of the downward interpretation is the same as the
    // starting-point of the upward interpretation" — chain them.
    let db = library_db();
    let proc = UpdateProcessor::new(db).unwrap();
    let req = Request::new().achieve(
        EventKind::Del,
        Atom::ground("overdue_alert", vec![Const::sym("ana")]),
    );
    let res = proc.translate_view_update(&req).unwrap();
    assert!(!res.alternatives.is_empty());
    for alt in &res.alternatives {
        let txn = alt.to_transaction(proc.database()).unwrap();
        let up = proc.upward(&txn).unwrap();
        assert!(up.derived.contains(&GroundEvent::del(
            Pred::new("overdue_alert", 1),
            Tuple::new(vec![Const::sym("ana")])
        )));
    }
}

#[test]
fn prevent_condition_while_updating() {
    let db = library_db();
    let proc = UpdateProcessor::new(db).unwrap();
    // Lend the (overdue-flagged) book dune to ben without raising an
    // overdue alert for him: impossible unless overdue(dune) is cleared.
    let txn = proc
        .transaction("+loan(dune, ben). +overdue(dune).")
        .unwrap();
    let res = proc
        .prevent_condition_activation(
            &txn,
            Pred::new("overdue_alert", 1),
            PreventKinds::Activation,
        )
        .unwrap();
    // The fixed transaction inserts overdue(dune) and the loan, so the
    // alert is unavoidable: no resulting transaction exists.
    assert!(res.alternatives.is_empty());

    // Without the overdue flag it goes through.
    let txn2 = proc.transaction("+loan(dune, ben).").unwrap();
    let res2 = proc
        .prevent_condition_activation(
            &txn2,
            Pred::new("overdue_alert", 1),
            PreventKinds::Activation,
        )
        .unwrap();
    assert!(!res2.alternatives.is_empty());
}

#[test]
fn integrity_maintenance_full_cycle() {
    let db = library_db();
    let mut proc = UpdateProcessor::new(db).unwrap();
    let txn = proc.transaction("+loan(dune, zoe).").unwrap(); // zoe not a member
    assert!(!proc.check_integrity(&txn).unwrap().accepts());
    let MaintenanceOutcome::Resulting(res) = proc.maintain_integrity(&txn).unwrap() else {
        panic!("expected resulting transactions");
    };
    assert!(!res.alternatives.is_empty());
    let alt = res
        .alternatives
        .iter()
        .find(|a| a.to_do.to_string().contains("+member(zoe)"))
        .expect("membership repair offered");
    proc.commit_alternative(alt).unwrap();
    let fresh = materialize(proc.database()).unwrap();
    assert!(fresh
        .relation(proc.database().program().global_ic().unwrap())
        .is_empty());
}

#[test]
fn per_predicate_domains_restrict_downward_instantiation() {
    // Only declared persons may enter labour age; the open view-update
    // request must not invent translations over book titles etc.
    let db = parse_database(
        "#domain la/1 {ana, ben}.
         #domain works/1 {ana, ben}.
         #domain u_benefit/1 {ana, ben}.
         book(dune). la(ana). works(ana).
         unemp(X) :- la(X), not works(X).",
    )
    .unwrap();
    let proc = UpdateProcessor::new(db).unwrap();
    let req = Request::new().achieve(EventKind::Ins, Atom::new("unemp", vec![Term::var("X")]));
    let res = proc.translate_view_update(&req).unwrap();
    assert!(!res.alternatives.is_empty());
    for alt in &res.alternatives {
        for e in alt.to_do.iter() {
            let c = e.tuple[0];
            assert!(
                c == Const::sym("ana") || c == Const::sym("ben"),
                "alternative {alt} leaves the declared domain"
            );
        }
    }
    // ben is the fresh candidate: +la(ben) (with works(ben) avoided).
    assert!(res
        .alternatives
        .iter()
        .any(|a| a.to_do.to_string() == "{+la(ben)}"));
}

#[test]
fn rule_update_preserves_domains() {
    let db = parse_database(
        "#domain la/1 {ana}.
         la(ana).
         unemp(X) :- la(X), not works(X).",
    )
    .unwrap();
    let mut proc = UpdateProcessor::new(db).unwrap();
    proc.add_rule({
        let out = dduf::datalog::parser::parse_program("v(X) :- la(X).").unwrap();
        out.program.rules()[0].clone()
    })
    .unwrap();
    let dom = proc
        .database()
        .program()
        .pred_domain(Pred::new("la", 1))
        .expect("domain survives rule updates");
    assert_eq!(dom.len(), 1);
}
