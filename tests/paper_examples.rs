//! End-to-end reproduction of every worked example in the paper, through
//! the public API (parser → processor). These are the ground-truth
//! artifacts of EXPERIMENTS.md rows P-EX3.1 … P-EX5.3.

use dduf::core::problems::ic_checking::CheckOutcome;
use dduf::core::testkit;
use dduf::prelude::*;
use dduf_events::event::EventAtom;

/// Example 3.1: the transition rule of `P(x) ← Q(x) ∧ ¬R(x)` is the
/// four-disjunct DNF printed in §3.2, in the paper's order.
#[test]
fn example_3_1_transition_rule() {
    let db = testkit::example_db();
    let tr = TransitionRule::build(db.program(), Pred::new("p", 1));
    assert_eq!(tr.branches.len(), 1);
    let rendered: Vec<String> = tr.branches[0].dnf.0.iter().map(|c| c.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            // (Q°(x) ∧ ¬δQ(x) ∧ ¬R°(x) ∧ ¬ιR(x))
            "qᵒ(X) ∧ not del q(X) ∧ not rᵒ(X) ∧ not ins r(X)",
            // (Q°(x) ∧ ¬δQ(x) ∧ δR(x))
            "qᵒ(X) ∧ not del q(X) ∧ del r(X)",
            // (ιQ(x) ∧ ¬R°(x) ∧ ¬ιR(x))
            "ins q(X) ∧ not rᵒ(X) ∧ not ins r(X)",
            // (ιQ(x) ∧ δR(x))
            "ins q(X) ∧ del r(X)",
        ]
    );
}

/// Example 4.1: T = {δR(B)} induces exactly {ιP(B)}.
#[test]
fn example_4_1_upward() {
    let db = testkit::example_db();
    let proc = UpdateProcessor::new(db).unwrap();
    let txn = proc.transaction("-r(b).").unwrap();
    let res = proc.upward(&txn).unwrap();
    assert_eq!(res.derived.to_string(), "{+p(b)}");
}

/// Example 4.2: the downward interpretation of ιP(B) is
/// (δR(B) ∧ ¬δQ(B)) — one alternative: perform {-r(b)}, avoiding {-q(b)}.
#[test]
fn example_4_2_downward() {
    let db = testkit::example_db();
    let proc = UpdateProcessor::new(db).unwrap();
    let req = Request::new().achieve(EventKind::Ins, Atom::ground("p", vec![Const::sym("b")]));
    let res = proc.translate_view_update(&req).unwrap();
    assert_eq!(res.alternatives.len(), 1);
    assert_eq!(res.alternatives[0].to_do.to_string(), "{-r(b)}");
    assert_eq!(res.alternatives[0].must_not.to_string(), "{-q(b)}");
    // Applying T = {δR(B)} accomplishes the insertion (paper's closing
    // sentence of the example).
    let txn = res.alternatives[0].to_transaction(proc.database()).unwrap();
    let up = proc.upward(&txn).unwrap();
    assert!(up.derived.to_string().contains("+p(b)"));
}

/// Example 5.1: T = {δU_benefit(Dolors)} violates Ic1; the result of
/// upward-interpreting ιIc1 is {ιIc1} and the transaction is rejected.
#[test]
fn example_5_1_integrity_checking() {
    let db = testkit::employment_db();
    let proc = UpdateProcessor::new(db).unwrap();
    let txn = proc.transaction("-u_benefit(dolors).").unwrap();
    match proc.check_integrity(&txn).unwrap() {
        CheckOutcome::Violated(events) => {
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].to_string(), "+ic1");
        }
        other => panic!("expected violation, got {other:?}"),
    }
}

/// Example 5.1 as the paper states it — "the upward interpretation of
/// ιIc1" — through the goal-directed entry point: the answer is {ιIc1},
/// and the global `Ic`, which nobody asked for, is not evaluated.
#[test]
fn example_5_1_is_the_upward_interpretation_of_ins_ic1() {
    let db = testkit::employment_db();
    let engine = MaintenanceEngine::new(&db).unwrap();
    let txn = Transaction::parse(&db, "-u_benefit(dolors).").unwrap();
    let goals = [(Pred::new("ic1", 0), EventKind::Ins)].into();
    let res = engine.interpret_for(&db, &txn, Some(&goals)).unwrap();
    assert_eq!(res.base.to_string(), "{-u_benefit(dolors)}");
    assert_eq!(res.derived.to_string(), "{+ic1}");
    // +works(dolors) can only delete unemp(dolors), and a deletion below
    // a positive literal inserts nothing: decided without evaluating.
    let txn = Transaction::parse(&db, "+works(dolors).").unwrap();
    let res = engine.interpret_for(&db, &txn, Some(&goals)).unwrap();
    assert_eq!(res.derived.to_string(), "{}");
}

/// Example 5.2: the downward interpretation of δUnemp(Dolors) is
/// (δLa(Dolors) ∨ ιWorks(Dolors)): translations T1 = {δLa(Dolors)} and
/// T2 = {ιWorks(Dolors)}.
#[test]
fn example_5_2_view_updating() {
    let db = testkit::employment_db();
    let proc = UpdateProcessor::new(db).unwrap();
    let req = Request::new().achieve(
        EventKind::Del,
        Atom::ground("unemp", vec![Const::sym("dolors")]),
    );
    let res = proc.translate_view_update(&req).unwrap();
    let mut shown: Vec<String> = res
        .alternatives
        .iter()
        .map(|a| a.to_do.to_string())
        .collect();
    shown.sort();
    assert_eq!(shown, vec!["{+works(dolors)}", "{-la(dolors)}"]);
}

/// Example 5.3: the downward interpretation of
/// {ιLa(Maria), ¬ιUnemp(Maria)} is
/// [(ιLa(Maria) ∧ ¬ιLa(Maria)) ∨ (ιLa(Maria) ∧ ιWorks(Maria))]; after
/// dropping the contradiction, the only resulting transaction is
/// T = {ιLa(Maria), ιWorks(Maria)}.
#[test]
fn example_5_3_preventing_side_effects() {
    let db = testkit::employment_db();
    let proc = UpdateProcessor::new(db).unwrap();
    let txn = proc.transaction("+la(maria).").unwrap();
    let res = proc
        .prevent_side_effects(
            &txn,
            &[EventAtom::ins(Atom::ground(
                "unemp",
                vec![Const::sym("maria")],
            ))],
        )
        .unwrap();
    assert_eq!(res.alternatives.len(), 1);
    assert_eq!(
        res.alternatives[0].to_do.to_string(),
        "{+la(maria), +works(maria)}"
    );
}

/// Section 5.1 preamble: the same rule body can play all three roles —
/// Ic, View, Cond — and the framework treats them uniformly.
#[test]
fn one_rule_three_roles() {
    let db = parse_database(
        "#view v/1. #cond c/1.
         q(a). q(b). r(a). r(b).
         v(X) :- q(X), not r(X).
         c(X) :- q(X), not r(X).
         :- q(X), not r(X).",
    )
    .unwrap();
    let proc = UpdateProcessor::new(db).unwrap();
    let txn = proc.transaction("-r(b).").unwrap();
    let up = proc.upward(&txn).unwrap();
    // The same event fires under all three readings.
    assert!(up.derived.to_string().contains("+v(b)"));
    assert!(up.derived.to_string().contains("+c(b)"));
    assert!(up.derived.to_string().contains("+ic1"));
}
