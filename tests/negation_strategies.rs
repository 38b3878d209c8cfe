//! The two negation strategies (DESIGN.md semantics decision 6) agree
//! where it matters: on every paper example they produce the same
//! minimal translations; in general greedy's alternatives are a subset of
//! exhaustive's (by `to_do` sets) and both are sound under upward replay.

use dduf::core::testkit;
use dduf::prelude::*;
use std::collections::BTreeSet;

fn todo_sets(res: &DownwardResult) -> BTreeSet<Vec<String>> {
    res.alternatives
        .iter()
        .map(|a| a.to_do.iter().map(|e| e.to_string()).collect())
        .collect()
}

fn run_both(db: &Database, req: &Request) -> (DownwardResult, DownwardResult) {
    let old = materialize(db).unwrap();
    let greedy =
        dduf::core::downward::interpret_with(db, &old, req, &DownwardOptions::default()).unwrap();
    let exhaustive = dduf::core::downward::interpret_with(
        db,
        &old,
        req,
        &DownwardOptions {
            exhaustive_negation: true,
            max_alternatives: 200_000,
            ..DownwardOptions::default()
        },
    )
    .unwrap();
    // Soundness of every alternative, both strategies.
    for (label, res) in [("greedy", &greedy), ("exhaustive", &exhaustive)] {
        for alt in &res.alternatives {
            assert!(
                dduf::core::downward::verify(db, &old, req, alt).unwrap(),
                "{label} produced unsound alternative {alt}"
            );
        }
    }
    (greedy, exhaustive)
}

#[test]
fn paper_examples_agree_across_strategies() {
    // Example 4.2.
    let db = testkit::example_db();
    let req = Request::new().achieve(EventKind::Ins, Atom::ground("p", vec![Const::sym("b")]));
    let (g, x) = run_both(&db, &req);
    assert_eq!(todo_sets(&g), todo_sets(&x));
    assert_eq!(g.alternatives.len(), 1);

    // Example 5.2.
    let db = testkit::employment_db();
    let req = Request::new().achieve(
        EventKind::Del,
        Atom::ground("unemp", vec![Const::sym("dolors")]),
    );
    let (g, x) = run_both(&db, &req);
    assert_eq!(todo_sets(&g), todo_sets(&x));
    assert_eq!(g.alternatives.len(), 2);

    // Example 5.3.
    let db = testkit::employment_db();
    let req = Request::new()
        .achieve(
            EventKind::Ins,
            Atom::ground("la", vec![Const::sym("maria")]),
        )
        .prevent(
            EventKind::Ins,
            Atom::ground("unemp", vec![Const::sym("maria")]),
        );
    let (g, x) = run_both(&db, &req);
    assert_eq!(todo_sets(&g), todo_sets(&x));
    assert_eq!(g.alternatives.len(), 1);
}

#[test]
fn greedy_is_a_sound_subset_on_guarded_updates() {
    // Integrity-maintaining update over 3 persons: exhaustive enumerates
    // compensating combinations (3^n); greedy keeps the minimal one.
    let db = parse_database(
        "la(p0). u_benefit(p0). la(p1). u_benefit(p1). la(p2). u_benefit(p2).
         unemp(X) :- la(X), not works(X).
         :- unemp(X), not u_benefit(X).",
    )
    .unwrap();
    let old = materialize(&db).unwrap();
    let req = Request::new().achieve(
        EventKind::Ins,
        Atom::ground("unemp", vec![Const::sym("fresh")]),
    );
    let proc = UpdateProcessor::new(db.clone()).unwrap();
    let greedy = proc.view_update_with_integrity(&req).unwrap();
    let proc_x = proc.clone().with_options(DownwardOptions {
        exhaustive_negation: true,
        max_alternatives: 200_000,
        ..DownwardOptions::default()
    });
    let exhaustive = proc_x.view_update_with_integrity(&req).unwrap();

    // Greedy to_do sets ⊆ exhaustive to_do sets.
    let g = todo_sets(&greedy);
    let x = todo_sets(&exhaustive);
    assert!(g.is_subset(&x), "greedy {g:?} not within exhaustive");
    assert_eq!(g.len(), 1);
    assert_eq!(x.len(), 27); // 3^3 compensating combinations

    // The greedy alternative is minimal: no exhaustive to_do is a strict
    // subset of it.
    let g0 = g.iter().next().unwrap();
    for alt in &x {
        let subset = alt.iter().all(|e| g0.contains(e));
        assert!(!(subset && alt.len() < g0.len()), "greedy not minimal");
    }
    let _ = old;
}

/// One transition conjunct of `alert` mixes every kind of old literal the
/// translator schedules: `empᵒ(X, D) ∧ deptᵒ(D, M)` is a join of two old
/// relations, and `¬clearedᵒ(M, P)` becomes ground only once the event
/// `ins assigned(X, P)` is instantiated, so it filters after that event.
/// (A negated old literal that stays open after every event, read as ¬∃,
/// needs a rule that is not allowed; the downward unit tests cover it.)
#[test]
fn old_literal_mix_in_one_conjunct() {
    let db = parse_database(
        "#domain assigned/2 {ann, p1, p2}.
         #domain emp/2 {ann, d1}.
         #domain dept/2 {d1, m1}.
         #domain cleared/2 {m1, p1, p2}.
         emp(ann, d1). emp(bob, d2).
         dept(d1, m1). dept(d2, m2).
         assigned(bob, p1).
         cleared(m1, p1). cleared(m2, p1).
         alert(X) :- emp(X, D), dept(D, M), assigned(X, P), not cleared(M, P).",
    )
    .unwrap();
    let req = Request::new().achieve(
        EventKind::Ins,
        Atom::ground("alert", vec![Const::sym("ann")]),
    );
    let (g, x) = run_both(&db, &req);
    let expected: BTreeSet<Vec<String>> = [
        &["+assigned(ann, ann)"][..],
        &["+assigned(ann, ann)", "+dept(d1, d1)"],
        &["+assigned(ann, p1)", "+dept(d1, d1)"],
        &["+assigned(ann, p1)", "-cleared(m1, p1)"],
        &["+assigned(ann, p2)"],
        &["+assigned(ann, p2)", "+dept(d1, d1)"],
    ]
    .iter()
    .map(|s| s.iter().map(|e| e.to_string()).collect())
    .collect();
    assert_eq!(todo_sets(&g), expected);
    assert_eq!(todo_sets(&x), expected);
}
