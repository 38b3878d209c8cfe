//! Query answering and explanation: bottom-up vs. goal-directed
//! evaluation (§4's remark that either strategy can implement the
//! interpretations), derivation trees, and event explanations.
//!
//! Run with: `cargo run --example provenance_queries`

use dduf::datalog::query;
use dduf::prelude::*;

fn main() -> Result<()> {
    let db = parse_database(include_str!("programs/provenance_queries.dl"))?;
    let model = materialize(&db)?;
    let state = StateView::new(&db, &model);

    // ---- Bottom-up query answering ----
    let goal = Atom::new("emp_city", vec![Term::var("E"), Term::var("C")]);
    println!("bottom-up answers to {goal}:");
    for t in query::answers(state, &goal) {
        println!("  {}", t.to_atom(goal.pred));
    }

    // ---- Goal-directed (magic sets): same answers, only relevant facts ----
    let answers = magic::query(&db, &goal)?;
    println!(
        "goal-directed found {} bindings via {:?} (must agree)",
        answers.tuples.len(),
        answers.path
    );
    assert_eq!(answers.tuples.len(), query::answers(state, &goal).len());

    // ---- Provenance: why does covered(ben) hold? ----
    let why = explain(
        state,
        Pred::new("covered", 1),
        &Tuple::new(vec![Const::sym("ben")]),
    )
    .expect("covered(ben) holds");
    println!("\nwhy covered(ben)?\n{why}");
    assert!(why.depth() >= 3); // covered -> emp_city -> base facts

    // ---- Event explanation: why would a transfer change things? ----
    let txn = Transaction::parse(&db, "-emp(ben, sales). +emp(ben, hr).")?;
    let ev = GroundEvent::del(Pred::new("covered", 1), Tuple::new(vec![Const::sym("ben")]));
    let engine = MaintenanceEngine::new(&db)?;
    let ex = explain_event(&db, &engine, &txn, &ev)?.expect("event occurs");
    println!("{ex}");

    Ok(())
}
