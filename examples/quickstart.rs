//! Quickstart: the paper's running example end to end.
//!
//! Builds the database of examples 3.1/4.1/4.2 (`P(x) ← Q(x) ∧ ¬R(x)`),
//! prints its transition rule, upward-interprets a transaction (example
//! 4.1), downward-interprets a view-update request (example 4.2), and
//! demonstrates the round trip of the paper's intro figure: the downward
//! answer, replayed upward, realizes the request.
//!
//! Run with: `cargo run --example quickstart`

use dduf::prelude::*;
use dduf_events::simplify::simplify_transition;

fn main() -> Result<()> {
    // ---- The deductive database of example 4.1 ----
    let db = parse_database(include_str!("programs/quickstart.dl"))?;
    println!("database:");
    println!("  q(a). q(b). r(b).");
    println!("  p(X) :- q(X), not r(X).");

    // ---- §3.2: the transition rule (example 3.1) ----
    let tr = TransitionRule::build(db.program(), Pred::new("p", 1));
    println!(
        "\ntransition rule of p ({} disjunctands = 2^2):",
        tr.disjunct_count()
    );
    println!("{tr}");
    let simplified = simplify_transition(&tr);
    println!(
        "after [Oli91]-style simplification: {} disjunctands",
        simplified.disjunct_count()
    );

    // ---- §4.1: upward interpretation (example 4.1) ----
    let txn = Transaction::parse(&db, "-r(b).")?;
    let old = materialize(&db)?;
    let engine = MaintenanceEngine::new(&db)?;
    let up = engine.interpret_for(&db, &txn, None)?;
    println!("\nupward({txn}) induces: {}", up.derived);
    assert_eq!(up.derived.to_string(), "{+p(b)}"); // the paper's answer

    // ---- §4.2: downward interpretation (example 4.2) ----
    let req = Request::new().achieve(EventKind::Ins, Atom::ground("p", vec![Const::sym("b")]));
    let down = dduf::core::downward::interpret_with(&db, &old, &req, &DownwardOptions::default())?;
    println!("\ndownward(ins p(b)) alternatives:");
    for alt in &down.alternatives {
        println!("  perform {}", alt);
    }
    assert_eq!(down.alternatives.len(), 1);

    // ---- The intro figure's round trip: downward, then upward ----
    let chosen = &down.alternatives[0];
    let replay = chosen.to_transaction(&db)?;
    let up2 = engine.interpret_for(&db, &replay, None)?;
    assert!(up2.derived.contains(&GroundEvent::ins(
        Pred::new("p", 1),
        Tuple::new(vec![Const::sym("b")])
    )));
    println!(
        "\nround trip: applying {} indeed induces +p(b) — request realized.",
        replay
    );

    Ok(())
}
