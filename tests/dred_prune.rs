//! The over-deletion gate: on the benchmark's attack graph a deletion in
//! the recursive component must cost about what it changes, not what it
//! could reach.
//!
//! Textbook DRed over-deletes everything downstream of a deleted tuple and
//! re-derives the survivors; behind a patched host or a cut firewall rule
//! of this topology that is about half of `exec_code`, nearly all of it
//! put back. With ranks (DESIGN.md §15) a candidate that still has a
//! derivation over lower-ranked tuples is kept and the cascade stops
//! there. The `upward.maintain` counters say which of the two ran — counts,
//! not times, so the numbers repeat exactly.

mod common;

use common::{churn, ATTACK_GRAPH};
use dduf::core::upward::maintain::MaintenanceEngine;
use dduf::datalog::storage::tuple::syms;
use dduf::obs::Report;
use dduf::prelude::*;

/// Replays `txns` through a fresh maintenance engine, returning the
/// engine and what it recorded.
fn replay<S: AsRef<str>>(db: &Database, txns: &[S]) -> (MaintenanceEngine, Report) {
    let mut db = db.clone();
    let mut engine = MaintenanceEngine::new(&db).unwrap();
    let ((), report) = dduf::obs::capture(|| {
        for src in txns {
            let txn = Transaction::parse(&db, src.as_ref()).unwrap();
            engine.apply(&db, &txn).unwrap();
            db = txn.apply(&db);
        }
    });
    engine.check_ranks(&db).unwrap();
    assert_eq!(engine.interpretation(), &materialize(&db).unwrap());
    (engine, report)
}

#[test]
fn churn_overdeletes_in_proportion_to_what_it_deletes() {
    let (db, txns) = churn(200);
    let (_, report) = replay(&db, &txns);
    let total = |name| report.total("upward.maintain", name);
    let (overdeleted, rederived) = (total("overdeleted"), total("rederived"));
    let deleted = overdeleted - rederived;
    println!(
        "200 churn commits: overdeleted {overdeleted}, rederived {rederived}, \
         deleted {deleted}, checked {}, ranks built over {} tuples",
        total("checked"),
        total("ranks_built")
    );
    assert!(deleted > 1_000, "the stream deletes too little to say");
    // DRed's own work, which no join order or early exit may move.
    assert_eq!(
        (overdeleted, rederived, total("checked")),
        (15_639, 9_032, 15_688)
    );
    assert!(
        overdeleted <= 3 * deleted,
        "{overdeleted} tuples overdeleted to delete {deleted}"
    );
}

#[test]
fn a_patch_behind_a_diamond_overdeletes_one_tuple_once_ranked() {
    // a → b → d → e and a → c → d: `d` and `e` survive `b`.
    let mut src = String::from(ATTACK_GRAPH);
    src.push_str(
        "attacker_at(eve, a). hacl(a, b). hacl(a, c). hacl(b, d). hacl(c, d). hacl(d, e).\n",
    );
    for h in ["a", "b", "c", "d", "e"] {
        src.push_str(&format!("host({h}, z0). vuln({h}, v00).\n"));
    }
    let db = parse_database(&src).unwrap();
    let (patch, rollback) = ("+patched(b, v00).", "-patched(b, v00).");
    let counters = |report: &Report| {
        let total = |name| report.total("upward.maintain", name);
        (total("overdeleted"), total("rederived"))
    };

    // Without ranks: `b`, `d` and `e` go, `d` and `e` come back — and that
    // is the evidence the ranks are built on.
    let (engine, first) = replay(&db, &[patch]);
    assert_eq!(counters(&first), (3, 2));
    let exec_code = Pred::new("exec_code", 2);
    let rank = |host: &str| engine.rank(exec_code, &syms(&["eve", host]));
    assert_eq!(
        ["a", "b", "c", "d", "e"].map(rank),
        [Some(0), None, Some(1), Some(2), Some(3)]
    );

    // With them: `d` has `c`, one rank below it, so only `b` goes.
    let (_, all) = replay(&db, &[patch, rollback, patch]);
    let (overdeleted, rederived) = counters(&all);
    assert_eq!((overdeleted - 3, rederived - 2), (1, 0));
}
