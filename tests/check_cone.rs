//! The cone gate: `:check` runs the maintenance engine's pass over the
//! units between the transaction and the constraints it asks about, and
//! nothing else.
//!
//! The benchmark's attack graph has one constraint, over `attacker_at` and
//! `critical`; a check of a firewall or patch toggle used to recompute the
//! recursive `exec_code` component to learn that the constraint, which
//! cannot see either, still holds. The `upward.apply` counters say what was
//! evaluated — counts, not times, so the numbers repeat exactly.

mod common;

use common::{topology, Topology, ATTACK_GRAPH};
use dduf::core::problems::ic_checking::{self, check_transaction};
use dduf::core::upward::semantic;
use dduf::obs::Report;
use dduf::prelude::*;

/// `:check src` the way both frontends run it, with what it recorded.
fn check(db: &Database, engine: &MaintenanceEngine, src: &str) -> (String, Report) {
    let txn = Transaction::parse(db, src).unwrap();
    let (out, report) = dduf::obs::capture(|| check_transaction(db, engine, &txn).unwrap());
    // The same reading off the full interpretation is the specification.
    let old = engine.interpretation();
    let full = semantic::interpret(db, old, &txn).unwrap();
    assert_eq!(out, ic_checking::check(db, old, &full), "{src}");
    (out.to_string(), report)
}

/// The engine over `db` and its materialization.
fn engine_over(db: &Database) -> MaintenanceEngine {
    MaintenanceEngine::new(db).unwrap()
}

fn counter(report: &Report, name: &str) -> u64 {
    report.counter("upward.apply", "maintain", name)
}

/// Nothing was evaluated: the read's span is the only one recorded.
fn assert_decided_statically(report: &Report, src: &str) {
    assert_eq!(counter(report, "decided_statically"), 1, "{src}");
    for (phase, _, _) in report.iter() {
        assert_eq!(phase, "upward.apply", "{src}");
    }
}

/// The benchmark's read cycle: neither check of `read_mix` evaluates
/// anything, because the one constraint does not depend on what they
/// change.
#[test]
fn checks_outside_every_constraints_cone_evaluate_nothing() {
    let Topology {
        db,
        firewall,
        vulnerable,
    } = topology(ATTACK_GRAPH, 60);
    let engine = engine_over(&db);
    let ((from, to), (host, vuln)) = (&firewall[0], &vulnerable[0]);
    for src in [
        format!("-hacl({from}, {to})."),
        format!("+patched({host}, {vuln})."),
    ] {
        let (reply, report) = check(&db, &engine, &src);
        assert_eq!(reply, "ok: no constraint violated", "{src}");
        assert_decided_statically(&report, &src);
    }
    // Inside the cone: an attacker on a critical host is seen by the
    // support counts of `ic1` alone — `exec_code` is still not evaluated.
    let src = "+attacker_at(mallory, h4_00000).";
    let (reply, report) = check(&db, &engine, src);
    assert_eq!(reply, "REJECT: violates +ic1", "{src}");
    assert_eq!(counter(&report, "decided_statically"), 0);
    // exploitable, exec_code, goal_reached, exposed_zone and the global ic.
    assert_eq!(counter(&report, "components_pruned"), 5);
    assert_eq!(counter(&report, "components_skipped"), 0);
    assert_eq!(counter(&report, "inserted"), 0);
}

/// A `:check` on an inconsistent database answers the fixed warning
/// without interpreting anything, even when the transaction reaches the
/// recursion; and one on a database without constraints answers before
/// that.
#[test]
fn checks_on_an_inconsistent_database_interpret_nothing() {
    let Topology { db, firewall, .. } = topology(ATTACK_GRAPH, 60);
    let attacker = db
        .relation(Pred::new("attacker_at", 2))
        .iter()
        .next()
        .unwrap()[1];
    let setup = format!("+critical({attacker}).");
    let db = Transaction::parse(&db, &setup).unwrap().apply(&db);
    let engine = engine_over(&db);
    assert!(ic_checking::is_inconsistent(&db, engine.interpretation()));
    let (from, to) = &firewall[0];
    for src in [
        format!("-hacl({from}, {to})."),
        format!("+hacl({attacker}, {to})."),
    ] {
        let (reply, report) = check(&db, &engine, &src);
        assert_eq!(
            reply, "warning: database is already inconsistent (see :repair)",
            "{src}"
        );
        assert!(report.is_empty(), "{src}");
    }
    let db = parse_database("q(a). p(X) :- q(X).").unwrap();
    let (reply, report) = check(&db, &engine_over(&db), "-q(a).");
    assert_eq!(reply, "ok: no constraints declared");
    assert!(report.is_empty());
}

/// With a constraint over `goal_reached` the cone crosses the recursive
/// component. The sign still decides the checks that can only shrink
/// `exec_code`; the ones that can grow it propagate the change through
/// the component by DRed — no recompute — and answer as the full
/// interpretation does.
#[test]
fn a_cone_across_the_recursion_is_pruned_by_sign_or_recomputed() {
    let mut program = String::from(ATTACK_GRAPH);
    program.push_str(":- goal_reached(_, _).\n");
    let Topology {
        db,
        firewall,
        vulnerable,
    } = topology(&program, 60);
    // Consistent to start with: the only critical hosts are `vault`, which
    // no edge leads to, and `safe`, behind an attacker's host but patched.
    let attacker_at = db.relation(Pred::new("attacker_at", 2));
    let foothold = attacker_at.iter().next().unwrap()[1];
    let mut setup: String = db
        .relation(Pred::new("critical", 1))
        .iter()
        .map(|t| format!("-critical({}). ", t[0]))
        .collect();
    setup.push_str(&format!(
        "+critical(vault). +host(vault, z4). +vuln(vault, v00).
         +critical(safe). +host(safe, z4). +vuln(safe, v01). +patched(safe, v01).
         +hacl({foothold}, safe)."
    ));
    let db = Transaction::parse(&db, &setup).unwrap().apply(&db);
    let engine = engine_over(&db);
    assert!(!ic_checking::is_inconsistent(&db, engine.interpretation()));

    let ((from, to), (host, vuln)) = (&firewall[0], &vulnerable[0]);
    for src in [
        format!("-hacl({from}, {to})."),
        format!("+patched({host}, {vuln})."),
    ] {
        let (reply, report) = check(&db, &engine, &src);
        assert_eq!(reply, "ok: no constraint violated", "{src}");
        assert_decided_statically(&report, &src);
    }
    let exec_code = engine.interpretation().relation(Pred::new("exec_code", 2));
    let reaching = exec_code.iter().filter(|t| t[1] == foothold).count() as u64;
    for src in [
        format!("+hacl({foothold}, vault)."),
        "-patched(safe, v01).".to_string(),
    ] {
        let (reply, report) = check(&db, &engine, &src);
        assert_eq!(reply, "REJECT: violates +ic2", "{src}");
        assert_eq!(counter(&report, "decided_statically"), 0, "{src}");
        assert!(
            report.iter().all(|(phase, _, _)| phase != "eval.scc"),
            "{src}"
        );
        // The attackers that reach the foothold reach the new host too,
        // and nothing goes.
        let dred = ["checked", "overdeleted", "rederived", "inserted"].map(|c| counter(&report, c));
        assert_eq!(dred, [0, 0, 0, reaching], "{src}");
        // exposed_zone and the global ic; ic1 is in the cone and skipped.
        assert_eq!(counter(&report, "components_pruned"), 2, "{src}");
    }
}
