//! The cone gate: `:check` evaluates the event rules between the
//! transaction and the constraints it asks about, and nothing else.
//!
//! The benchmark's attack graph has one constraint, over `attacker_at` and
//! `critical`; a check of a firewall or patch toggle used to recompute the
//! recursive `exec_code` component to learn that the constraint, which
//! cannot see either, still holds. The `upward.apply` counters say what was
//! evaluated — counts, not times, so the numbers repeat exactly.

mod common;

use common::{topology, Topology, ATTACK_GRAPH};
use dduf::core::problems::ic_checking::{self, check_transaction};
use dduf::core::upward::interpret_with;
use dduf::obs::Report;
use dduf::prelude::*;

/// `:check src` the way both frontends run it, with what it recorded.
fn check(db: &Database, old: &Interpretation, src: &str) -> (String, Report) {
    let txn = Transaction::parse(db, src).unwrap();
    let (out, report) = dduf::obs::capture(|| check_transaction(db, old, &txn).unwrap());
    // The same reading off the full interpretation is the specification.
    let full = interpret_with(db, old, &txn, UpwardEngine::Semantic).unwrap();
    assert_eq!(out, ic_checking::check(db, old, &full), "{src}");
    (out.to_string(), report)
}

fn counter(report: &Report, name: &str) -> u64 {
    report.counter("upward.apply", "incremental", name)
}

/// No component was evaluated, recursive or not.
fn assert_decided_statically(report: &Report, src: &str) {
    assert_eq!(counter(report, "decided_statically"), 1, "{src}");
    assert_eq!(counter(report, "components_recomputed"), 0, "{src}");
    assert_eq!(counter(report, "components_event_ruled"), 0, "{src}");
    for phase in ["eval.scc", "upward.pred", "plan.compile"] {
        assert!(report.iter().all(|(p, _, _)| p != phase), "{src}: {phase}");
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
    let old = materialize(&db).unwrap();
    let ((from, to), (host, vuln)) = (&firewall[0], &vulnerable[0]);
    for src in [
        format!("-hacl({from}, {to})."),
        format!("+patched({host}, {vuln})."),
    ] {
        let (reply, report) = check(&db, &old, &src);
        assert_eq!(reply, "ok: no constraint violated", "{src}");
        assert_decided_statically(&report, &src);
    }
    // Inside the cone: an attacker on a critical host is seen by the
    // event rules of `ic1` alone — `exec_code` is still not evaluated.
    let src = "+attacker_at(mallory, h4_00000).";
    let (reply, report) = check(&db, &old, src);
    assert_eq!(reply, "REJECT: violates +ic1", "{src}");
    assert_eq!(counter(&report, "decided_statically"), 0);
    assert_eq!(counter(&report, "components_event_ruled"), 1);
    assert_eq!(counter(&report, "components_recomputed"), 0);
    // exploitable, exec_code, goal_reached, exposed_zone and the global ic.
    assert_eq!(counter(&report, "components_pruned"), 5);
}

/// With a constraint over `goal_reached` the cone crosses the recursive
/// component. The sign still decides the checks that can only shrink
/// `exec_code`; the ones that can grow it pay for the recompute and
/// answer as the full interpretation does.
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
    let old = materialize(&db).unwrap();
    assert!(!ic_checking::is_inconsistent(&db, &old));

    let ((from, to), (host, vuln)) = (&firewall[0], &vulnerable[0]);
    for src in [
        format!("-hacl({from}, {to})."),
        format!("+patched({host}, {vuln})."),
    ] {
        let (reply, report) = check(&db, &old, &src);
        assert_eq!(reply, "ok: no constraint violated", "{src}");
        assert_decided_statically(&report, &src);
    }
    for src in [
        format!("+hacl({foothold}, vault)."),
        "-patched(safe, v01).".to_string(),
    ] {
        let (reply, report) = check(&db, &old, &src);
        assert_eq!(reply, "REJECT: violates +ic2", "{src}");
        assert_eq!(counter(&report, "decided_statically"), 0, "{src}");
        assert_eq!(counter(&report, "components_recomputed"), 1, "{src}");
        assert_eq!(report.count("eval.scc", "exec_code/2"), 1, "{src}");
        // exposed_zone and the global ic; ic1 is in the cone and skipped.
        assert_eq!(counter(&report, "components_pruned"), 2, "{src}");
    }
}
