//! Helpers shared by the integration suites (`mod common;`).

// Each suite uses its own subset.
#![allow(dead_code)]

use dduf::core::rng::Rng;
use dduf::prelude::*;
use std::fmt::Write as _;

/// The benchmark's attack-graph program (recursive `exec_code`).
pub const ATTACK_GRAPH: &str = include_str!("../../e2ebench/programs/attack_graph.dl");
/// The same program without its recursive part: counting only.
pub const INVENTORY: &str = include_str!("../../e2ebench/programs/inventory.dl");

/// A generated topology and the handles churn traffic needs.
pub struct Topology {
    pub db: Database,
    /// The firewall rules `(source, destination)` between adjacent zones.
    pub firewall: Vec<(String, String)>,
    /// The vulnerable hosts, each with its vulnerability.
    pub vulnerable: Vec<(String, String)>,
}

/// The benchmark's topology (`e2ebench/src/gen.rs`) in small: five zones
/// in a chain, three intra-zone `hacl` edges per host, four firewall rules
/// between adjacent zones, 70 % of the hosts vulnerable, ten attackers in
/// zone 0, 5 % of the last zone critical — ≈4.7 facts per host. `island`
/// is a host no attacker reaches, with one edge into zone 0.
pub fn topology(program: &str, hosts_per_zone: usize) -> Topology {
    let mut rng = Rng::new(1);
    let mut text = String::from(program);
    let host = |zone: usize, i: usize| format!("h{zone}_{i:05}");
    let (mut firewall, mut vulnerable) = (Vec::new(), Vec::new());
    for z in 0..5 {
        for i in 0..hosts_per_zone {
            let h = host(z, i);
            writeln!(text, "host({h}, z{z}).").unwrap();
            if rng.chance(0.7) {
                let v = format!("v{:02}", rng.usize(50));
                writeln!(text, "vuln({h}, {v}).").unwrap();
                vulnerable.push((h.clone(), v));
            }
            for _ in 0..3 {
                writeln!(text, "hacl({h}, {}).", host(z, rng.usize(hosts_per_zone))).unwrap();
            }
        }
    }
    for z in 0..4 {
        for _ in 0..4 {
            let (from, to) = (rng.usize(hosts_per_zone), rng.usize(hosts_per_zone));
            writeln!(text, "hacl({}, {}).", host(z, from), host(z + 1, to)).unwrap();
            firewall.push((host(z, from), host(z + 1, to)));
        }
    }
    for a in 0..10 {
        writeln!(
            text,
            "attacker_at(a{a}, {}).",
            host(0, rng.usize(hosts_per_zone))
        )
        .unwrap();
    }
    for i in 0..(hosts_per_zone / 20).max(1) {
        writeln!(text, "critical({}).", host(4, i)).unwrap();
    }
    writeln!(text, "host(island, z0). hacl(island, {}).", host(0, 0)).unwrap();
    Topology {
        db: parse_database(&text).unwrap(),
        firewall,
        vulnerable,
    }
}

/// Commits `txn` the way a view-maintaining caller does: asks for the
/// view events first, commits, and checks that those events turn the old
/// stored extension of every view into the one the processor now stores
/// (which the callers compare with a fresh materialization).
pub fn commit_maintaining_views(proc: &mut UpdateProcessor, txn: &Transaction, step: usize) {
    let report = proc.maintain_views(txn).unwrap();
    let before = proc.interpretation().clone();
    proc.commit(txn).unwrap();
    for view in proc
        .database()
        .program()
        .derived_with_role(DerivedRole::View)
    {
        let maintained = before
            .relation(view)
            .difference(report.events.relation(EventKind::Del, view))
            .union(report.events.relation(EventKind::Ins, view));
        assert_eq!(
            &maintained,
            proc.interpretation().relation(view),
            "step {step}: reported events do not maintain {view}"
        );
    }
}
