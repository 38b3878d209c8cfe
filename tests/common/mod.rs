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

/// `ag_churn`'s cycle on the attack graph at 60 hosts per zone, one event
/// per commit: a firewall rule goes down, a host is patched, the rule
/// comes back, the patch is rolled back.
pub fn churn(commits: usize) -> (Database, Vec<String>) {
    let topo = topology(ATTACK_GRAPH, 60);
    let mut rng = Rng::new(18);
    let mut txns = Vec::new();
    while txns.len() < commits {
        let (from, to) = rng.choose(&topo.firewall);
        let (host, vuln) = rng.choose(&topo.vulnerable);
        txns.extend([
            format!("-hacl({from}, {to})."),
            format!("+patched({host}, {vuln})."),
            format!("+hacl({from}, {to})."),
            format!("-patched({host}, {vuln})."),
        ]);
    }
    (topo.db, txns)
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

// ---- random programs and transactions (differential suites) ----

pub const CONSTS: [&str; 4] = ["a", "b", "c", "d"];
pub const BASES: [&str; 3] = ["b1", "b2", "b3"];

#[derive(Clone, Debug)]
pub struct RandLit {
    pub pred: usize, // index: 0..3 base, 3.. derived of lower layer
    pub positive: bool,
}

#[derive(Clone, Debug)]
pub struct RandProgram {
    /// facts[i] = set of constants for base predicate i.
    pub facts: Vec<Vec<usize>>,
    /// layers[k] = body literals of derived predicate v{k+1}; references
    /// base preds (0..3) and derived preds of strictly lower layers
    /// (3 + j for layer j).
    pub layers: Vec<Vec<RandLit>>,
}

impl RandProgram {
    pub fn gen(rng: &mut Rng) -> RandProgram {
        let facts = (0..BASES.len())
            .map(|_| (0..rng.usize(5)).map(|_| rng.usize(CONSTS.len())).collect())
            .collect();
        let depth = 1 + rng.usize(3);
        let layers = (0..depth)
            .map(|layer| {
                (0..1 + rng.usize(3))
                    .map(|_| RandLit {
                        pred: rng.usize(3 + layer),
                        positive: rng.bool(),
                    })
                    .collect()
            })
            .collect();
        RandProgram { facts, layers }
    }

    pub fn to_source(&self) -> String {
        let mut src = String::new();
        for (i, cs) in self.facts.iter().enumerate() {
            for &c in cs {
                let _ = writeln!(src, "{}({}).", BASES[i], CONSTS[c]);
            }
        }
        // Declare base preds so empty relations still typecheck.
        for b in BASES {
            let _ = writeln!(src, "#base {b}/1.");
        }
        for (k, body) in self.layers.iter().enumerate() {
            let name = format!("v{}", k + 1);
            let mut lits: Vec<String> = Vec::new();
            // Guarantee allowedness: ensure at least one positive literal
            // by forcing the first literal positive.
            for (j, lit) in body.iter().enumerate() {
                let pname = if lit.pred < 3 {
                    BASES[lit.pred].to_string()
                } else {
                    format!("v{}", lit.pred - 2) // lower layer: 3 -> v1, 4 -> v2
                };
                let positive = lit.positive || j == 0;
                lits.push(if positive {
                    format!("{pname}(X)")
                } else {
                    format!("not {pname}(X)")
                });
            }
            let _ = writeln!(src, "{name}(X) :- {}.", lits.join(", "));
        }
        src
    }
}

/// Random transaction: deduplicated base-event toggles.
pub fn gen_txn(rng: &mut Rng, db: &Database) -> Transaction {
    let n = 1 + rng.usize(5);
    let mut events = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..n {
        let p = rng.usize(BASES.len());
        let c = rng.usize(CONSTS.len());
        if seen.insert((p, c)) {
            let kind = if rng.bool() {
                EventKind::Ins
            } else {
                EventKind::Del
            };
            events.push(GroundEvent::new(
                kind,
                Pred::new(BASES[p], 1),
                Tuple::new(vec![Const::sym(CONSTS[c])]),
            ));
        }
    }
    Transaction::from_events(db, events).expect("validated")
}

pub const NODES: [&str; 5] = ["n0", "n1", "n2", "n3", "n4"];

/// Random *recursive* program: a random edge relation, a recursive SCC
/// over it (plain transitive closure or a mutually recursive pair with
/// stratified negation), and counting-maintained layers above the
/// recursion — the shape that forces the maintenance engine to mix both
/// strategies in one program.
#[derive(Clone, Debug)]
pub struct RecProgram {
    pub mutual: bool,
    pub edges: Vec<(usize, usize)>,
    pub marks: Vec<usize>,
}

impl RecProgram {
    pub fn gen(rng: &mut Rng) -> RecProgram {
        RecProgram {
            mutual: rng.bool(),
            edges: (0..3 + rng.usize(8))
                .map(|_| (rng.usize(NODES.len()), rng.usize(NODES.len())))
                .collect(),
            marks: (0..rng.usize(4)).map(|_| rng.usize(NODES.len())).collect(),
        }
    }

    /// Head predicate of the recursive SCC.
    pub fn scc_head(&self) -> &'static str {
        if self.mutual {
            "p"
        } else {
            "tc"
        }
    }

    pub fn to_source(&self) -> String {
        let mut src = String::from("#base e/2.\n#base m/1.\n");
        for &(a, b) in &self.edges {
            let _ = writeln!(src, "e({}, {}).", NODES[a], NODES[b]);
        }
        for &a in &self.marks {
            let _ = writeln!(src, "m({}).", NODES[a]);
        }
        if self.mutual {
            src.push_str("p(X, Y) :- e(X, Y).\n");
            src.push_str("p(X, Y) :- e(X, Z), q(Z, Y).\n");
            src.push_str("q(X, Y) :- p(X, Y), not m(X).\n");
        } else {
            src.push_str("tc(X, Y) :- e(X, Y).\n");
            src.push_str("tc(X, Y) :- e(X, Z), tc(Z, Y).\n");
        }
        let h = self.scc_head();
        let _ = writeln!(src, "cyc(X) :- {h}(X, X).");
        src.push_str("lone(X) :- m(X), not cyc(X).\n");
        src
    }
}

/// Random deletion-heavy transaction: ~70% of events delete a currently
/// *live* base fact (so deletions actually tear derivations down), the
/// rest insert random edges and marks.
pub fn gen_churn_txn(rng: &mut Rng, db: &Database) -> Transaction {
    let e = Pred::new("e", 2);
    let m = Pred::new("m", 1);
    let mut events = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..2 + rng.usize(5) {
        let (kind, pred, tuple) = if rng.usize(10) < 7 {
            // Delete a live fact (falling back to an insert when the
            // chosen relation is empty).
            let pred = if rng.bool() { e } else { m };
            let live: Vec<Tuple> = db.relation(pred).iter().cloned().collect();
            match live.get(rng.usize(live.len().max(1))) {
                Some(t) => (EventKind::Del, pred, t.clone()),
                None => (
                    EventKind::Ins,
                    e,
                    Tuple::new(vec![
                        Const::sym(NODES[rng.usize(NODES.len())]),
                        Const::sym(NODES[rng.usize(NODES.len())]),
                    ]),
                ),
            }
        } else if rng.bool() {
            (
                EventKind::Ins,
                e,
                Tuple::new(vec![
                    Const::sym(NODES[rng.usize(NODES.len())]),
                    Const::sym(NODES[rng.usize(NODES.len())]),
                ]),
            )
        } else {
            (
                EventKind::Ins,
                m,
                Tuple::new(vec![Const::sym(NODES[rng.usize(NODES.len())])]),
            )
        };
        if seen.insert((pred, tuple.clone())) {
            events.push(GroundEvent::new(kind, pred, tuple));
        }
    }
    Transaction::from_events(db, events).expect("validated")
}
