//! Recovery commits the journal tail as one net transaction (DESIGN.md §9.3).
//!
//! A transaction is a set of base events (§3.1), so the tail `T1; …; Tn`
//! after a snapshot is itself one transaction: the last event per base
//! fact, without the events that change nothing in the snapshot's state.
//! Open folds the tail into it and runs one maintenance pass. The oracle
//! is the per-record replay open used to run: every record committed, one
//! after the other, from the same snapshot. Seeded tails on the attack
//! graph (recursive, DRed) and on the inventory program (counting only)
//! mix multi-event transactions, no-op events, delete-then-reinsert,
//! cancelling pairs, `:force`-style records that violate
//! `:- attacker_at(_, H), critical(H)` and a torn final record. After
//! open, the base facts, every derived extension and the support counts
//! must be the oracle's.
//!
//! The gate is in counters: a tail of 1 000 cancelling pairs runs no
//! upward interpretation on open (`upward.maintain` `transactions` = 0,
//! where per-record replay ran 2 000), and a tail with a net change runs
//! exactly one.

mod common;

use common::{topology, Topology, ATTACK_GRAPH, INVENTORY};
use dduf::core::rng::Rng;
use dduf::core::upward::maintain::Counts;
use dduf::datalog::pretty;
use dduf::persist::{read_log, snapshot, DurableDb, COUNTS_FILE, JOURNAL_FILE};
use dduf::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Hosts per zone of the generated topologies: 100 hosts in all.
const HOSTS_PER_ZONE: usize = 20;

/// A host the generator always makes critical.
const CRITICAL: &str = "h4_00000";

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dduf_recovery_fold_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// What recovery must reproduce: base facts (with the program), every
/// derived extension, and the support counts of the counting strata. A
/// predicate with no counted tuple may have an empty map or none (a
/// restored engine has none), so empty maps are left out.
fn state(proc: &UpdateProcessor) -> (String, String, BTreeMap<Pred, Counts>) {
    let counts = proc.maintenance().unwrap().counts();
    (
        pretty::database(proc.database()),
        pretty::derived(proc.interpretation()),
        counts
            .iter()
            .filter(|(_, c)| !c.is_empty())
            .map(|(&p, c)| (p, c.clone()))
            .collect(),
    )
}

/// Asserts that `got` recovered `want`'s state, naming the first line or
/// predicate where they differ.
fn assert_same_state(got: &UpdateProcessor, want: &UpdateProcessor, label: &str) {
    let (got, want) = (state(got), state(want));
    for (part, g, w) in [("base", &got.0, &want.0), ("derived", &got.1, &want.1)] {
        let g: BTreeSet<&str> = g.lines().collect();
        let w: BTreeSet<&str> = w.lines().collect();
        let missing: Vec<_> = w.difference(&g).take(5).collect();
        let extra: Vec<_> = g.difference(&w).take(5).collect();
        assert!(
            missing.is_empty() && extra.is_empty(),
            "{label}: {part} differs: missing {missing:?}, extra {extra:?}"
        );
    }
    for pred in got.2.keys().chain(want.2.keys()) {
        assert_eq!(
            got.2.get(pred),
            want.2.get(pred),
            "{label}: support counts of {pred} differ"
        );
    }
}

/// The oracle: a processor built from the snapshot that then commits every
/// intact tail record, one after the other.
fn serial_replay(dir: &Path) -> UpdateProcessor {
    let snap = snapshot::read(dir).unwrap();
    let (pos, scan) = read_log(dir).unwrap();
    let mut proc = UpdateProcessor::new(snap.db).unwrap();
    for rec in scan.records.iter().filter(|r| r.offset >= pos) {
        let txn = proc.transaction(&rec.payload).unwrap();
        proc.commit(&txn).unwrap();
    }
    proc
}

/// Base facts in exactly one of `a` and `b`: the size of the net change.
fn base_difference(a: &Database, b: &Database) -> usize {
    let preds: BTreeSet<Pred> = a
        .extensional_predicates()
        .chain(b.extensional_predicates())
        .collect();
    preds
        .into_iter()
        .map(|p| {
            a.relation(p).difference(b.relation(p)).len()
                + b.relation(p).difference(a.relation(p)).len()
        })
        .sum()
}

/// The atoms the random tails draw from.
struct Pools {
    /// Atoms a tail inserts and deletes: patches of vulnerable hosts,
    /// firewall edges, and an attacker on a critical host (a violation).
    toggles: Vec<String>,
    /// Atoms the initial state holds, for delete-then-reinsert.
    present: Vec<String>,
}

impl Pools {
    fn new(topo: &Topology) -> Pools {
        let patches = topo
            .vulnerable
            .iter()
            .map(|(h, v)| format!("patched({h}, {v})"));
        let edges: Vec<String> = topo
            .firewall
            .iter()
            .map(|(from, to)| format!("hacl({from}, {to})"))
            .collect();
        let vulns = topo
            .vulnerable
            .iter()
            .map(|(h, v)| format!("vuln({h}, {v})"));
        Pools {
            toggles: patches
                .chain(edges.iter().cloned())
                .chain([format!("attacker_at(intruder, {CRITICAL})")])
                .collect(),
            present: edges.into_iter().chain(vulns).collect(),
        }
    }

    /// One transaction of 1–4 events on distinct atoms with random signs,
    /// and half the time a no-op event besides.
    fn record(&self, rng: &mut Rng) -> String {
        let mut atoms: Vec<&String> = Vec::new();
        for _ in 0..1 + rng.usize(4) {
            let pool = if rng.chance(0.7) {
                &self.toggles
            } else {
                &self.present
            };
            let atom = rng.choose(pool);
            if !atoms.contains(&atom) {
                atoms.push(atom);
            }
        }
        let mut events: Vec<String> = atoms
            .into_iter()
            .map(|a| format!("{}{a}.", if rng.bool() { '+' } else { '-' }))
            .collect();
        if rng.bool() {
            // `island` is a host no tail deletes or patches.
            let noop = *rng.choose(&["+host(island, z0).", "-patched(island, v99)."]);
            events.push(noop.to_string());
        }
        events.join(" ")
    }

    /// A tail of at least `len` records, mixing the shapes the module
    /// documentation lists.
    fn tail(&self, rng: &mut Rng, len: usize) -> Vec<String> {
        let mut out = Vec::new();
        while out.len() < len {
            match rng.usize(5) {
                0 => {
                    let atom = rng.choose(&self.toggles);
                    out.push(format!("+{atom}."));
                    out.push(format!("-{atom}."));
                }
                1 => {
                    let atom = rng.choose(&self.present);
                    out.push(format!("-{atom}."));
                    out.push(self.record(rng));
                    out.push(format!("+{atom}."));
                }
                2 => {
                    // What `:force` journals: a record the constraint rejects.
                    let other = self.record(rng);
                    let violation = format!("+attacker_at(intruder, {CRITICAL}).");
                    if other.contains("attacker_at") {
                        out.push(violation);
                    } else {
                        out.push(format!("{violation} {other}"));
                    }
                }
                _ => out.push(self.record(rng)),
            }
        }
        out
    }
}

/// Cuts the journal's final record short, leaving at least one of its
/// bytes: the picture a crash mid-append leaves.
fn tear_last_record(dir: &Path, payload: &str, rng: &mut Rng) {
    let journal = dir.join(JOURNAL_FILE);
    let end = std::fs::metadata(&journal).unwrap().len();
    let record = 8 + payload.len() as u64;
    let cut = end - 1 - rng.usize(record as usize - 1) as u64;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&journal)
        .unwrap();
    file.set_len(cut).unwrap();
}

/// Builds a database on `program`, commits a short history, checkpoints,
/// appends a random tail (torn or not), and checks open against the
/// oracle — restoring the counts file or, without one, recomputing.
fn check_seed(name: &str, program: &str, seed: u64) {
    let label = format!("{name} seed {seed}");
    let mut rng = Rng::new(seed);
    let topo = topology(program, HOSTS_PER_ZONE);
    let pools = Pools::new(&topo);
    let dir = tmpdir(&format!("{name}_{seed}"));

    let mut db = DurableDb::init(&dir, &pretty::database(&topo.db)).unwrap();
    for _ in 0..3 {
        let txn = db.transaction(&pools.record(&mut rng)).unwrap();
        db.commit(&txn).unwrap();
    }
    db.checkpoint().unwrap();
    let (_, mut store) = db.into_parts();
    let len = 20 + rng.usize(30);
    let tail = pools.tail(&mut rng, len);
    store.record_commit_batch(&tail).unwrap();
    let torn = rng.bool();
    if torn {
        let unacknowledged = pools.record(&mut rng);
        store.record_commit_batch(&[&unacknowledged]).unwrap();
        drop(store);
        tear_last_record(&dir, &unacknowledged, &mut rng);
    } else {
        drop(store);
    }
    let restore = seed.is_multiple_of(2);
    if !restore {
        std::fs::remove_file(dir.join(COUNTS_FILE)).unwrap();
    }

    let snapshot_db = snapshot::read(&dir).unwrap().db;
    let mut oracle = serial_replay(&dir);
    let (mut db, report) = dduf::obs::capture(|| DurableDb::open(&dir).unwrap());
    let rec = db.recovery();
    assert_same_state(db.processor(), &oracle, &label);
    assert_eq!(rec.replayed, tail.len(), "{label}");
    assert_eq!(rec.truncated_bytes > 0, torn, "{label}");
    assert_eq!(rec.counts_restored, restore, "{label}");
    assert_eq!(
        report.counter("counts.persist", "", "missing"),
        u64::from(!restore),
        "{label}"
    );
    let net = base_difference(&snapshot_db, oracle.database());
    assert_eq!(rec.net_events, net, "{label}");
    assert_eq!(
        report.counter("recovery.open", "", "net_events"),
        net as u64,
        "{label}"
    );
    assert_eq!(
        report.counter("upward.maintain", "", "transactions"),
        u64::from(net > 0),
        "{label}: open runs one maintenance pass, or none"
    );

    // The recovered engine is live: the next commit lands where the
    // oracle's does.
    let next = pools.record(&mut rng);
    db.commit(&db.transaction(&next).unwrap()).unwrap();
    oracle.commit(&oracle.transaction(&next).unwrap()).unwrap();
    assert_same_state(db.processor(), &oracle, &format!("{label}: after {next}"));
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_equals_serial_replay_on_the_attack_graph() {
    for seed in 1..=8 {
        check_seed("attack_graph", ATTACK_GRAPH, seed);
    }
}

#[test]
fn open_equals_serial_replay_on_the_inventory() {
    for seed in 1..=8 {
        check_seed("inventory", INVENTORY, seed);
    }
}

/// Opens `dir` under a fresh collector and checks it against the oracle;
/// returns the `upward.maintain` transactions open ran and the recovery.
fn open_counting_passes(dir: &Path) -> (u64, dduf::persist::Recovery) {
    let oracle = serial_replay(dir);
    let (db, report) = dduf::obs::capture(|| DurableDb::open(dir).unwrap());
    assert_same_state(db.processor(), &oracle, &dir.display().to_string());
    (
        report.counter("upward.maintain", "", "transactions"),
        db.recovery(),
    )
}

#[test]
fn a_cancelling_tail_runs_no_pass_and_a_net_change_runs_one() {
    // Small: the oracle commits each of the 2 010 records.
    let topo = topology(ATTACK_GRAPH, 5);
    let (host, vuln) = &topo.vulnerable[0];
    let dir = tmpdir("gate");
    let (_, mut store) = DurableDb::init(&dir, &pretty::database(&topo.db))
        .unwrap()
        .into_parts();
    let pairs: Vec<String> = (0..1_000)
        .flat_map(|_| {
            [
                format!("+patched({host}, {vuln})."),
                format!("-patched({host}, {vuln})."),
            ]
        })
        .collect();
    store.record_commit_batch(&pairs).unwrap();
    drop(store);

    let (passes, rec) = open_counting_passes(&dir);
    assert_eq!(rec.replayed, 2_000);
    assert_eq!(rec.net_events, 0);
    assert_eq!(passes, 0, "a tail that cancels itself needs no pass");

    // Ten more records whose net change is two events.
    let (from, to) = &topo.firewall[0];
    let (_, mut store) = DurableDb::open(&dir).unwrap().into_parts();
    let mut more: Vec<String> = (0..4)
        .flat_map(|_| {
            [
                format!("+patched({host}, {vuln})."),
                format!("-patched({host}, {vuln})."),
            ]
        })
        .collect();
    more.push(format!("-hacl({from}, {to}). +patched({host}, {vuln})."));
    more.push("+host(island, z0). -critical(island).".to_string());
    store.record_commit_batch(&more).unwrap();
    drop(store);

    let (passes, rec) = open_counting_passes(&dir);
    assert_eq!(rec.replayed, 2_010);
    assert_eq!(rec.net_events, 2);
    assert_eq!(passes, 1, "the whole tail is one maintenance pass");
    std::fs::remove_dir_all(&dir).unwrap();
}
