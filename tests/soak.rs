//! Long-horizon soak test: drive one database through hundreds of
//! randomized steps mixing every problem of the catalog, checking the
//! global invariants after each step:
//!
//! * the processor's interpretation always equals a from-scratch
//!   materialization;
//! * committed transactions never leave the database inconsistent when
//!   integrity checking accepted them;
//! * the reported view events turn each stored view extension into a
//!   fresh materialization's;
//! * every downward alternative offered verifies by upward replay.

use dduf::core::rng::Rng;
use dduf::prelude::*;

mod common;
use common::commit_maintaining_views;

const PEOPLE: [&str; 6] = ["ana", "ben", "cara", "dan", "eva", "finn"];

fn db() -> Database {
    parse_database(
        "#cond needy/1.
         la(ana). u_benefit(ana). la(ben). works(ben).
         unemp(X) :- la(X), not works(X).
         covered(X) :- works(X).
         covered(X) :- u_benefit(X).
         needy(X) :- la(X), not covered(X).
         :- unemp(X), not u_benefit(X).",
    )
    .unwrap()
}

#[test]
fn soak_300_steps() {
    let mut rng = Rng::new(20260705);
    let mut proc = UpdateProcessor::new(db()).unwrap();
    let base_preds = ["la", "works", "u_benefit"];
    let mut commits = 0usize;
    let mut rejects = 0usize;
    let mut downwards = 0usize;

    for step in 0..300 {
        match rng.usize(10) {
            // 0..6: random base transaction through check-then-commit
            0..=5 => {
                let k = 1 + rng.usize(3);
                let mut events = Vec::new();
                let mut seen = std::collections::BTreeSet::new();
                for _ in 0..k {
                    let pred = *rng.choose(&base_preds);
                    let person = *rng.choose(&PEOPLE);
                    if !seen.insert((pred, person)) {
                        continue;
                    }
                    let p = Pred::new(pred, 1);
                    let t = Tuple::new(vec![Const::sym(person)]);
                    let kind = if proc.database().holds(p, &t) {
                        EventKind::Del
                    } else {
                        EventKind::Ins
                    };
                    events.push(GroundEvent::new(kind, p, t));
                }
                let txn = Transaction::from_events(proc.database(), events).unwrap();
                if proc.check_integrity(&txn).unwrap().accepts() {
                    commit_maintaining_views(&mut proc, &txn, step);
                    commits += 1;
                } else {
                    rejects += 1;
                }
            }
            // 6..8: view update via downward, commit first alternative
            6 | 7 => {
                let person = *rng.choose(&PEOPLE);
                let kind = if rng.bool() {
                    EventKind::Ins
                } else {
                    EventKind::Del
                };
                let req =
                    Request::new().achieve(kind, Atom::ground("unemp", vec![Const::sym(person)]));
                let res = proc.view_update_with_integrity(&req).unwrap();
                downwards += 1;
                for alt in res.alternatives.iter().take(3) {
                    assert!(
                        dduf::core::downward::verify(
                            proc.database(),
                            proc.interpretation(),
                            &req,
                            alt
                        )
                        .unwrap(),
                        "step {step}: unsound alternative {alt}"
                    );
                }
                if let Some(alt) = res.alternatives.first() {
                    let txn = alt.to_transaction(proc.database()).unwrap();
                    commit_maintaining_views(&mut proc, &txn, step);
                    commits += 1;
                }
            }
            // 8: monitoring (read-only)
            8 => {
                let person = *rng.choose(&PEOPLE);
                let txn = proc.transaction(&format!("+la({person}).")).unwrap();
                let _ = proc.monitor_conditions(&txn).unwrap();
            }
            // 9: repair if ever inconsistent (should not happen)
            _ => {
                use dduf::core::problems::repair::RepairOutcome;
                match proc.repairs().unwrap() {
                    RepairOutcome::AlreadyConsistent | RepairOutcome::NoConstraints => {}
                    RepairOutcome::Repairs(_) => {
                        panic!("step {step}: database became inconsistent despite checking")
                    }
                }
            }
        }

        // Invariants after every step.
        let fresh = materialize(proc.database()).unwrap();
        assert_eq!(
            proc.interpretation(),
            &fresh,
            "step {step}: stale interpretation"
        );
        if let Some(ic) = proc.database().program().global_ic() {
            assert!(
                fresh.relation(ic).is_empty(),
                "step {step}: inconsistent state committed"
            );
        }
    }

    // The workload must have actually exercised the machinery.
    assert!(commits > 50, "only {commits} commits");
    assert!(downwards > 10, "only {downwards} downward runs");
    let _ = rejects;
}

/// Durable soak: drive a journaled database through random commits and
/// periodic checkpoints, then check that the persistence trace counters
/// agree with the on-disk ground truth — `journal.append` bytes sum to
/// exactly the journal growth, the journal end is strictly monotone, the
/// snapshot writer ran once per checkpoint (plus init) — and that two
/// captured recoveries are bit-identical to each other and to the
/// pre-crash state.
#[test]
fn durable_soak_journal_metrics_and_recovery() {
    const SCHEMA: &str = "#cond needy/1.
         la(ana). u_benefit(ana). la(ben). works(ben).
         unemp(X) :- la(X), not works(X).
         covered(X) :- works(X).
         covered(X) :- u_benefit(X).
         needy(X) :- la(X), not covered(X).
         :- unemp(X), not u_benefit(X).";
    let dir = std::env::temp_dir().join(format!("dduf_soak_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base_preds = ["la", "works", "u_benefit"];
    let mut rng = Rng::new(20260807);

    let ((commits, checkpoints, snapshot_pos, final_end, saved), report) =
        dduf::obs::capture(|| {
            let mut db = DurableDb::init(&dir, SCHEMA).unwrap();
            let mut prev_end = db.store().journal_end();
            let mut commits = 0u64;
            let mut checkpoints = 0u64;
            let mut snapshot_pos = prev_end;
            for step in 0..60 {
                let pred = *rng.choose(&base_preds);
                let person = *rng.choose(&PEOPLE);
                let p = Pred::new(pred, 1);
                let t = Tuple::new(vec![Const::sym(person)]);
                let sign = if db.processor().database().holds(p, &t) {
                    '-'
                } else {
                    '+'
                };
                let txn = db.transaction(&format!("{sign}{pred}({person}).")).unwrap();
                db.commit(&txn).unwrap();
                commits += 1;
                let end = db.store().journal_end();
                assert!(
                    end > prev_end,
                    "step {step}: journal end {end} did not advance past {prev_end}"
                );
                prev_end = end;
                if step % 20 == 9 {
                    snapshot_pos = db.checkpoint().unwrap();
                    checkpoints += 1;
                }
            }
            let saved = dduf::datalog::pretty::database(db.processor().database());
            (commits, checkpoints, snapshot_pos, prev_end, saved)
        });

    // Counters vs ground truth: every commit appended one fsynced record,
    // and the bytes recorded are exactly the journal growth past the
    // 8-byte magic header.
    assert_eq!(report.counter("journal.append", "", "appends"), commits);
    assert_eq!(report.counter("journal.append", "", "fsyncs"), commits);
    assert_eq!(report.counter("journal.append", "", "bytes"), final_end - 8);
    assert_eq!(
        report.counter("snapshot.write", "", "writes"),
        checkpoints + 1,
        "one snapshot per checkpoint plus the one init writes"
    );

    // Two captured recoveries (sequential — the directory lock forbids
    // concurrent openers): identical trace fingerprints, identical
    // recovery records, and a state equal to what was committed.
    let (first, rep1) = dduf::obs::capture(|| DurableDb::open(&dir).unwrap());
    let first_recovery = first.recovery();
    let first_saved = dduf::datalog::pretty::database(first.processor().database());
    drop(first); // release dduf.lock for the second open
    let (second, rep2) = dduf::obs::capture(|| DurableDb::open(&dir).unwrap());
    assert_eq!(rep1.semantic_fingerprint(), rep2.semantic_fingerprint());
    assert_eq!(first_recovery, second.recovery());
    assert_eq!(
        rep1.counter("recovery.open", "", "replayed"),
        first_recovery.replayed as u64
    );
    assert_eq!(rep1.counter("recovery.open", "", "truncated_bytes"), 0);
    // Open reads the tail past the last checkpoint and nothing before it.
    assert_eq!(first_recovery.snapshot_pos, snapshot_pos);
    assert_eq!(
        first_recovery.replayed, 10,
        "commits since the last checkpoint"
    );
    assert_eq!(rep1.counter("journal.scan", "", "records"), 10);
    assert_eq!(
        rep1.counter("journal.scan", "", "bytes"),
        final_end - snapshot_pos
    );
    assert!(commits > 10);
    assert_eq!(
        first_saved, saved,
        "recovered state differs from the committed one"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
