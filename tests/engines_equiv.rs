//! Differential testing: the maintenance engine — its read path and its
//! commits — must agree with the semantic (state-diff) oracle on random
//! stratified programs and random transactions — the central correctness
//! property of the upward interpretation (the oracle *is* the event
//! definitions (1)/(2) of §3.1).
//!
//! Uses deterministic fuzz loops over the in-tree PRNG instead of
//! proptest so the suite builds offline; seeds are fixed, so every run
//! explores the same program/transaction pairs.

mod common;

use common::{gen_churn_txn, gen_txn, RandProgram, RecProgram, NODES};
use dduf::core::rng::Rng;
use dduf::core::upward::maintain::{MaintenanceEngine, Strategy};
use dduf::core::upward::{semantic, Goals};
use dduf::prelude::*;
use std::fmt::Write as _;

/// The engine's read of `txn` — the events of `goals`, every induced
/// event when `None` — on a fresh engine over `db`.
fn read(db: &Database, txn: &Transaction, goals: Option<&Goals>) -> UpwardResult {
    let engine = MaintenanceEngine::new(db).expect("stratified");
    engine.interpret_for(db, txn, goals).expect("read")
}

/// The engine's read ≡ the semantic oracle on random stratified programs
/// and transactions.
#[test]
fn incremental_equals_semantic() {
    let mut rng = Rng::new(0xE9E1);
    for case in 0..128 {
        let prog = RandProgram::gen(&mut rng);
        let db = parse_database(&prog.to_source()).expect("generated program parses");
        let old = materialize(&db).expect("stratified");
        let txn = gen_txn(&mut rng, &db);
        let a = semantic::interpret(&db, &old, &txn).expect("semantic");
        let b = read(&db, &txn, None);
        assert_eq!(a, b, "case {case}: {}", prog.to_source());
    }
}

/// The upward result matches the definitional diff: applying the
/// transaction and rematerializing yields exactly old ± events.
#[test]
fn events_reconstruct_new_state() {
    let mut rng = Rng::new(0x5EED2);
    for case in 0..128 {
        let prog = RandProgram::gen(&mut rng);
        let db = parse_database(&prog.to_source()).expect("parses");
        let old = materialize(&db).expect("stratified");
        let txn = gen_txn(&mut rng, &db);
        let res = read(&db, &txn, None);
        let new = materialize(&txn.apply(&db)).expect("new state");
        for (pred, _role) in db.program().predicates() {
            if !db.program().is_derived(pred) {
                continue;
            }
            let expected = new.relation(pred);
            let reconstructed = old
                .relation(pred)
                .difference(res.derived.relation(EventKind::Del, pred))
                .union(res.derived.relation(EventKind::Ins, pred));
            assert_eq!(expected, &reconstructed, "case {case}: mismatch on {pred}");
        }
    }
}

/// The engine's build of the derived state equals the oracle's
/// materialization, over the embedded example databases and random
/// stratified and recursive programs alike.
#[test]
fn engine_build_equals_materialize() {
    let mut dbs: Vec<(String, Database)> = vec![
        (
            "employment".into(),
            dduf::core::testkit::employment_db_with_condition(),
        ),
        ("chain_tc".into(), dduf::core::testkit::chain_tc_db(60)),
        ("wide".into(), dduf::core::testkit::wide_db(100)),
    ];
    let mut rng = Rng::new(0x7A11E1);
    for case in 0..32 {
        let prog = RandProgram::gen(&mut rng);
        let db = parse_database(&prog.to_source()).expect("generated program parses");
        dbs.push((format!("rand#{case}"), db));
    }
    for case in 0..16 {
        let prog = RecProgram::gen(&mut rng);
        let db = parse_database(&prog.to_source()).expect("generated program parses");
        dbs.push((format!("rec#{case}"), db));
    }

    for (name, db) in &dbs {
        let engine = MaintenanceEngine::new(db).expect("stratified");
        assert_eq!(
            engine.interpretation(),
            &materialize(db).expect("stratified"),
            "{name}: the engine's build diverges from materialize"
        );
    }
}

/// The trace counters are part of the determinism contract too: the
/// semantic fingerprint (every counter the recorder marks deterministic,
/// wall-times excluded) is bit-identical from run to run, for the
/// materializer over embedded and random programs — and so is the
/// engine's read of a random transaction, whose answer is the oracle's.
#[test]
fn trace_counters_identical_across_runs() {
    let mut dbs: Vec<(String, Database)> = vec![
        (
            "employment".into(),
            dduf::core::testkit::employment_db_with_condition(),
        ),
        ("chain_tc".into(), dduf::core::testkit::chain_tc_db(40)),
    ];
    let mut rng = Rng::new(0x0B5E01);
    for case in 0..16 {
        let prog = RandProgram::gen(&mut rng);
        let db = parse_database(&prog.to_source()).expect("generated program parses");
        dbs.push((format!("rand#{case}"), db));
    }

    for (name, db) in &dbs {
        let fingerprint = || {
            let (_, report) = dduf::obs::capture(|| materialize(db).expect("stratified"));
            assert!(!report.is_empty(), "{name}: no spans recorded");
            report.semantic_fingerprint()
        };
        assert_eq!(
            fingerprint(),
            fingerprint(),
            "{name}: trace diverges between runs"
        );
    }

    let mut rng = Rng::new(0x0B5E03);
    for case in 0..16 {
        let prog = RandProgram::gen(&mut rng);
        let db = parse_database(&prog.to_source()).expect("generated program parses");
        let old = materialize(&db).expect("stratified");
        let txn = gen_txn(&mut rng, &db);
        let engine = MaintenanceEngine::new(&db).expect("stratified");
        let run = || dduf::obs::capture(|| engine.interpret_for(&db, &txn, None).expect("read"));
        let ((first, report), (second, again)) = (run(), run());
        assert_eq!(
            first,
            semantic::interpret(&db, &old, &txn).expect("semantic")
        );
        assert_eq!(first, second, "case {case}");
        assert!(!report.is_empty(), "case {case}: no spans recorded");
        assert_eq!(
            report.semantic_fingerprint(),
            again.semantic_fingerprint(),
            "case {case}: the read's trace diverges between runs"
        );
    }
}

/// Runs `f` on `threads` threads at once and collects what each
/// returns. Evaluation runs on the thread that asks for it and keeps no
/// state outside its arguments, so any number of concurrent callers
/// over the same inputs must each get the single-caller answer.
fn on_threads<T: Send>(threads: usize, f: impl Fn() -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(&f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

/// A call of the oracle or of the engine's read, by name.
type UpwardCall<'a> = (&'static str, &'a (dyn Fn() -> UpwardResult + Sync));

/// The oracle and the engine's read give the oracle's answer to 1, 2 and
/// 8 threads calling them at once over one database, state, engine and
/// transaction.
#[test]
fn parallel_upward_matches_sequential_across_thread_counts() {
    let mut rng = Rng::new(0x7A11E2);
    for case in 0..48 {
        let prog = RandProgram::gen(&mut rng);
        let db = parse_database(&prog.to_source()).expect("parses");
        let old = materialize(&db).expect("stratified");
        let txn = gen_txn(&mut rng, &db);
        let engine = MaintenanceEngine::new(&db).expect("stratified");
        let oracle = || semantic::interpret(&db, &old, &txn).expect("semantic");
        let read = || engine.interpret_for(&db, &txn, None).expect("read");
        let expected = oracle();
        let calls: [UpwardCall<'_>; 2] = [("semantic", &oracle), ("read", &read)];
        for (name, upward) in calls {
            for threads in [1usize, 2, 8] {
                for got in on_threads(threads, upward) {
                    assert_eq!(
                        expected,
                        got,
                        "case {case}: {name} with {threads} concurrent callers diverges\n{}",
                        prog.to_source()
                    );
                }
            }
        }
    }
}

/// The oracle's and the read's counter fingerprints on `cases` random
/// program/transaction pairs drawn from `seed`: the one recorded on the
/// test thread equals the one every caller records when 2 or 8 threads
/// run the same interpretation at once.
fn assert_upward_fingerprints_invariant(seed: u64, cases: usize) {
    let mut rng = Rng::new(seed);
    for case in 0..cases {
        let prog = RandProgram::gen(&mut rng);
        let db = parse_database(&prog.to_source()).expect("parses");
        let old = materialize(&db).expect("stratified");
        let txn = gen_txn(&mut rng, &db);
        let engine = MaintenanceEngine::new(&db).expect("stratified");
        let oracle = || semantic::interpret(&db, &old, &txn).expect("semantic");
        let read = || engine.interpret_for(&db, &txn, None).expect("read");
        let calls: [UpwardCall<'_>; 2] = [("semantic", &oracle), ("read", &read)];
        for (name, upward) in calls {
            let fingerprint = || {
                let (_, report) = dduf::obs::capture(upward);
                assert!(!report.is_empty(), "case {case}: no spans recorded");
                report.semantic_fingerprint()
            };
            let baseline = fingerprint();
            for threads in [2usize, 8] {
                for got in on_threads(threads, fingerprint) {
                    assert_eq!(
                        baseline,
                        got,
                        "seed {seed:#x} case {case}: {name} trace diverges with \
                         {threads} concurrent callers\n{}",
                        prog.to_source()
                    );
                }
            }
        }
    }
}

/// Same contract for the oracle and the read: each one's counter
/// fingerprint is identical whether 1, 2 or 8 threads run it.
#[test]
fn upward_trace_counters_identical_across_thread_counts() {
    assert_upward_fingerprints_invariant(0x0B5E02, 24);
}

/// The planner's counters (`plan.compiled`, the indexed/scan probe split)
/// are part of that fingerprint and thread-count invariant too: they
/// depend only on the program, static binding patterns and relation sizes.
#[test]
fn planned_trace_fingerprints_invariant_across_thread_counts() {
    assert_upward_fingerprints_invariant(0x914C, 12);
}

/// Same-generation over a balanced binary tree of `depth` levels:
/// `up(child, parent)`, `down(parent, child)`, `flat(root, root)`.
fn same_generation_db(depth: u32) -> Database {
    let mut src = String::from(
        "sg(X, Y) :- flat(X, Y).
         sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
         flat(n0_0, n0_0).\n",
    );
    for lvl in 1..depth {
        for i in 0..(1u64 << lvl) {
            let (p, parent) = (lvl - 1, i / 2);
            let _ = writeln!(src, "up(n{lvl}_{i}, n{p}_{parent}).");
            let _ = writeln!(src, "down(n{p}_{parent}, n{lvl}_{i}).");
        }
    }
    parse_database(&src).expect("generated tree parses")
}

/// The shape whose deltas outgrow the literals they join with: the `sg`
/// pairs of level 4, 5 and 6 (4^level of them) outnumber `up` and `down`
/// (126 edges each). The engine's build still fires each new pair through
/// its compiled plan, so the model equals `materialize` and every probe
/// is counted.
#[test]
fn same_generation_deltas_outgrowing_their_joins_stay_planned_and_counted() {
    let db = same_generation_db(7);
    let (engine, report) = dduf::obs::capture(|| MaintenanceEngine::new(&db).expect("stratified"));
    assert_eq!(
        engine.interpretation(),
        &materialize(&db).expect("stratified"),
        "the engine's build diverges from materialize"
    );
    let probes = report.total("eval.scc", "probes");
    // Round 0 scans `flat` once. Each of the 5461 sg pairs (4^0 + … + 4^6)
    // is fired once as its seed: it probes `up` on its first node, and each
    // of the 1365 pairs above the leaves (4^0 + … + 4^5) matches two
    // children there and probes `down` once for each.
    assert_eq!(probes, 1 + 5461 + 2 * 1365);
    assert_eq!(
        report.total("eval.scc", "indexed_probes") + report.total("eval.scc", "scan_probes"),
        probes
    );
}

/// The `kind` events on `pred` for every goal, in goal order.
fn goal_events(res: &UpwardResult, goals: &Goals) -> Vec<(Pred, EventKind, Relation)> {
    goals
        .iter()
        .map(|&(pred, kind)| (pred, kind, res.derived.relation(kind, pred).clone()))
        .collect()
}

/// The contract of `MaintenanceEngine::interpret_for` on one case: exact
/// on the goals, a subset of the full interpretation elsewhere. Returns
/// its result.
fn assert_exact_on_goals(
    label: &str,
    db: &Database,
    old: &Interpretation,
    txn: &Transaction,
    goals: &Goals,
) -> UpwardResult {
    let full = semantic::interpret(db, old, txn).expect("semantic");
    let got = read(db, txn, Some(goals));
    assert_eq!(got.base, full.base, "{label}");
    assert_eq!(
        goal_events(&got, goals),
        goal_events(&full, goals),
        "{label}: goals {goals:?}, transaction {}",
        txn.events()
    );
    for e in got.derived.iter() {
        assert!(full.derived.contains(&e), "{label}: invented {e}");
    }
    got
}

/// Every derived event of `db`'s program: the goal set that asks for
/// everything.
fn every_derived_event(db: &Database) -> Goals {
    db.program()
        .predicates()
        .filter(|&(p, _)| db.program().is_derived(p))
        .flat_map(|(p, _)| [(p, EventKind::Ins), (p, EventKind::Del)])
        .collect()
}

/// A random subset of `all` (each goal with probability one third; may
/// be empty — an upward problem nobody asked anything of).
fn gen_goals(rng: &mut Rng, all: &Goals) -> Goals {
    all.iter().copied().filter(|_| rng.usize(3) == 0).collect()
}

/// Goal-directed upward interpretation is exact on its goals: random
/// stratified programs (non-recursive layers, and a recursive component
/// under counting-maintained layers) × random goal sets × random
/// transactions against the semantic oracle's full result — and with
/// every derived event as the goal, the result *is* the read with no
/// goals.
#[test]
fn goal_directed_equals_semantic_on_the_goals() {
    let mut rng = Rng::new(0x60A1);
    let mut pruned = 0;
    for case in 0..192 {
        let (source, txn_of): (String, fn(&mut Rng, &Database) -> Transaction) = if case % 2 == 0 {
            (RandProgram::gen(&mut rng).to_source(), gen_txn)
        } else {
            (RecProgram::gen(&mut rng).to_source(), gen_churn_txn)
        };
        let label = format!("case {case}:\n{source}");
        let db = parse_database(&source).expect("parses");
        let old = materialize(&db).expect("stratified");
        let txn = txn_of(&mut rng, &db);
        let everything = read(&db, &txn, None);
        let all = every_derived_event(&db);
        assert_eq!(
            read(&db, &txn, Some(&all)),
            everything,
            "{label}: asking for everything"
        );
        for _ in 0..3 {
            let goals = gen_goals(&mut rng, &all);
            let got = assert_exact_on_goals(&label, &db, &old, &txn, &goals);
            pruned += usize::from(got.derived.len() < everything.derived.len());
        }
    }
    assert!(
        pruned > 100,
        "the goals hardly ever left anything out: {pruned}"
    );
}

/// The variant that must not be built: pruning *evaluation* by event
/// kind. `ιgoal` needs `p(a)` and `p(b)`; the transaction inserts `p(a)`
/// and deletes `p(b)`. An engine that, asked for insertions, skipped the
/// deletions on `p` would read `Pⁿ = P° ∨ ιP` and invent `+goal(k)`:
/// `ιC` is blocked by `δP`. Once through a counted view, once through a
/// recursive component maintained above `p`.
#[test]
fn an_insertion_blocked_by_a_deletion_below_is_not_invented() {
    let counted = "b(b). m(k).
        p(X) :- b(X).
        goal(X) :- m(X), p(a), p(b).";
    let recursive = "b(b). m(k). e(k, k).
        p(X) :- b(X).
        goal(X) :- m(X), p(a), p(b).
        goal(X) :- goal(Y), e(Y, X).";
    for src in [counted, recursive] {
        let db = parse_database(src).unwrap();
        let txn = Transaction::parse(&db, "+b(a). -b(b).").unwrap();
        let goals: Goals = [(Pred::new("goal", 1), EventKind::Ins)].into();
        let old = materialize(&db).unwrap();
        let got = assert_exact_on_goals(src, &db, &old, &txn, &goals);
        assert!(got
            .derived
            .relation(EventKind::Ins, Pred::new("goal", 1))
            .is_empty());
        // It got that far: both events on `p` are in the cone's result.
        assert_eq!(got.derived.to_string(), "{+p(a), -p(b)}");
    }
}

/// Replays `steps` transactions drawn from `gen` through a fresh
/// maintenance engine over `src` (after `expect_strategies` has checked
/// the selection matrix). At every step the induced events must equal
/// the semantic oracle, the carried extensions must equal a full
/// recompute, and every live tuple
/// must have a positive support count (statefulness is the point: counts
/// must stay correct step after step).
fn maintained_stream_matches_semantic(
    label: &str,
    src: &str,
    rng: &mut Rng,
    steps: usize,
    gen: fn(&mut Rng, &Database) -> Transaction,
    expect_strategies: impl Fn(&Database, &MaintenanceEngine),
) {
    let mut db = parse_database(src).expect("parses");
    let mut old = materialize(&db).expect("stratified");
    let mut engine = MaintenanceEngine::new(&db).expect("mixed strategies");
    expect_strategies(&db, &engine);
    assert_eq!(
        dduf::datalog::pretty::derived(engine.interpretation()),
        dduf::datalog::pretty::derived(&old),
        "{label}: the engine's build differs from materialize\n{src}"
    );

    for step in 0..steps {
        let txn = gen(rng, &db);
        let expected = semantic::interpret(&db, &old, &txn).expect("semantic");
        let got = engine.apply(&db, &txn).expect("maintained");
        assert_eq!(
            got,
            expected,
            "{label} step {step} ({} events):\n{src}",
            txn.events().len(),
        );
        db = txn.apply(&db);
        old = materialize(&db).expect("new state");
        if let Err(broken) = engine.check_ranks(&db) {
            panic!("{label} step {step}: {broken}\n{src}");
        }
        // Full-recompute equality of the carried state, every step.
        assert_eq!(
            dduf::datalog::pretty::derived(engine.interpretation()),
            dduf::datalog::pretty::derived(&old),
            "{label} step {step}: maintained extensions drifted"
        );
        for (pred, rel) in old.iter() {
            for t in rel.iter() {
                assert!(
                    engine.count(pred, t) > 0,
                    "{label} step {step}: zero count for live {pred}{t}"
                );
            }
        }
    }
}

/// The stateful maintenance engine (counting strata + DRed SCCs,
/// selected automatically) agrees with the semantic oracle over whole
/// transaction *sequences*, on two families of input: deletion-heavy
/// streams over recursive programs, and toggle streams over
/// non-recursive ones, where every predicate is maintained by counting
/// (\[GMS93\]).
#[test]
fn maintenance_matches_semantic_over_streams() {
    let mut rng = Rng::new(0xD8ED);
    for case in 0..48 {
        let prog = RecProgram::gen(&mut rng);
        let steps = 1 + rng.usize(4);
        // The selection matrix: recursive SCC members run DRed, the
        // non-recursive strata above keep counting.
        let h = Pred::new(prog.scc_head(), 2);
        maintained_stream_matches_semantic(
            &format!("recursive case {case}"),
            &prog.to_source(),
            &mut rng,
            steps,
            gen_churn_txn,
            |_, engine| {
                assert_eq!(engine.strategy(h), Some(Strategy::DRed), "case {case}");
                assert_eq!(
                    engine.strategy(Pred::new("cyc", 1)),
                    Some(Strategy::Counting),
                    "case {case}"
                );
            },
        );
    }

    let mut rng = Rng::new(0xC0117);
    for case in 0..64 {
        let prog = RandProgram::gen(&mut rng);
        let steps = 1 + rng.usize(3);
        maintained_stream_matches_semantic(
            &format!("non-recursive case {case}"),
            &prog.to_source(),
            &mut rng,
            steps,
            gen_txn,
            |db, engine| {
                for (p, _role) in db.program().predicates() {
                    if db.program().is_derived(p) {
                        assert_eq!(engine.strategy(p), Some(Strategy::Counting), "case {case}");
                    }
                }
            },
        );
    }
}

/// One to three events, deletions of live edges and insertions of random
/// ones in balance, so the graph stays dense enough to keep its cycles and
/// alternative paths over a long stream.
fn gen_balanced_txn(rng: &mut Rng, db: &Database) -> Transaction {
    let e = Pred::new("e", 2);
    let node = |rng: &mut Rng| Const::sym(NODES[rng.usize(NODES.len())]);
    let live: Vec<Tuple> = db.relation(e).iter().cloned().collect();
    let mut events = std::collections::BTreeMap::new();
    for _ in 0..1 + rng.usize(3) {
        match live.get(rng.usize(live.len().max(1))) {
            Some(t) if rng.bool() => events.insert(t.clone(), EventKind::Del),
            _ => events.insert(Tuple::new(vec![node(rng), node(rng)]), EventKind::Ins),
        };
    }
    let events = events
        .into_iter()
        .map(|(t, kind)| GroundEvent::new(kind, e, t));
    Transaction::from_events(db, events).expect("validated")
}

/// The same recursive family over streams long enough that the engine
/// ranks its components (the first pass that re-derives a tuple) and then
/// maintains them rank-pruned: events, extensions and the rank invariant
/// are checked on every step, the rank-building one included.
#[test]
fn ranked_maintenance_matches_semantic_over_long_streams() {
    let mut rng = Rng::new(0x4A4E);
    let ((), report) = dduf::obs::capture(|| {
        for case in 0..16 {
            let prog = RecProgram::gen(&mut rng);
            maintained_stream_matches_semantic(
                &format!("long recursive case {case}"),
                &prog.to_source(),
                &mut rng,
                24,
                gen_balanced_txn,
                |_, _| {},
            );
        }
    });
    let total = |name| report.total("upward.maintain", name);
    eprintln!(
        "built {} checked {} over {} red {}",
        total("ranks_built"),
        total("checked"),
        total("overdeleted"),
        total("rederived")
    );
    assert!(total("ranks_built") > 100, "components were not ranked");
    assert!(total("checked") > 100, "ranked passes checked nothing");
    assert!(total("checked") > total("overdeleted"), "nothing was kept");
}

/// The maintained stream's trace fingerprint is deterministic: two fresh
/// engines replay the same transaction stream with bit-identical
/// deterministic counters and identical final extensions.
#[test]
fn maintained_stream_fingerprints_are_deterministic() {
    let mut rng = Rng::new(0xD8ED2);
    for case in 0..8 {
        let prog = RecProgram::gen(&mut rng);
        let db0 = parse_database(&prog.to_source()).expect("parses");
        // Pre-generate the stream so every run replays the same one.
        let mut txns = Vec::new();
        let mut db = db0.clone();
        for _ in 0..3 {
            let txn = gen_churn_txn(&mut rng, &db);
            db = txn.apply(&db);
            txns.push(txn);
        }

        let run = || {
            let mut engine = MaintenanceEngine::new(&db0).expect("engine");
            let mut db = db0.clone();
            let (_, report) = dduf::obs::capture(|| {
                for txn in &txns {
                    engine.apply(&db, txn).expect("maintained");
                    db = txn.apply(&db);
                }
            });
            (
                dduf::datalog::pretty::derived(engine.interpretation()),
                report.semantic_fingerprint(),
            )
        };

        let (state, fp) = run();
        let (s, f) = run();
        assert_eq!(state, s, "case {case}: state differs between runs");
        assert_eq!(fp, f, "case {case}: trace fingerprint differs between runs");
    }
}
