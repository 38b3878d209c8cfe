//! High-churn maintenance workload: incremental view maintenance
//! (counting strata + DRed for the recursive SCC, selected
//! automatically by [`MaintenanceEngine`]) versus full recompute, on a
//! database whose recursive view holds hundreds of thousands of tuples.
//!
//! The workload is `N` disjoint chains of length `L` under transitive
//! closure (`tc` ≈ `N·L·(L+1)/2` tuples) plus non-recursive counting
//! views, churned by a deletion-heavy stream: each step cuts a random
//! mid-chain edge or repairs a previous cut, so deletions really tear
//! down long derivation suffixes. `engine_build_s` times
//! `MaintenanceEngine::new` from the facts alone: the whole build of the
//! derived state, extensions and support counts. `full_recompute_s` times
//! the same build on every step's new state — production's own recompute,
//! the one a recompute-open pays. Every step's induced events are
//! asserted equal to `new ∖ old` and `old ∖ new` of consecutive rebuilt
//! extensions (definitions (1)/(2) of §3.1), and the final maintained
//! extensions must equal the naive oracle's materialization.
//!
//! A second segment measures the persisted-counts recovery path:
//! checkpoint, simulate a SIGKILL by copying the durable directory
//! (exactly the on-disk picture a killed process leaves — the advisory
//! lock dies with the process and is not part of the files), reopen,
//! and assert via the `counts.persist`/`recovery.open` trace counters
//! that the support counts were restored without a full recompute.
//!
//! Run with: `cargo run --release -p dduf-bench --bin maint_churn`
//! Knobs: `MAINT_CHURN_CHAINS` (default 300), `MAINT_CHURN_LEN`
//! (default 40), `MAINT_CHURN_STEPS` (default 40), `BENCH_MAINT_OUT`
//! (default `BENCH_maint.json`).

use dduf_core::rng::Rng;
use dduf_core::transaction::Transaction;
use dduf_core::upward::maintain::MaintenanceEngine;
use dduf_datalog::ast::{Const, Pred};
use dduf_datalog::eval::materialize;
use dduf_datalog::parser::parse_database;
use dduf_datalog::pretty;
use dduf_datalog::storage::database::Database;
use dduf_datalog::storage::tuple::Tuple;
use dduf_events::{EventKind, GroundEvent};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn node(chain: usize, i: usize) -> Const {
    Const::sym(&format!("c{chain}_{i}"))
}

/// The chain schema: a recursive SCC (`tc`) that DRed maintains, and
/// non-recursive views above and beside it that counting maintains.
fn schema_source(chains: usize, len: usize) -> String {
    let mut src = String::from(
        "#base e/2.\n#base m/1.\n\
         tc(X, Y) :- e(X, Y).\n\
         tc(X, Y) :- e(X, Z), tc(Z, Y).\n\
         src(X) :- e(X, Y).\n\
         quiet(X) :- m(X), not src(X).\n",
    );
    for c in 0..chains {
        for i in 0..len {
            let _ = writeln!(src, "e(c{c}_{i}, c{c}_{}).", i + 1);
        }
    }
    for c in 0..chains {
        let _ = writeln!(src, "m(c{c}_0).");
    }
    src
}

/// Deletion-heavy churn: cut a random mid-chain edge, or repair the
/// oldest standing cut (so the database keeps its size over time).
fn churn_txn(
    rng: &mut Rng,
    db: &Database,
    chains: usize,
    len: usize,
    cuts: &mut Vec<(usize, usize)>,
) -> Transaction {
    let e = Pred::new("e", 2);
    // Two thirds of the steps delete while cuts are scarce; once a
    // backlog builds up, repairs balance the stream.
    let delete = cuts.len() < 2 || (rng.usize(3) < 2 && cuts.len() < chains / 2);
    let events = if delete {
        loop {
            let c = rng.usize(chains);
            let i = 1 + rng.usize(len - 1); // mid-chain: real teardown
            let t = Tuple::new(vec![node(c, i), node(c, i + 1)]);
            if db.holds(e, &t) {
                cuts.push((c, i));
                break vec![GroundEvent::new(EventKind::Del, e, t)];
            }
        }
    } else {
        let (c, i) = cuts.remove(0);
        vec![GroundEvent::new(
            EventKind::Ins,
            e,
            Tuple::new(vec![node(c, i), node(c, i + 1)]),
        )]
    };
    Transaction::from_events(db, events).expect("validated churn event")
}

/// The process's resident-set high-water mark (`VmHWM`) in MB; 0 where
/// `/proc/self/status` does not exist.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct ChurnResult {
    base_facts: usize,
    derived_tuples: usize,
    /// `MaintenanceEngine::new` from the facts alone: the whole build of
    /// the derived state (every extension and every support count).
    build_s: f64,
    incremental_s: f64,
    /// High-water mark once the incremental segment is through: the
    /// parsed database, the engine (extensions, support counts, ranks and
    /// indexes) and the old/new states its steps held at once — read
    /// before the recompute segment builds anything, so the one copy of
    /// the derived state is the engine's, as in production.
    rss_peak_mb: f64,
    /// `MaintenanceEngine::new` on every step's new state, summed.
    recompute_s: f64,
    speedup: f64,
}

/// Drives the same pre-generated stream through the maintenance engine
/// and through a per-step rebuild of the engine on the new state,
/// asserting that each step's induced events are the difference of
/// consecutive rebuilt extensions and that the final state is the
/// oracle's.
fn run_churn(chains: usize, len: usize, steps: usize) -> ChurnResult {
    let db0 = parse_database(&schema_source(chains, len)).expect("schema parses");

    // Pre-generate the stream so both engines replay the exact same
    // transactions.
    let mut rng = Rng::new(0xC4A1);
    let mut cuts = Vec::new();
    let mut txns = Vec::with_capacity(steps);
    let mut db = db0.clone();
    for _ in 0..steps {
        let txn = churn_txn(&mut rng, &db, chains, len, &mut cuts);
        db = txn.apply(&db);
        txns.push(txn);
    }

    // Incremental: one stateful engine across the whole stream.
    let t = Instant::now();
    let mut engine = MaintenanceEngine::new(&db0).expect("engine builds");
    let build_s = t.elapsed().as_secs_f64();
    let derived_tuples: usize = [
        Pred::new("tc", 2),
        Pred::new("src", 1),
        Pred::new("quiet", 1),
    ]
    .iter()
    .map(|&p| engine.extension(p).len())
    .sum();
    let mut db = db0.clone();
    let mut incremental_s = 0.0;
    let mut inc_events = Vec::with_capacity(steps);
    for txn in &txns {
        let t = Instant::now();
        let res = engine.apply(&db, txn).expect("maintained step");
        incremental_s += t.elapsed().as_secs_f64();
        inc_events.push(res);
        db = txn.apply(&db);
    }
    let rss_peak_mb = rss_peak_mb();

    // Full recompute: production's build of the derived state on every
    // step's new state. Each step's incremental events are the difference
    // of consecutive rebuilt extensions (the first one built untimed).
    let derived: BTreeSet<Pred> = db0
        .program()
        .predicates()
        .map(|(p, _)| p)
        .filter(|&p| db0.program().is_derived(p))
        .collect();
    let mut old = MaintenanceEngine::new(&db0).expect("engine builds");
    let mut db2 = db0;
    let mut recompute_s = 0.0;
    for (step, (txn, res)) in txns.iter().zip(&inc_events).enumerate() {
        db2 = txn.apply(&db2);
        let t = Instant::now();
        let new = MaintenanceEngine::new(&db2).expect("engine rebuilds");
        recompute_s += t.elapsed().as_secs_f64();
        for &p in &derived {
            let (before, after) = (old.extension(p), new.extension(p));
            for (kind, expected) in [
                (EventKind::Ins, after.difference(before)),
                (EventKind::Del, before.difference(after)),
            ] {
                assert_eq!(
                    res.derived.relation(kind, p),
                    &expected,
                    "step {step}: incremental {kind:?} events on {p} diverge from the rebuild"
                );
            }
        }
        old = new;
    }

    // Final state: maintained extensions == the naive oracle's.
    let oracle = materialize(&db2).expect("stratified");
    assert_eq!(
        pretty::derived(engine.interpretation()),
        pretty::derived(&oracle),
        "final maintained state diverges from materialize"
    );

    ChurnResult {
        base_facts: db.fact_count(),
        derived_tuples,
        build_s,
        incremental_s,
        rss_peak_mb,
        recompute_s,
        speedup: recompute_s / incremental_s,
    }
}

struct RecoveryResult {
    restored_tuples: u64,
    restore_open_s: f64,
    recompute_open_s: f64,
}

/// Copies the durable files — the exact picture a SIGKILL leaves, since
/// the advisory lock is a kernel object on the dead process's fd, not
/// file content.
fn sigkill_copy(src: &Path, name: &str) -> PathBuf {
    let dst = src.with_file_name(format!(
        "{}-{name}",
        src.file_name().unwrap().to_string_lossy()
    ));
    let _ = std::fs::remove_dir_all(&dst);
    std::fs::create_dir_all(&dst).expect("create crash copy dir");
    for file in [
        dduf_persist::SNAPSHOT_FILE,
        dduf_persist::JOURNAL_FILE,
        dduf_persist::COUNTS_FILE,
    ] {
        std::fs::copy(src.join(file), dst.join(file)).expect("copy durable file");
    }
    dst
}

/// Checkpoint → SIGKILL → recover: the reopened database must restore
/// its support counts from the persisted section (trace counters
/// `counts.persist{loaded=1}`, `recovery.open{replayed=0}`) instead of
/// recomputing, and removing the counts file must flip it to the
/// recompute path — same state either way.
fn run_recovery(chains: usize, len: usize, steps: usize) -> RecoveryResult {
    let dir = std::env::temp_dir().join(format!("dduf-maint-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db =
        dduf_persist::DurableDb::init(&dir, &schema_source(chains, len)).expect("init durable db");

    let mut rng = Rng::new(0xC4A2);
    let mut cuts = Vec::new();
    for _ in 0..steps.min(8) {
        let txn = churn_txn(&mut rng, db.processor().database(), chains, len, &mut cuts);
        db.commit(&txn).expect("durable commit");
    }
    db.checkpoint().expect("checkpoint");
    let crash = sigkill_copy(&dir, "crash");
    let reference = pretty::database(db.processor().database());
    drop(db);

    let t = Instant::now();
    let (recovered, report) =
        dduf_obs::capture(|| dduf_persist::DurableDb::open(&crash).expect("recover"));
    let restore_open_s = t.elapsed().as_secs_f64();
    assert!(
        recovered.recovery().counts_restored,
        "recovery must restore the persisted counts"
    );
    assert_eq!(report.total("counts.persist", "loaded"), 1);
    assert_eq!(report.total("counts.persist", "recompute"), 0);
    assert_eq!(
        report.total("recovery.open", "replayed"),
        0,
        "the checkpoint covers every commit"
    );
    let restored_tuples = report.total("counts.persist", "restored_tuples");
    assert!(restored_tuples > 0, "restored counts must be non-empty");
    assert_eq!(
        pretty::database(recovered.processor().database()),
        reference,
        "recovered state diverges"
    );
    drop(recovered);

    // Baseline: the same open without a counts file recomputes.
    std::fs::remove_file(crash.join(dduf_persist::COUNTS_FILE)).expect("drop counts");
    let t = Instant::now();
    let (recovered, report) =
        dduf_obs::capture(|| dduf_persist::DurableDb::open(&crash).expect("recover"));
    let recompute_open_s = t.elapsed().as_secs_f64();
    assert!(!recovered.recovery().counts_restored);
    assert_eq!(report.total("counts.persist", "recompute"), 1);
    assert_eq!(
        pretty::database(recovered.processor().database()),
        reference,
        "recompute recovery diverges"
    );
    drop(recovered);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
    RecoveryResult {
        restored_tuples,
        restore_open_s,
        recompute_open_s,
    }
}

fn main() {
    let chains = env_usize("MAINT_CHURN_CHAINS", 300);
    let len = env_usize("MAINT_CHURN_LEN", 40);
    let steps = env_usize("MAINT_CHURN_STEPS", 40);

    let churn = run_churn(chains, len, steps);
    let recovery = run_recovery(chains, len, steps);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"maint_churn\",");
    let _ = writeln!(json, "  \"chains\": {chains},");
    let _ = writeln!(json, "  \"chain_len\": {len},");
    let _ = writeln!(json, "  \"steps\": {steps},");
    let _ = writeln!(json, "  \"base_facts\": {},", churn.base_facts);
    let _ = writeln!(json, "  \"derived_tuples\": {},", churn.derived_tuples);
    let _ = writeln!(json, "  \"identical_events\": true,");
    let _ = writeln!(json, "  \"identical_final_state\": true,");
    let _ = writeln!(json, "  \"engine_build_s\": {:.4},", churn.build_s);
    let _ = writeln!(json, "  \"incremental_s\": {:.4},", churn.incremental_s);
    let _ = writeln!(json, "  \"rss_peak_mb\": {:.1},", churn.rss_peak_mb);
    let _ = writeln!(json, "  \"full_recompute_s\": {:.4},", churn.recompute_s);
    let _ = writeln!(json, "  \"speedup\": {:.2},", churn.speedup);
    let _ = writeln!(json, "  \"recovery\": {{");
    let _ = writeln!(json, "    \"counts_restored\": true,");
    let _ = writeln!(json, "    \"replayed_after_checkpoint\": 0,");
    let _ = writeln!(
        json,
        "    \"restored_tuples\": {},",
        recovery.restored_tuples
    );
    let _ = writeln!(
        json,
        "    \"restore_open_s\": {:.4},",
        recovery.restore_open_s
    );
    let _ = writeln!(
        json,
        "    \"recompute_open_s\": {:.4}",
        recovery.recompute_open_s
    );
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    let out = std::env::var("BENCH_MAINT_OUT").unwrap_or_else(|_| "BENCH_maint.json".into());
    std::fs::write(&out, &json).expect("write BENCH_maint.json");

    println!(
        "maint_churn: {} chains x {} ({} base facts, {} derived tuples), {} steps",
        chains, len, churn.base_facts, churn.derived_tuples, steps
    );
    println!(
        "incremental {:.3}s vs full recompute {:.3}s -> {:.2}x (events and states identical); \
         resident peak after the incremental segment {:.1} MB",
        churn.incremental_s, churn.recompute_s, churn.speedup, churn.rss_peak_mb
    );
    println!(
        "recovery: {} support counts restored in {:.3}s (recompute path: {:.3}s), 0 records replayed",
        recovery.restored_tuples, recovery.restore_open_s, recovery.recompute_open_s
    );
    assert!(
        churn.speedup >= 3.0,
        "incremental maintenance must beat full recompute by >= 3x, got {:.2}x",
        churn.speedup
    );
    eprintln!("wrote {out}");
}
