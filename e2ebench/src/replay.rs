//! The traced replay: the workload's operation list again, in this
//! process, on one thread, through the layers' public functions, with a
//! span recorded around each call.
//!
//! The loop mirrors `crates/server/src/writer.rs` (pipelined mode): per
//! commit `transaction` → `check_integrity` → `serialize_transaction` →
//! `commit` and one response frame; per batch one clone of the state to
//! publish, one `record_commit_batch` and one drop of the state that was
//! published before. Counters repeat exactly for a seed because the
//! replay stages a fixed number of commits, not a fixed time.

use crate::calib::{Calibrator, Clock};
use crate::gen::{Op, OpStream, World, ATTACKERS};
use crate::server::{Paths, Result};
use crate::spec::{Program, Workload};
use crate::stats::median;
use dduf_core::processor::{ProcessorState, UpdateProcessor};
use dduf_datalog::ast::Atom;
use dduf_persist::{serialize_transaction, DurableDb, DurableStore};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions of each cold-path call (parse, materialize, open, …).
const REPS: usize = 3;
/// Repetitions of each query.
const QUERIES: usize = 20;
/// Journal records behind the checkpoint when `replay_us_per_record`
/// is measured.
const TAIL_RECORDS: usize = 32;

pub struct Replay {
    /// Every per-layer metric of `spec::PER_LAYER`, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

/// What the end-to-end run of the same inputs measured.
pub struct Measured {
    /// Time the write path spent per commit, µs (`E2e::us_per_commit`).
    pub us_per_commit: f64,
    pub commits_per_fsync: Option<f64>,
}

/// The spans of one layer call: start and end of each.
#[derive(Default)]
struct Spans(Vec<(Instant, Instant)>);

impl Spans {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let from = Instant::now();
        let out = f();
        self.0.push((from, Instant::now()));
        out
    }

    /// The spans' lengths in calibrated µs, like every time the
    /// end-to-end part reports.
    fn timed(self, clock: &Clock) -> Times {
        Times(
            self.0
                .iter()
                .map(|(from, to)| clock.between(*from, *to) * 1e6)
                .collect(),
        )
    }
}

/// Span durations of one layer call, µs each.
struct Times(Vec<f64>);

impl Times {
    fn median(&mut self) -> f64 {
        median(&mut self.0)
    }

    fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("replay: {what}: {e}")
}

fn request(op: &Op) -> &str {
    op.line
        .strip_prefix(":apply ")
        .expect("every generated commit is an :apply")
}

/// Parses a query atom the way the session does.
fn atom(src: &str) -> Result<Atom> {
    let out = dduf_datalog::parser::parse_program(&format!("query_tmp :- {src}."))
        .map_err(err("query atom"))?;
    Ok(out.program.rules()[0].body[0].atom.clone())
}

/// Stages `ops` on `proc` the way the writer's `stage_one` does.
fn stage(proc: &mut UpdateProcessor, ops: &[Op]) -> Result<()> {
    for op in ops {
        let txn = proc.transaction(request(op)).map_err(err("transaction"))?;
        black_box(proc.check_integrity(&txn).map_err(err("check_integrity"))?);
        black_box(proc.commit(&txn).map_err(err("commit"))?);
    }
    Ok(())
}

fn file_len(dir: &Path, name: &str) -> Result<f64> {
    let path = dir.join(name);
    let meta = std::fs::metadata(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(meta.len() as f64)
}

/// [`REPS`] timed calls of `DurableDb::open`, and the last handle.
fn time_open(dir: &Path) -> Result<(Spans, DurableDb)> {
    let mut spans = Spans::default();
    let mut db = None;
    for _ in 0..REPS {
        drop(db.take()); // releases the directory lock
        db = Some(spans.time(|| DurableDb::open(dir)).map_err(err("open"))?);
    }
    Ok((spans, db.expect("REPS > 0")))
}

pub fn run(
    paths: &Paths,
    w: &Workload,
    seed: u64,
    world: &World,
    measured: &Measured,
) -> Result<Replay> {
    let mut notes = Vec::new();
    let calibrator = Calibrator::start();

    // Cold path: what set-up and recovery are made of.
    let (mut parse_db, mut materialize, mut new_proc) =
        (Spans::default(), Spans::default(), Spans::default());
    for _ in 0..REPS {
        let db = parse_db
            .time(|| dduf_datalog::parser::parse_database(&world.text))
            .map_err(err("parse_database"))?;
        black_box(
            materialize
                .time(|| dduf_datalog::eval::materialize(&db))
                .map_err(err("materialize"))?,
        );
        black_box(
            new_proc
                .time(|| UpdateProcessor::new(db).and_then(UpdateProcessor::with_maintenance))
                .map_err(err("UpdateProcessor::new"))?,
        );
    }

    let dir = paths.work.join(format!("{}-replay", w.name));
    let _ = std::fs::remove_dir_all(&dir); // an earlier run of this process
    let (mut proc, mut store): (UpdateProcessor, DurableStore) = DurableDb::init(&dir, &world.text)
        .map_err(err("init"))?
        .into_parts();

    // The operation list: the connections' streams, interleaved.
    let mut streams: Vec<OpStream> = (0..w.load.writers())
        .map(|c| OpStream::new(world, w, seed, c))
        .collect();
    let writers = streams.len();
    let mut next_ops =
        |n: usize| -> Vec<Op> { (0..n).map(|i| streams[i % writers].next_op()).collect() };
    let ops = next_ops(w.replay_ops);

    // The write path, batch by batch.
    let (mut parse, mut check, mut commit) = (Spans::default(), Spans::default(), Spans::default());
    let (mut frame, mut clone, mut append, mut drop_old) = (
        Spans::default(),
        Spans::default(),
        Spans::default(),
        Spans::default(),
    );
    let mut induced = 0usize;
    let journal_start = store.journal_end();
    let snapshot_of = |proc: &UpdateProcessor| ProcessorState {
        db: proc.database().clone(),
        interp: proc.interpretation().clone(),
        maint: proc.maintenance().cloned(),
    };
    let mut published = snapshot_of(&proc);
    let mut wire = Vec::new();
    for batch in ops.chunks(w.replay_batch()) {
        let mut payloads = Vec::with_capacity(batch.len());
        for op in batch {
            let txn = parse
                .time(|| proc.transaction(request(op)))
                .map_err(err("transaction"))?;
            let outcome = check
                .time(|| proc.check_integrity(&txn))
                .map_err(err("check_integrity"))?;
            if !outcome.accepts() {
                return Err(format!("replay: `{}` was rejected", op.line));
            }
            payloads.push(serialize_transaction(&txn));
            let res = commit.time(|| proc.commit(&txn)).map_err(err("commit"))?;
            induced += res.derived.len();
            let ack = format!("applied {}; induced {}", res.base, res.derived);
            frame
                .time(|| {
                    wire.clear();
                    dduf_server::proto::write_response(&mut wire, true, &ack)?;
                    // A slice is a `BufRead`: no buffer is allocated, so
                    // the span holds the framing code and nothing else.
                    dduf_server::proto::read_response(&mut wire.as_slice())
                })
                .map_err(err("response frame"))?;
        }
        let state = clone.time(|| snapshot_of(&proc));
        append
            .time(|| store.record_commit_batch(&payloads))
            .map_err(err("record_commit_batch"))?;
        let old = std::mem::replace(&mut published, state);
        drop_old.time(|| drop(old));
    }
    let journal_bytes = (store.journal_end() - journal_start) as f64;
    let facts = proc.database().fact_count() as f64;
    let derived = proc.interpretation().fact_count() as f64;

    // Reads: the reader's two kinds of `:query`.
    let (mut query_goal, mut query_point) = (Spans::default(), Spans::default());
    for i in 0..QUERIES {
        // Hosts of every zone in turn.
        let host = &world.vulnerable[i * world.vulnerable.len() / QUERIES].0;
        let (goal, point) = match w.program {
            Program::AttackGraph => (
                format!("goal_reached(a{}, X)", i % ATTACKERS),
                format!("exec_code(a{}, {host})", i % ATTACKERS),
            ),
            Program::Inventory => (
                "exposed_zone(Z)".to_string(),
                format!("exploitable({host})"),
            ),
        };
        for (spans, src) in [(&mut query_goal, goal), (&mut query_point, point)] {
            let q = atom(&src)?;
            black_box(
                spans
                    .time(|| dduf_datalog::magic::query(proc.database(), &q))
                    .map_err(err("magic::query"))?,
            );
        }
    }

    // The product's own tracing: the same commits from the same state,
    // with and without a recorder installed, alternating.
    let overhead_ops = next_ops((w.replay_ops / 8).max(w.replay_batch()));
    let (mut plain, mut traced) = (Spans::default(), Spans::default());
    for _ in 0..REPS {
        let mut p = proc.clone();
        plain.time(|| stage(&mut p, &overhead_ops))?;
        let mut p = proc.clone();
        traced.time(|| dduf_obs::capture(|| stage(&mut p, &overhead_ops)).0)?;
    }

    // Persistence: checkpoint, restore with an empty tail, replay a tail.
    let mut checkpoint = Spans::default();
    for _ in 0..REPS {
        checkpoint
            .time(|| store.checkpoint_with_maint(proc.database(), proc.maintenance()))
            .map_err(err("checkpoint"))?;
    }
    let snapshot_bytes = file_len(&dir, dduf_persist::SNAPSHOT_FILE)?;
    let counts_bytes = file_len(&dir, dduf_persist::COUNTS_FILE)?;
    drop((proc, store, published));
    let (open_restore, db) = time_open(&dir)?;
    let restored = db.recovery().counts_restored;
    let (mut proc, mut store) = db.into_parts();
    for batch in next_ops(TAIL_RECORDS).chunks(w.replay_batch()) {
        let mut payloads = Vec::with_capacity(batch.len());
        for op in batch {
            let txn = proc.transaction(request(op)).map_err(err("transaction"))?;
            payloads.push(serialize_transaction(&txn));
            proc.commit(&txn).map_err(err("commit"))?;
        }
        store
            .record_commit_batch(&payloads)
            .map_err(err("record_commit_batch"))?;
    }
    drop((proc, store));
    let (open_tail, db) = time_open(&dir)?;
    if db.recovery().replayed != TAIL_RECORDS {
        return Err(format!(
            "replay: open replayed {} record(s), expected {TAIL_RECORDS}",
            db.recovery().replayed
        ));
    }
    drop(db);

    // The spans, in calibrated time.
    let clock = calibrator.finish();
    let timed = |spans: Spans| spans.timed(&clock);
    let (mut parse_db, mut materialize, mut new_proc) =
        (timed(parse_db), timed(materialize), timed(new_proc));
    let (mut parse, mut check, mut commit) = (timed(parse), timed(check), timed(commit));
    let (mut frame, mut clone, mut append, mut drop_old) =
        (timed(frame), timed(clone), timed(append), timed(drop_old));
    let (mut query_goal, mut query_point) = (timed(query_goal), timed(query_point));
    let mut checkpoint = timed(checkpoint);
    let overhead_pct = (timed(traced).median() / timed(plain).median() - 1.0) * 100.0;
    let open_restore_ms = timed(open_restore).median() / 1e3;
    let open_tail_ms = timed(open_tail).median() / 1e3;
    let replay_us_per_record = (open_tail_ms - open_restore_ms) * 1e3 / TAIL_RECORDS as f64;

    // Reconciliation: do the layers add up to what was measured? Totals,
    // not medians, so that rare expensive commits are counted.
    let n = ops.len() as f64;
    let per_commit = |s: &Times| s.total() / n;
    let stager = per_commit(&parse) + per_commit(&check) + per_commit(&commit) + per_commit(&clone);
    let syncer = per_commit(&append) + per_commit(&drop_old);
    // One request in flight leaves the pipeline nothing to overlap.
    let overlapped = w.replay_batch() > 1;
    let modelled_us = if overlapped {
        stager.max(syncer)
    } else {
        stager + syncer + per_commit(&frame)
    };
    let model = 1e6 / modelled_us;
    let residual_us = measured.us_per_commit - modelled_us;
    let vs_measured = measured.us_per_commit / modelled_us;
    notes.push(format!(
        "reconciliation: model.commits_per_s = {model:.1} ({}); the server spent {:.1} us per \
         commit ({:.1} commits/s of write-path time), model/measured = {vs_measured:.3}; \
         unexplained {residual_us:.1} us per commit",
        if overlapped {
            "batch / max(stage + clone, append + drop)"
        } else {
            "1 / (stage + clone + append + drop + frame), nothing overlaps"
        },
        measured.us_per_commit,
        1e6 / measured.us_per_commit,
    ));
    notes.push(format!(
        "mean us per commit over {} commits in batches of {}: txn_parse {:.1}, ic_check {:.1}, \
         commit {:.1}, clone {:.1}, append {:.1}, drop {:.1}, frame {:.1}; clone is {:.1} % of \
         stage + clone",
        ops.len(),
        w.replay_batch(),
        per_commit(&parse),
        per_commit(&check),
        per_commit(&commit),
        per_commit(&clone),
        per_commit(&append),
        per_commit(&drop_old),
        per_commit(&frame),
        100.0 * per_commit(&clone) / stager,
    ));
    notes.push(format!(
        "maintenance state restored from counts on open: {restored}; tracing overhead of the \
         product's recorder {overhead_pct:.2} % over {} commits x {REPS}",
        overhead_ops.len()
    ));
    if measured.commits_per_fsync.is_none() {
        notes.push(
            "server.writer.commits_per_fsync: no `journal.append` line in :stats, reported as 0"
                .to_string(),
        );
    }

    let metrics = BTreeMap::from([
        ("server.proto.frame_us", frame.median()),
        ("server.residual_us", residual_us),
        (
            "server.writer.commits_per_fsync",
            measured.commits_per_fsync.unwrap_or(0.0),
        ),
        ("core.processor.txn_parse_us", parse.median()),
        ("core.processor.ic_check_us", check.median()),
        ("core.processor.commit_us", commit.median()),
        ("core.processor.new_ms", new_proc.median() / 1e3),
        ("core.upward.induced_events", induced as f64),
        ("datalog.parser.parse_db_ms", parse_db.median() / 1e3),
        ("datalog.eval.materialize_ms", materialize.median() / 1e3),
        ("datalog.magic.query_goal_us", query_goal.median()),
        ("datalog.magic.query_point_us", query_point.median()),
        ("datalog.storage.clone_ms", clone.median() / 1e3),
        ("datalog.storage.drop_ms", drop_old.median() / 1e3),
        ("datalog.storage.facts", facts),
        ("datalog.storage.derived_tuples", derived),
        ("persist.journal.append_us", append.median()),
        ("persist.journal.bytes_per_commit", journal_bytes / n),
        ("persist.checkpoint_ms", checkpoint.median() / 1e3),
        ("persist.open_restore_ms", open_restore_ms),
        ("persist.replay_us_per_record", replay_us_per_record),
        ("persist.snapshot_bytes", snapshot_bytes),
        ("persist.counts_bytes", counts_bytes),
        ("obs.overhead_pct", overhead_pct),
        ("model.commits_per_s", model),
        ("model.vs_measured", vs_measured),
    ]);
    Ok(Replay { metrics, notes })
}
