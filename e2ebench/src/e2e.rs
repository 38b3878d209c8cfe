//! One end-to-end run of a workload against the real `dduf` binary:
//! set-up, load, read phase, checkpoint + journal tail, SIGKILL,
//! recovery and the two audits.
//!
//! Every instant is taken with `Instant::now()` while the run goes on and
//! turned into calibrated seconds (see `calib`) when it is over; every
//! duration and rate reported is in those.

use crate::calib::{Calibrator, Clock};
use crate::gen::{Op, OpStream, Read, ReadStream, World, READS_PER_CYCLE};
use crate::server::{db_init, Conn, Paths, Result, Server};
use crate::spec::{Load, Workload};
use crate::stats::{median, percentile, rate_in_window, samples_beyond, tail_percentile};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up (`generate + db init + serve until listening`) and recovery
/// (restart of the killed server) are each repeated at least `MIN_REPS`
/// times, then on until `REPS_SHARE` of `--seconds` is spent or
/// `MAX_REPS` are done; `setup_s` and `recover_s` are the medians. Quick
/// ones are the noisy ones, and they get the most repetitions.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 40;
const REPS_SHARE: f64 = 0.08;
/// Untimed share of the run before the measured window opens.
const WARM_UP: f64 = 0.05;
/// Where in the write window a `:checkpoint` is sent.
const CHECKPOINT_AT: f64 = 0.9;
/// Where no reader runs beside the writers, this share of `--seconds`
/// is the read phase that follows the write window.
const READ_PHASE: f64 = 0.2;

pub struct E2e {
    /// Every end-to-end metric of `spec::END_TO_END`, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts, tail percentiles and audit verdicts, one per line.
    pub notes: Vec<String>,
    /// Time the write path spent per commit, µs: the window divided by
    /// the commits acknowledged in it where the writers keep the server
    /// busy, the mean send-to-reply time where the one client also reads
    /// (`Load::Alternating`). What the replay's model is reconciled with.
    pub us_per_commit: f64,
    /// Commits per journal fsync, from the server's final `:stats`
    /// (`None` when the `journal.append` line is absent).
    pub commits_per_fsync: Option<f64>,
    /// The inputs, for the traced replay of the same operation list.
    pub world: World,
}

#[derive(Clone, Copy)]
struct Window {
    /// The measured window; load starts a warm-up before `open`.
    open: Instant,
    close: Instant,
    checkpoint: Instant,
}

impl Window {
    /// `sent` if it lies inside the window: such requests are timed.
    fn timed(&self, sent: Instant) -> Option<Instant> {
        (self.open..self.close).contains(&sent).then_some(sent)
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// One answered request.
struct Sample {
    /// When it was sent, for requests sent inside the window; `None` for
    /// the untimed ones before and after.
    sent: Option<Instant>,
    /// When the reply arrived.
    done: Instant,
}

/// What one kind of request (commits, reads) did on one connection.
#[derive(Default)]
struct Answered {
    /// Every request answered, in stream order (untimed ones included).
    samples: Vec<Sample>,
    tally: Tally,
}

/// Whether set-up or recovery has been repeated often enough.
fn enough(reps: &[(Instant, Instant)], seconds: f64) -> bool {
    let spent: Duration = reps.iter().map(|(from, to)| *to - *from).sum();
    reps.len() >= MAX_REPS
        || (reps.len() >= MIN_REPS && spent.as_secs_f64() >= seconds * REPS_SHARE)
}

/// Median calibrated length of the repetitions, s.
fn median_rep(clock: &Clock, reps: &[(Instant, Instant)]) -> f64 {
    let mut times: Vec<f64> = reps
        .iter()
        .map(|(from, to)| clock.between(*from, *to))
        .collect();
    median(&mut times)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn committed(reply: &(bool, Vec<String>)) -> bool {
    reply.0 && reply.1.first().is_some_and(|l| l.starts_with("applied"))
}

/// `conn` keeps `window` commits in flight until the window closes,
/// completes the churn cycle it is in (untimed), then collects the
/// outstanding acknowledgements. Every cycle restores what it took down,
/// so what follows the window (read phase, recovery) runs on the initial
/// database and not on one with whichever rule the writers stopped on
/// missing: with a rule that carries every path down, reads were twice
/// as fast.
fn closed_writer(
    addr: &str,
    stream: &mut OpStream,
    window: usize,
    t: &Window,
    sends_checkpoint: bool,
) -> io::Result<Answered> {
    enum Pending {
        Commit(Instant),
        Admin,
    }
    let mut out = Answered::default();
    let mut conn = Conn::connect(addr)?;
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let settle = |conn: &mut Conn, p: Pending, out: &mut Answered| -> io::Result<()> {
        let reply = conn.recv()?;
        match p {
            Pending::Admin => out.tally.failed += u64::from(!reply.0),
            Pending::Commit(sent) => {
                out.tally.failed += u64::from(!committed(&reply));
                out.samples.push(Sample {
                    sent: t.timed(sent),
                    done: Instant::now(),
                });
            }
        }
        Ok(())
    };
    let mut checkpoint_due = sends_checkpoint;
    loop {
        let now = Instant::now();
        if now >= t.close && !stream.mid_cycle() {
            break;
        }
        if checkpoint_due && now >= t.checkpoint {
            checkpoint_due = false;
            conn.send(":checkpoint")?;
            pending.push_back(Pending::Admin);
            out.tally.attempted += 1;
        }
        conn.send(&stream.next_op().line)?;
        pending.push_back(Pending::Commit(Instant::now()));
        out.tally.attempted += 1;
        while pending.len() >= window {
            let p = pending.pop_front().expect("non-empty");
            settle(&mut conn, p, &mut out)?;
        }
    }
    while let Some(p) = pending.pop_front() {
        settle(&mut conn, p, &mut out)?;
    }
    Ok(out)
}

/// Whether a read's reply is well formed and, where the generator's model
/// of the base facts is given, whether the `exploitable` probe agrees
/// with it.
fn read_ok(read: &Read, reply: &(bool, Vec<String>), model: Option<&HashSet<String>>) -> bool {
    if !reply.0 {
        return false;
    }
    if !read.line.starts_with(":query") {
        return true;
    }
    let answers = reply
        .1
        .last()
        .and_then(|l| l.strip_prefix('('))
        .and_then(|l| l.split_once(" answer(s)"))
        .and_then(|(n, _)| n.parse::<usize>().ok());
    match (answers, &read.probe, model) {
        (None, _, _) => false,
        (Some(n), Some((host, vuln)), Some(state)) => {
            let exploitable = vuln.as_ref().is_some_and(|v| {
                state.contains(&format!("vuln({host}, {v})"))
                    && !state.contains(&format!("patched({host}, {v})"))
            });
            n == usize::from(exploitable)
        }
        (Some(_), _, _) => true,
    }
}

/// The next read of `stream` on `conn`, timed if sent inside the window.
fn one_read(
    conn: &mut Conn,
    stream: &mut ReadStream,
    world: &World,
    t: &Window,
    model: Option<&HashSet<String>>,
    out: &mut Answered,
) -> io::Result<()> {
    let read = stream.next_read(world);
    let sent = Instant::now();
    let reply = conn.call(&read.line)?;
    let done = Instant::now();
    out.tally.attempted += 1;
    out.tally.failed += u64::from(!read_ok(&read, &reply, model));
    out.samples.push(Sample {
        sent: t.timed(sent),
        done,
    });
    Ok(())
}

/// One request in flight, the next sent when the reply is in, until the
/// window closes.
fn reader(
    addr: &str,
    stream: &mut ReadStream,
    world: &World,
    t: &Window,
    model: &HashSet<String>,
) -> io::Result<Answered> {
    let mut out = Answered::default();
    let mut conn = Conn::connect(addr)?;
    while Instant::now() < t.close {
        one_read(&mut conn, stream, world, t, Some(model), &mut out)?;
    }
    Ok(out)
}

/// One connection, one request in flight: a commit, then the reads of one
/// read cycle, and so on until the window closes and the churn cycle
/// under way is complete. Returns the commits and the reads.
fn alternating_client(
    addr: &str,
    commits: &mut OpStream,
    reads: &mut ReadStream,
    world: &World,
    t: &Window,
) -> io::Result<(Answered, Answered)> {
    let (mut committed_out, mut read_out) = (Answered::default(), Answered::default());
    let mut conn = Conn::connect(addr)?;
    let mut checkpoint_due = true;
    loop {
        let now = Instant::now();
        if now >= t.close && !commits.mid_cycle() {
            return Ok((committed_out, read_out));
        }
        if checkpoint_due && now >= t.checkpoint {
            checkpoint_due = false;
            committed_out.tally.attempted += 1;
            committed_out.tally.failed += u64::from(!conn.call(":checkpoint")?.0);
        }
        let sent = Instant::now();
        let reply = conn.call(&commits.next_op().line)?;
        committed_out.tally.attempted += 1;
        committed_out.tally.failed += u64::from(!committed(&reply));
        committed_out.samples.push(Sample {
            sent: t.timed(sent),
            done: Instant::now(),
        });
        for _ in 0..READS_PER_CYCLE {
            one_read(&mut conn, reads, world, t, None, &mut read_out)?;
        }
    }
}

/// Replies per calibrated second of the window, and p50 and p95 of the
/// timed latencies in calibrated ms, all samples pooled. Also notes the
/// sample count, p99 and the highest percentile that still has ten
/// samples beyond it, and returns the mean latency last.
fn summarize(
    what: &str,
    samples: &[Sample],
    t: &Window,
    clock: &Clock,
    notes: &mut Vec<String>,
) -> [f64; 4] {
    let open = clock.at(t.open);
    let done: Vec<f64> = samples.iter().map(|s| clock.at(s.done) - open).collect();
    let mut latencies: Vec<f64> = samples
        .iter()
        .filter_map(|s| Some(clock.between(s.sent?, s.done) * 1e3))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let n = latencies.len();
    let tail = tail_percentile(n);
    notes.push(format!(
        "{what} latency: n={n}; p95 has {} beyond; p99={:.3} ms ({} beyond); highest supported \
         tail p{tail}={:.3} ms ({} beyond); max={:.3} ms",
        samples_beyond(n, 95.0),
        percentile(&latencies, 99.0),
        samples_beyond(n, 99.0),
        percentile(&latencies, tail),
        samples_beyond(n, tail),
        latencies.last().copied().unwrap_or(0.0),
    ));
    [
        rate_in_window(&done, clock.between(t.open, t.close)),
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        mean(&latencies),
    ]
}

/// `appends ÷ fsyncs` from the `journal.append` line of `:stats`.
fn commits_per_fsync(stats: &[String]) -> Option<f64> {
    let at = stats.iter().position(|l| l.trim() == "journal.append")?;
    let line = stats.get(at + 1)?;
    let field = |name: &str| -> Option<f64> {
        line.split_whitespace()
            .find_map(|f| f.strip_prefix(name))
            .and_then(|v| v.parse().ok())
    };
    Some(field("appends=")? / field("fsyncs=")?)
}

/// What `:show` prints for a database state, as a set of lines.
fn show_lines(
    db: &dduf_datalog::storage::database::Database,
    interp: &dduf_datalog::eval::Interpretation,
) -> HashSet<String> {
    let mut lines = HashSet::new();
    for p in db.extensional_predicates() {
        for t in db.relation(p).iter() {
            lines.insert(format!("{}.", t.to_atom(p)));
        }
    }
    for (p, rel) in interp.iter() {
        for t in rel.iter() {
            lines.insert(format!("{}. %= derived", t.to_atom(p)));
        }
    }
    lines
}

/// The state a serial replay of the journal over the initial database
/// gives, rendered as `:show` would, plus the number of records.
fn serial_replay(world: &World, dir: &Path) -> Result<(HashSet<String>, usize)> {
    let e = |e: &dyn std::fmt::Display| format!("serial replay: {e}");
    let mut db = dduf_datalog::parser::parse_database(&world.text).map_err(|x| e(&x))?;
    let (_, scan) = dduf_persist::read_log(dir).map_err(|x| e(&x))?;
    if let Some(torn) = scan.torn {
        return Err(format!(
            "journal has a torn tail of {} byte(s) although every commit was acknowledged",
            torn.bytes
        ));
    }
    for rec in &scan.records {
        let txn =
            dduf_core::transaction::Transaction::parse(&db, &rec.payload).map_err(|x| e(&x))?;
        txn.apply_in_place(&mut db);
    }
    let interp = dduf_datalog::eval::materialize(&db).map_err(|x| e(&x))?;
    Ok((show_lines(&db, &interp), scan.records.len()))
}

/// Prints up to five differing lines of each kind and returns whether
/// the sets are equal.
fn same_set(what: &str, got: &HashSet<&str>, want: &HashSet<&str>) -> bool {
    for (label, a, b) in [("missing", want, got), ("invented", got, want)] {
        let diff: Vec<&&str> = a.difference(b).take(5).collect();
        if !diff.is_empty() {
            eprintln!(
                "audit {what}: {} {label}, e.g. {diff:?}",
                a.difference(b).count()
            );
        }
    }
    got == want
}

pub fn run(paths: &Paths, w: &Workload, seed: u64, seconds: f64) -> Result<E2e> {
    let io = |e: io::Error| format!("{}: {e}", w.name);
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    let calibrator = Calibrator::start();

    // Set-up, several times over; the last server is the one measured.
    let run_dir = paths.work.join(w.name);
    let _ = std::fs::remove_dir_all(&run_dir); // an earlier run of this process
    std::fs::create_dir_all(&run_dir).map_err(io)?;
    let mut setups: Vec<(Instant, Instant)> = Vec::new();
    let mut live = None;
    while !enough(&setups, seconds) {
        let dir = run_dir.join(format!("db{}", setups.len()));
        let schema = dir.with_extension("dl");
        let from = Instant::now();
        let world = World::generate(w, seed);
        std::fs::write(&schema, &world.text).map_err(io)?;
        db_init(paths, &schema, &dir)?;
        let server = Server::start(paths, &dir)?;
        setups.push((from, Instant::now()));
        live = Some((world, dir, server)); // kills the previous server
    }
    let (world, dir, server) = live.expect("MIN_REPS > 0");
    let journal = dir.join(dduf_persist::JOURNAL_FILE);
    let journal_len = || std::fs::metadata(&journal).map(|m| m.len()).map_err(io);
    let journal_start = journal_len()?;

    // Load. The alternating client reads between its commits for all of
    // `seconds`; otherwise the read phase follows the write window.
    let window_of = |from: Instant, len: f64| -> Window {
        let open = from + Duration::from_secs_f64(len * WARM_UP);
        Window {
            open,
            close: open + Duration::from_secs_f64(len),
            checkpoint: open + Duration::from_secs_f64(len * CHECKPOINT_AT),
        }
    };
    let alternating = w.load == Load::Alternating;
    let t = window_of(
        Instant::now(),
        if alternating {
            seconds
        } else {
            seconds * (1.0 - READ_PHASE)
        },
    );
    let mut streams: Vec<OpStream> = (0..w.load.writers())
        .map(|c| OpStream::new(&world, w, seed, c))
        .collect();
    let mut reads = ReadStream::new(w, seed);
    let addr = server.addr.as_str();
    let (writers, alternating_reads): (Vec<Answered>, Option<Answered>) = match w.load {
        Load::Alternating => {
            let (commits, reads) =
                alternating_client(addr, &mut streams[0], &mut reads, &world, &t).map_err(io)?;
            (vec![commits], Some(reads))
        }
        Load::Closed { window, .. } => {
            let outs: Vec<io::Result<Answered>> = std::thread::scope(|s| {
                let handles: Vec<_> = streams
                    .iter_mut()
                    .enumerate()
                    .map(|(c, stream)| {
                        let t = &t;
                        s.spawn(move || closed_writer(addr, stream, window, t, c == 0))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("writer thread panicked"))
                    .collect()
            });
            (
                outs.into_iter().collect::<io::Result<_>>().map_err(io)?,
                None,
            )
        }
    };

    // The generator's model of the base facts after the acknowledged
    // prefix of every connection.
    let mut state = world.facts.clone();
    for (c, out) in writers.iter().enumerate() {
        let mut replayed = OpStream::new(&world, w, seed, c);
        for _ in 0..out.samples.len() {
            replayed.next_op().apply(&mut state);
        }
    }

    // Reads: between the commits of the alternating client, otherwise
    // now, on the quiet server.
    let (read_out, read_window) = match alternating_reads {
        Some(out) => (out, t),
        None => {
            let rt = window_of(Instant::now(), seconds * READ_PHASE / (1.0 + WARM_UP));
            let out = reader(addr, &mut reads, &world, &rt, &state).map_err(io)?;
            (out, rt)
        }
    };

    // Checkpoint, then the fixed journal tail recovery will replay.
    let mut conn = Conn::connect(addr).map_err(io)?;
    tally.attempted += 1;
    tally.failed += u64::from(!conn.call(":checkpoint").map_err(io)?.0);
    streams[0].leave_seed();
    let tail: Vec<Op> = (0..w.tail_commits).map(|_| streams[0].next_op()).collect();
    let mut in_flight = 0;
    let collect = |conn: &mut Conn, tally: &mut Tally| -> Result<()> {
        tally.failed += u64::from(!committed(&conn.recv().map_err(io)?));
        Ok(())
    };
    for op in &tail {
        conn.send(&op.line).map_err(io)?;
        op.apply(&mut state);
        tally.attempted += 1;
        in_flight += 1;
        if in_flight >= w.load.window() {
            collect(&mut conn, &mut tally)?;
            in_flight -= 1;
        }
    }
    for _ in 0..in_flight {
        collect(&mut conn, &mut tally)?;
    }
    let stats = conn.call(":stats").map_err(io)?;
    tally.attempted += 1;
    tally.failed += u64::from(!stats.0);
    let commits_per_fsync = commits_per_fsync(&stats.1);
    drop(conn);

    let commits: usize = writers.iter().map(|o| o.samples.len()).sum::<usize>() + tail.len();
    let journal_bytes = journal_len()? - journal_start;
    let rss_peak_mb = server.rss_peak_mb()?;

    // Crash and recover, several times: no restart writes a checkpoint,
    // so each one loads the same snapshot and replays the same tail.
    server.kill();
    let mut recoveries: Vec<(Instant, Instant)> = Vec::new();
    let mut recovered = None;
    while !enough(&recoveries, seconds) {
        drop(recovered.take());
        let from = Instant::now();
        recovered = Some(Server::start(paths, &dir)?);
        recoveries.push((from, Instant::now()));
    }
    let clock = calibrator.finish();
    let recovered = recovered.expect("MIN_REPS > 0");
    let shown = Conn::connect(&recovered.addr)
        .and_then(|mut c| c.call(":show"))
        .map_err(io)?;
    recovered.kill();

    // Audit 1: the recovered base facts are exactly the acknowledged ones.
    let shown_lines: HashSet<&str> = shown.1.iter().map(String::as_str).collect();
    let shown_base: HashSet<&str> = shown_lines
        .iter()
        .filter(|l| !l.ends_with("%= derived"))
        .map(|l| l.trim_end_matches('.'))
        .collect();
    let expected: HashSet<&str> = state.iter().map(String::as_str).collect();
    let base_ok = shown.0 && same_set("acknowledged commits", &shown_base, &expected);
    // Audit 2: base and derived state equal a serial replay of the
    // journal, and the journal holds exactly the acknowledged commits.
    let (replayed, records) = serial_replay(&world, &dir)?;
    let replayed: HashSet<&str> = replayed.iter().map(String::as_str).collect();
    let serial_ok = same_set("serial replay", &shown_lines, &replayed) && records == commits;
    if records != commits {
        eprintln!(
            "audit: journal holds {records} record(s), {commits} commit(s) were acknowledged"
        );
    }
    tally.attempted += 2;
    tally.failed += u64::from(!base_ok) + u64::from(!serial_ok);
    notes.push(format!(
        "audit: acknowledged commits present, nothing invented: {}; equals serial replay of {records} journal record(s): {}",
        if base_ok { "ok" } else { "FAILED" },
        if serial_ok { "ok" } else { "FAILED" },
    ));

    // Metrics, in calibrated time.
    let mut commit_samples: Vec<Sample> = Vec::new();
    for out in writers {
        commit_samples.extend(out.samples);
        tally.attempted += out.tally.attempted;
        tally.failed += out.tally.failed;
    }
    tally.attempted += read_out.tally.attempted;
    tally.failed += read_out.tally.failed;
    let [commits_per_s, commit_p50, commit_p95, commit_mean] =
        summarize("commit", &commit_samples, &t, &clock, &mut notes);
    let [reads_per_s, read_p50, read_p95, _] =
        summarize("read", &read_out.samples, &read_window, &clock, &mut notes);
    let us_per_commit = if alternating {
        commit_mean * 1e3
    } else {
        1e6 / commits_per_s
    };
    let (slowdown, fastest, slowest) = clock.slowdown_summary();
    notes.push(format!(
        "calibrated clock: the machine was {slowdown:.3} times slower than nominal on average \
         ({fastest:.3} to {slowest:.3} per 0.2 s); every time above is corrected for it"
    ));
    notes.push(format!(
        "samples: setup n={}, recover n={} (tail of {} record(s)), commits acknowledged {commits}",
        setups.len(),
        recoveries.len(),
        tail.len()
    ));
    notes.push(format!(
        "error_rate = {:.6} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    ));
    let metrics = BTreeMap::from([
        ("setup_s", median_rep(&clock, &setups)),
        ("commits_per_s", commits_per_s),
        ("commit_p50_ms", commit_p50),
        ("commit_p95_ms", commit_p95),
        ("reads_per_s", reads_per_s),
        ("read_p50_ms", read_p50),
        ("read_p95_ms", read_p95),
        ("recover_s", median_rep(&clock, &recoveries)),
        ("rss_peak_mb", rss_peak_mb),
        (
            "journal_bytes_per_commit",
            journal_bytes as f64 / commits as f64,
        ),
    ]);
    Ok(E2e {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        notes,
        us_per_commit,
        commits_per_fsync,
        world,
    })
}
