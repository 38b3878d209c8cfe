//! Per-connection command dispatch.
//!
//! A session owns one TCP connection and speaks the shell's command
//! vocabulary over the [`proto`](crate::proto) framing. Read-only
//! commands (`:show`, `:query`, `:check`, `:stats`) run entirely on the
//! session thread against the snapshot current when the request line
//! arrived — they never wait on the writer. Mutations (`:apply`,
//! `:force`, `:checkpoint`) are forwarded to the writer and answered
//! only once the batch containing them is durable, so an `ok` on the
//! wire is a durability guarantee; a peer may pipeline many mutation
//! lines before reading any response, and replies come back in request
//! order. A subsequent read on the *same* connection sees the write
//! (reads settle all of the connection's outstanding mutations first,
//! and the writer publishes before it acknowledges).

use crate::proto::{read_request, write_response, Request};
use crate::state::StateCell;
use crate::writer::{Job, JobQueue, Reply};
use dduf_core::problems::ic_checking;
use dduf_core::transaction::Transaction;
use dduf_datalog::eval::StateView;
use dduf_persist::MAX_RECORD;
use std::fmt::Write as _;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// Everything a session needs, shared across all sessions.
pub(crate) struct SessionCtx {
    /// The published-state cell for snapshot reads.
    pub cell: Arc<StateCell>,
    /// Bounded channel to the writer thread plus the admission policy
    /// applied when it reaches its high-water mark.
    pub queue: JobQueue,
    /// Server-wide shutdown flag (set by `:shutdown`).
    pub stop: Arc<AtomicBool>,
    /// The listener's own address, used to self-connect and unblock
    /// accept loops on shutdown.
    pub addr: SocketAddr,
    /// How many acceptors may be parked in `accept()`.
    pub wake: usize,
    /// Aggregated server metrics (`:stats` renders these).
    pub metrics: Arc<dduf_obs::SharedCollector>,
}

/// Help text sent for `:help` (the read/write subset that makes sense
/// remotely; downward search commands stay local-shell-only).
const HELP: &str = "\
server commands:
  :show [pred]            list facts (derived marked %=)
  :query <atom>           the atom's instances in the snapshot
  :check <txn>            would this transaction violate the constraints?
  :apply <txn>            commit (rejected if a constraint is violated)
  :force <txn>            commit without the integrity check
  :checkpoint             write a snapshot covering the journal
  :stats                  server counters + journal position
  :ping                   liveness probe
  :quit | :q | :exit      close this connection
  :shutdown               stop the whole server
transactions use base events: +p(a). -q(b).";

/// A response owed to the peer, in request order. Mutations answer
/// `Later` (the writer's post-fsync reply); admission rejections and
/// shutdown races answer `Now`.
enum Owed {
    Now(Reply),
    Later(mpsc::Receiver<Reply>),
}

/// Writes every owed response, oldest first. Blocking on `Later`
/// receivers here is what makes an `ok` frame a durability guarantee.
fn settle(w: &mut impl Write, owed: &mut Vec<Owed>) -> std::io::Result<()> {
    for o in owed.drain(..) {
        let reply = match o {
            Owed::Now(r) => r,
            Owed::Later(rx) => rx.recv().unwrap_or(Reply {
                ok: false,
                text: "server is shutting down".into(),
            }),
        };
        write_response(w, reply.ok, &reply.text)?;
    }
    Ok(())
}

/// Serves one connection to completion. Errors are connection-fatal
/// (the peer is gone); command errors go on the wire as `err` frames.
///
/// The session pipelines: mutations are submitted to the writer as
/// fast as the peer sends them, and their (post-fsync) replies are
/// written back in request order once the peer pauses — so a client
/// that streams K `:apply` lines before reading fills the writer's
/// batch with K transactions instead of one per round trip. Read
/// commands first settle every outstanding mutation, which preserves
/// the read-your-writes guarantee on a single connection.
pub(crate) fn serve(stream: TcpStream, ctx: &SessionCtx) -> std::io::Result<()> {
    dduf_obs::record("server.session", "", &[("sessions", 1)]);
    // Request/response round trips are latency-bound: without NODELAY,
    // Nagle holds our multi-write responses hostage to the peer's
    // delayed ACK (~40ms per turn on loopback). The BufWriter makes
    // each framed response a single segment.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = std::io::BufWriter::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let mut owed: Vec<Owed> = Vec::new();
    loop {
        // Replies are owed and the peer has no complete line already
        // buffered: settle before reading again, because the read
        // blocks and a synchronous peer is itself blocked on us.
        if !owed.is_empty() && !reader.buffer().contains(&b'\n') {
            settle(&mut writer, &mut owed)?;
        }
        match read_request(&mut reader, &mut buf, MAX_RECORD as usize)? {
            Request::Line => {}
            Request::Closed => return settle(&mut writer, &mut owed),
            Request::TooLong => {
                settle(&mut writer, &mut owed)?;
                write_response(
                    &mut writer,
                    false,
                    &format!("request line longer than {MAX_RECORD} bytes; discarded"),
                )?;
                continue;
            }
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            settle(&mut writer, &mut owed)?;
            write_response(&mut writer, true, "")?;
            continue;
        }
        let (cmd, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (trimmed, ""),
        };
        // Mutations queue a reply and keep reading; everything else
        // settles the queue first so responses stay in request order
        // (and reads observe this connection's earlier writes).
        match cmd {
            ":apply" => {
                owed.push(forward(ctx, apply_job(rest, true)));
                continue;
            }
            ":force" => {
                owed.push(forward(ctx, apply_job(rest, false)));
                continue;
            }
            ":checkpoint" => {
                owed.push(forward(ctx, |reply| Job::Checkpoint { reply }));
                continue;
            }
            _ => settle(&mut writer, &mut owed)?,
        }
        match cmd {
            ":quit" | ":q" | ":exit" => {
                write_response(&mut writer, true, "bye")?;
                return Ok(());
            }
            ":shutdown" => {
                write_response(&mut writer, true, "shutting down")?;
                ctx.stop.store(true, Ordering::SeqCst);
                // Unpark acceptors blocked in accept() so they observe
                // the flag. Failures are fine — the listener may
                // already be gone.
                for _ in 0..ctx.wake {
                    let _ = TcpStream::connect(ctx.addr);
                }
                return Ok(());
            }
            ":ping" => write_response(&mut writer, true, "pong")?,
            ":help" => write_response(&mut writer, true, HELP)?,
            ":show" => write_response(&mut writer, true, &show(ctx, rest))?,
            ":query" => respond(&mut writer, query(ctx, rest))?,
            ":check" => respond(&mut writer, check(ctx, rest))?,
            ":stats" => write_response(&mut writer, true, &stats(ctx))?,
            other => write_response(
                &mut writer,
                false,
                &format!("unknown command `{other}`; try :help"),
            )?,
        }
    }
}

/// Maps a command result onto the wire: `Ok` body vs rendered error.
fn respond(w: &mut impl Write, result: dduf_core::Result<String>) -> std::io::Result<()> {
    match result {
        Ok(body) => write_response(w, true, &body),
        Err(e) => write_response(w, false, &e.to_string()),
    }
}

/// Submits a job to the writer under the queue's admission policy.
/// The owed reply is either immediate (the queue was at its high-water
/// mark in `Reject` mode — the retryable `busy` diagnostic) or the
/// writer's post-fsync acknowledgement, collected later by `settle` in
/// request order.
fn forward(ctx: &SessionCtx, make: impl FnOnce(mpsc::Sender<Reply>) -> Job) -> Owed {
    let (tx, rx) = mpsc::channel();
    match ctx.queue.submit(make(tx)) {
        Ok(()) => Owed::Later(rx),
        Err(reply) => Owed::Now(reply),
    }
}

/// Builds the closure `forward` needs for an `:apply`/`:force` line.
fn apply_job(src: &str, checked: bool) -> impl FnOnce(mpsc::Sender<Reply>) -> Job {
    let src = src.to_string();
    move |reply| Job::Apply {
        src,
        checked,
        reply,
    }
}

/// `:show [pred]` over the session's snapshot — the local shell's output.
fn show(ctx: &SessionCtx, pred: &str) -> String {
    let cur = &ctx.cell.load().state;
    dduf_datalog::query::show(StateView::new(&cur.db, &cur.interp), pred)
}

/// `:query <atom>` — the atom's instances in the snapshot: a read of the
/// interpretation the writer maintains, like `:show`.
fn query(ctx: &SessionCtx, rest: &str) -> dduf_core::Result<String> {
    let cur = &ctx.cell.load().state;
    let state = StateView::new(&cur.db, &cur.interp);
    Ok(dduf_datalog::query::command(state, rest)?)
}

/// `:check <txn>` — integrity check against the snapshot, shell-identical
/// wording, read off the snapshot's maintenance engine. Purely advisory:
/// the authoritative check happens on the writer when the transaction is
/// actually applied.
fn check(ctx: &SessionCtx, txn_src: &str) -> dduf_core::Result<String> {
    let cur = &ctx.cell.load().state;
    let engine = cur
        .maint
        .as_ref()
        .expect("a published state carries the writer's engine");
    let txn = Transaction::parse(&cur.db, txn_src)?;
    Ok(ic_checking::check_transaction(&cur.db, engine, &txn)?.to_string())
}

/// `:stats` — the aggregated server trace report plus the snapshot's
/// journal coverage and the live commit-queue gauge.
fn stats(ctx: &SessionCtx) -> String {
    let cur = ctx.cell.load();
    let mut out = ctx.metrics.report_now().render_text();
    if !out.ends_with('\n') {
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "journal: durable through byte {}; {} commit(s) this run",
        cur.journal_end, cur.commits
    );
    let (depth, enqueued, rejected) = ctx.queue.gauge.totals();
    let _ = writeln!(
        out,
        "queue: depth {depth} of {}; {enqueued} enqueued, {rejected} rejected this run",
        ctx.queue.gauge.cap
    );
    out
}
