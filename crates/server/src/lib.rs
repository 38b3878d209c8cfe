//! dduf-server: a concurrent multi-session front end for the framework.
//!
//! The architecture is a deliberately small instance of the classic
//! single-writer design:
//!
//! * **One writer thread** owns the journal and the only mutable
//!   [`UpdateProcessor`](dduf_core::processor::UpdateProcessor) state.
//!   Concurrent `:apply` requests are drained into a batch, staged
//!   serially (upward evaluation is inherently order-sensitive), made
//!   durable with a **single fsync** for the whole batch
//!   ([`writer`]), and only then acknowledged — group commit. Staging
//!   of the next batch overlaps that fsync (DESIGN.md §16).
//! * **Snapshot-isolated readers**: after each batch the writer
//!   publishes an immutable `Arc`'d state into a [`state::StateCell`];
//!   sessions query whichever snapshot was current when their request
//!   arrived and never block the writer (or each other).
//! * **Sessions** speak a newline-framed protocol ([`proto`]) whose
//!   payloads are exactly the local shell's command syntax, so the
//!   server adds no second surface language.
//!
//! Serial equivalence: because every mutation flows through the one
//! writer in arrival order, the final database equals some serial
//! replay of the committed transactions — the journal *is* that serial
//! order, and recovery replays it.

#![forbid(unsafe_code)]

pub mod proto;
pub mod session;
pub mod state;
pub mod writer;

use session::SessionCtx;
use state::{Published, StateCell};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// What a session does when the bounded job queue is at its high-water
/// mark (admission control — the queue never grows unboundedly).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backpressure {
    /// The session blocks in the enqueue until a slot frees: clients
    /// feel the pressure as latency, never as an error.
    Block,
    /// The session answers immediately with a retryable `busy` `err`
    /// diagnostic: clients feel the pressure as an explicit signal and
    /// decide themselves when to retry.
    Reject,
}

/// Tunables for [`start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Number of concurrent sessions served (acceptor pool size).
    pub sessions: usize,
    /// Most transactions one group commit may cover.
    pub max_batch: usize,
    /// High-water mark of the pending-commit queue (jobs).
    pub queue_cap: usize,
    /// Policy when the queue is full.
    pub backpressure: Backpressure,
}

/// Most sessions [`start`] serves. Each session is one acceptor thread,
/// spawned up front, so an unbounded count would exhaust the process's
/// thread limit.
pub const MAX_SESSIONS: usize = 1_024;

/// Highest `queue_cap` [`start`] accepts. The bounded job channel
/// allocates all of its slots up front, so an unbounded cap would abort
/// the process on allocation.
pub const MAX_QUEUE_CAP: usize = 65_536;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7117".to_string(),
            sessions: 8,
            max_batch: 64,
            queue_cap: 256,
            backpressure: Backpressure::Block,
        }
    }
}

/// A running server: the bound address plus the handles needed to stop
/// it and read its metrics.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<dduf_obs::SharedCollector>,
    stop: Arc<AtomicBool>,
    acceptors: Vec<JoinHandle<()>>,
    writer: JoinHandle<()>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time render of the server-wide trace report.
    pub fn metrics_report(&self) -> dduf_obs::Report {
        self.metrics.report_now()
    }

    /// Requests shutdown and joins every thread. Idempotent with a
    /// client-issued `:shutdown` — extra wake connects are harmless.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect(self.addr);
        }
        self.join();
    }

    /// Blocks until the server stops on its own (`:shutdown` from a
    /// client). This is what `dduf serve` does after printing the
    /// address.
    pub fn wait(self) {
        self.join();
    }

    fn join(self) {
        for t in self.acceptors {
            let _ = t.join();
        }
        let _ = self.writer.join();
    }
}

/// Starts serving `db` on `config.addr`. Returns once the listener is
/// bound and the worker threads are running. A config above
/// [`MAX_SESSIONS`] or [`MAX_QUEUE_CAP`] is `InvalidInput`, refused
/// before any thread starts.
pub fn start(db: dduf_persist::DurableDb, config: ServerConfig) -> io::Result<ServerHandle> {
    if config.sessions > MAX_SESSIONS || config.queue_cap > MAX_QUEUE_CAP {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "sessions {} (at most {MAX_SESSIONS}) or queue_cap {} (at most {MAX_QUEUE_CAP}) out of range",
                config.sessions, config.queue_cap
            ),
        ));
    }
    let (proc, store) = db.into_parts();
    let journal_end = store.journal_end();
    let cell = Arc::new(StateCell::new(Published {
        state: proc.into_state(),
        journal_end,
        commits: 0,
    }));

    let listener = Arc::new(TcpListener::bind(&config.addr)?);
    let addr = listener.local_addr()?;
    let metrics = Arc::new(dduf_obs::SharedCollector::new());
    let stop = Arc::new(AtomicBool::new(false));
    // The job queue is bounded at the configured high-water mark; the
    // gauge carries live depth/reject accounting for `:stats`.
    let queue_cap = config.queue_cap.max(1);
    let (jobs_tx, jobs_rx) = mpsc::sync_channel(queue_cap);
    let gauge = Arc::new(writer::QueueGauge::new(queue_cap));

    let writer = {
        let cell = cell.clone();
        let metrics = metrics.clone();
        let gauge = gauge.clone();
        let max_batch = config.max_batch;
        thread::Builder::new()
            .name("dduf-writer".to_string())
            .spawn(move || writer::run(jobs_rx, &cell, store, &metrics, &gauge, max_batch))?
    };

    let sessions = config.sessions.max(1);
    let mut acceptors = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let listener = listener.clone();
        let ctx = SessionCtx {
            cell: cell.clone(),
            queue: writer::JobQueue {
                jobs: jobs_tx.clone(),
                gauge: gauge.clone(),
                backpressure: config.backpressure,
            },
            stop: stop.clone(),
            addr,
            wake: sessions,
            metrics: metrics.clone(),
        };
        acceptors.push(
            thread::Builder::new()
                .name(format!("dduf-session-{i}"))
                .spawn(move || {
                    // Sessions record into the server-wide report.
                    let _guard = dduf_obs::install_shared(&ctx.metrics);
                    while !ctx.stop.load(Ordering::SeqCst) {
                        let Ok((stream, _)) = listener.accept() else {
                            continue;
                        };
                        if ctx.stop.load(Ordering::SeqCst) {
                            break; // the connect was a shutdown wake-up
                        }
                        // Session errors mean the peer vanished; the
                        // acceptor just moves on to the next client.
                        let _ = session::serve(stream, &ctx);
                    }
                })?,
        );
    }
    // The writer exits when the last sender drops: every acceptor holds
    // a clone, so dropping ours ties writer lifetime to the acceptors.
    drop(jobs_tx);

    Ok(ServerHandle {
        addr,
        metrics,
        stop,
        acceptors,
        writer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::read_response;
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    fn send(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        line: &str,
    ) -> (bool, Vec<String>) {
        writeln!(stream, "{line}").unwrap();
        read_response(reader).unwrap()
    }

    #[test]
    fn end_to_end_over_loopback() {
        let dir = std::env::temp_dir().join(format!("dduf-server-lib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = dduf_persist::DurableDb::init(
            &dir,
            "emp(ann). dept(eng). works(X) :- emp(X), staffed(eng). staffed(D) :- dept(D).",
        )
        .unwrap();
        let handle = start(
            db,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                sessions: 2,
                max_batch: 8,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();

        let mut c = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        assert_eq!(send(&mut c, &mut r, ":ping"), (true, vec!["pong".into()]));

        // A write is visible to a subsequent read on the same connection.
        let (ok, lines) = send(&mut c, &mut r, ":apply +emp(bob).");
        assert!(ok, "{lines:?}");
        assert!(lines[0].starts_with("applied"), "{lines:?}");
        let (ok, lines) = send(&mut c, &mut r, ":query emp(X)");
        assert!(ok);
        assert!(lines.iter().any(|l| l == "emp(bob)"), "{lines:?}");

        // ...and to a second, concurrent connection (snapshot refresh).
        let mut c2 = TcpStream::connect(addr).unwrap();
        let mut r2 = BufReader::new(c2.try_clone().unwrap());
        let (ok, lines) = send(&mut c2, &mut r2, ":show emp");
        assert!(ok);
        assert_eq!(lines.len(), 2, "{lines:?}");

        // Errors keep the connection alive.
        let (ok, lines) = send(&mut c, &mut r, ":apply +nope!!");
        assert!(!ok, "{lines:?}");
        assert_eq!(send(&mut c, &mut r, ":ping"), (true, vec!["pong".into()]));

        // :stats reports the journal position from the snapshot.
        let (ok, lines) = send(&mut c, &mut r, ":stats");
        assert!(ok);
        assert!(
            lines.iter().any(|l| l.starts_with("journal: durable")),
            "{lines:?}"
        );

        // :quit closes only this session; :shutdown stops the server.
        let (ok, lines) = send(&mut c2, &mut r2, ":quit");
        assert!(ok);
        assert_eq!(lines, vec!["bye".to_string()]);
        let (ok, _) = send(&mut c, &mut r, ":shutdown");
        assert!(ok);
        handle.wait();

        // Recovery sees the committed write.
        let reopened = dduf_persist::DurableDb::open(&dir).unwrap();
        assert!(
            dduf_datalog::pretty::database(reopened.processor().database()).contains("emp(bob)")
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
