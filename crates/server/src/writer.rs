//! The write path: serial staging, group commit, and a two-stage
//! pipeline that overlaps staging with durability.
//!
//! Every mutation in the server flows through one *staging* loop that
//! owns the only mutable [`UpdateProcessor`]. The loop is the classic
//! group-commit shape: block for the first pending write, then drain
//! whatever else has queued (up to the batch cap), stage the whole
//! batch against a private processor, make it durable with **one**
//! fsync ([`DurableStore::record_commit_batch`]), publish the new
//! state, and only then acknowledge each client. While an fsync is in
//! flight new requests pile up in the channel, so the next batch grows
//! with the load — latency under contention buys throughput
//! automatically, with no timers and no tuning.
//!
//! **Pipelining** (DESIGN.md §16) splits that cycle across two threads:
//! the *stager* parses, checks, and evaluates batch N+1 while the
//! *syncer* has batch N's `append_batch` fsync in flight. The per-batch
//! floor is `max(stage, fsync)`, not `stage + fsync`. Acks are released
//! by the syncer only after the corresponding fsync completes — never an
//! `ok` before durable bytes — and the syncer alone publishes snapshots,
//! so readers only ever observe durable states.
//!
//! Write-ahead ordering is preserved batch-wide. The stager keeps a
//! long-lived staging processor one-or-two batches ahead of disk; every
//! staged batch carries an **epoch**, and an append failure poisons the
//! current epoch: the syncer demotes the failed batch *and every
//! in-flight batch staged on top of it* (their state was never
//! durable), and the stager rebuilds its staging processor from the
//! last published — durable — snapshot under a fresh epoch. Crash
//! mid-batch leaves a clean prefix of the batch's records (plus at most
//! one torn record) — and since no member of the batch was
//! acknowledged, recovery to any prefix is correct.

use crate::state::{Published, StateCell};
use dduf_core::processor::{ProcessorState, UpdateProcessor};
use dduf_persist::{serialize_transaction, DurableStore};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;

/// How many staged batches may sit between the stager and the syncer.
/// Zero makes the handoff a rendezvous — classic double buffering: the
/// stager builds exactly one batch while the syncer's fsync is in
/// flight, then blocks until the syncer takes it. A deeper pipe lets
/// the stager race ahead and carve the queue into tiny batches, which
/// multiplies fsyncs (their cost is mostly fixed, not per-byte) and
/// adds ack latency under a failure.
const PIPE_DEPTH: usize = 0;

/// A unit of work routed to the writer thread.
pub(crate) enum Job {
    /// Commit a transaction (the `:apply`/`:force` payload).
    Apply {
        /// Transaction source in surface event syntax.
        src: String,
        /// Check integrity constraints first (`:apply` vs `:force`).
        checked: bool,
        /// Where the acknowledgement goes once the batch is durable.
        reply: Sender<Reply>,
    },
    /// Write a snapshot covering the journal so far.
    Checkpoint {
        /// Where the acknowledgement goes.
        reply: Sender<Reply>,
    },
}

/// The writer's answer to one job, in the protocol's terms.
pub(crate) struct Reply {
    /// `ok` vs `err` on the wire.
    pub ok: bool,
    /// Response body.
    pub text: String,
}

/// Live accounting for the bounded job queue, shared by the sessions
/// (enqueue/reject), the writer (dequeue), and `:stats` (render).
#[derive(Debug)]
pub(crate) struct QueueGauge {
    /// Jobs currently enqueued or being handed to the writer.
    depth: AtomicUsize,
    /// The queue's high-water mark (the `sync_channel` bound).
    pub cap: usize,
    /// Jobs accepted into the queue since the server started.
    enqueued: AtomicU64,
    /// Jobs refused with the retryable `busy` diagnostic.
    rejected: AtomicU64,
}

impl QueueGauge {
    pub fn new(cap: usize) -> QueueGauge {
        QueueGauge {
            depth: AtomicUsize::new(0),
            cap,
            enqueued: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Claims a queue slot *before* the send, so the writer's matching
    /// [`note_dequeue`](Self::note_dequeue) can never underflow.
    pub fn note_enqueue(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    /// Releases a claimed slot without the job having been queued
    /// (rejected at the high-water mark, or the writer is gone).
    pub fn note_unqueued(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        self.enqueued.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts a rejection at the high-water mark.
    pub fn note_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// The writer took one job off the queue.
    pub fn note_dequeue(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// `(depth, enqueued, rejected)` — the `:stats` rendering.
    pub fn totals(&self) -> (usize, u64, u64) {
        (
            self.depth.load(Ordering::Relaxed),
            self.enqueued.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
        )
    }
}

/// What one staged request is waiting for at fsync time.
enum Staged {
    /// Evaluated and staged; acknowledged once the batch fsync lands.
    Committed { ack: String, payload: String },
    /// Finished without touching state (rejected / parse error); the
    /// reply is final regardless of the fsync.
    Settled(Reply),
}

/// A batch the stager finished evaluating, waiting for durability.
struct StagedBatch {
    /// The staging epoch this batch was built under; stale epochs are
    /// demoted by the syncer after an append failure.
    epoch: u64,
    /// One journal payload per staged commit, in stage order.
    payloads: Vec<String>,
    /// The post-batch state to publish once the payloads are durable.
    state: ProcessorState,
    /// How many jobs staged as commits / settled as rejections / failed.
    committed: u64,
    rejected: u64,
    failed: u64,
    /// Every job's reply channel and its staged outcome, in job order.
    outcomes: Vec<(Sender<Reply>, Staged)>,
}

/// What flows from the stager to the syncer. Admin jobs ride the same
/// ordered channel, so a `:checkpoint` is a natural barrier: it runs
/// after every batch staged before it is durable and published.
enum PipeItem {
    Batch(Box<StagedBatch>),
    Admin(Job),
}

/// Group: drain whatever queued while the previous fsync ran. Admin
/// jobs are barriers — they end the batch.
fn drain_batch(
    jobs: &Receiver<Job>,
    gauge: &QueueGauge,
    max_batch: usize,
    batch: &mut Vec<Job>,
    deferred: &mut Option<Job>,
) {
    while batch.len() < max_batch {
        match jobs.try_recv() {
            Ok(job @ Job::Apply { .. }) => {
                gauge.note_dequeue();
                batch.push(job);
            }
            Ok(admin) => {
                gauge.note_dequeue();
                *deferred = Some(admin);
                break;
            }
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
        }
    }
}

/// Runs the writer until every job sender is gone: this thread stages;
/// a spawned syncer thread owns the store, fsyncs, publishes, and acks.
/// `max_batch` is the most transactions one group commit may cover.
pub(crate) fn run(
    jobs: Receiver<Job>,
    cell: &StateCell,
    store: DurableStore,
    metrics: &Arc<dduf_obs::SharedCollector>,
    gauge: &QueueGauge,
    max_batch: usize,
) {
    // Every span the staged evaluations record (eval.*, upward.*,
    // journal.append) lands in the server's shared report.
    let _guard = dduf_obs::install_shared(metrics);
    let max_batch = max_batch.max(1);
    let (pipe_tx, pipe_rx) = std::sync::mpsc::sync_channel::<PipeItem>(PIPE_DEPTH);
    // Epochs below this staged on state that never reached disk; the
    // syncer bumps it on append failure, the stager reads it before
    // staging and rebuilds from the published (durable) snapshot.
    let min_valid = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        let syncer = {
            let min_valid = min_valid.clone();
            let metrics = metrics.clone();
            std::thread::Builder::new()
                .name("dduf-syncer".to_string())
                .spawn_scoped(s, move || {
                    let _guard = dduf_obs::install_shared(&metrics);
                    sync_loop(pipe_rx, cell, store, &min_valid);
                })
                .expect("spawn syncer thread")
        };

        // Long-lived staging state, one-or-two batches ahead of disk.
        // `None` forces a rebuild from the published snapshot.
        let mut staging: Option<UpdateProcessor> = None;
        let mut epoch = 0u64;
        loop {
            let first = match jobs.recv() {
                Ok(job) => job,
                Err(_) => break, // all sessions and acceptors are gone
            };
            gauge.note_dequeue();
            let mv = min_valid.load(Ordering::Acquire);
            if mv > epoch {
                // A batch failed to append: everything staged since is
                // invalid. Start over from the durable snapshot.
                epoch = mv;
                staging = None;
            }
            let mut batch = Vec::new();
            let mut deferred = None;
            match first {
                Job::Apply { .. } => batch.push(first),
                admin => {
                    if pipe_tx.send(PipeItem::Admin(admin)).is_err() {
                        break;
                    }
                    continue;
                }
            }
            drain_batch(&jobs, gauge, max_batch, &mut batch, &mut deferred);
            let staged = stage_batch(&mut staging, epoch, batch, cell);
            if pipe_tx.send(PipeItem::Batch(Box::new(staged))).is_err() {
                break; // the syncer died; nothing left to ack
            }
            if let Some(admin) = deferred {
                if pipe_tx.send(PipeItem::Admin(admin)).is_err() {
                    break;
                }
            }
        }
        drop(pipe_tx); // syncer drains the pipeline and exits
        let _ = syncer.join();
    });
}

/// Stages one batch on the long-lived staging processor and clones out
/// the post-batch state for the syncer to publish. The clone copies no
/// tuple — relations and support counts are persistent sorted runs, so
/// it is a reference-count bump per relation and the snapshot shares with
/// the staging processor every run the next batches do not touch. The
/// `server.clone` span and its `facts` counter stay, so `:stats` shows
/// the clone's time flat while `facts` grows.
fn stage_batch(
    staging: &mut Option<UpdateProcessor>,
    epoch: u64,
    batch: Vec<Job>,
    cell: &StateCell,
) -> StagedBatch {
    let timer = dduf_obs::timer();
    let proc = match staging {
        Some(proc) => proc,
        None => {
            let clone_timer = dduf_obs::timer();
            let cur = cell.load();
            let proc = UpdateProcessor::from_state(cur.state.clone());
            dduf_obs::record_timed(
                "server.clone",
                "",
                &[("clones", 1), ("facts", cur.state.db.fact_count() as u64)],
                clone_timer.elapsed_us(),
            );
            staging.insert(proc)
        }
    };
    let (payloads, committed, rejected, failed, outcomes) = stage_jobs(proc, batch);
    // The staging processor lives on for batch N+1, so the publishable
    // state is a clone (shared structure, see above).
    let clone_timer = dduf_obs::timer();
    let state = proc.clone().into_state();
    dduf_obs::record_timed(
        "server.clone",
        "",
        &[("clones", 1), ("facts", state.db.fact_count() as u64)],
        clone_timer.elapsed_us(),
    );
    dduf_obs::record_timed(
        "server.stage",
        "",
        &[
            ("batches", 1),
            ("requests", committed + rejected + failed),
            ("staged", committed),
        ],
        timer.elapsed_us(),
    );
    StagedBatch {
        epoch,
        payloads,
        state,
        committed,
        rejected,
        failed,
        outcomes,
    }
}

/// Stages every job of a batch serially against `proc`. Returns the
/// journal payloads plus per-outcome bookkeeping.
#[allow(clippy::type_complexity)]
fn stage_jobs(
    proc: &mut UpdateProcessor,
    batch: Vec<Job>,
) -> (Vec<String>, u64, u64, u64, Vec<(Sender<Reply>, Staged)>) {
    let mut outcomes: Vec<(Sender<Reply>, Staged)> = Vec::with_capacity(batch.len());
    let (mut committed, mut rejected, mut failed) = (0u64, 0u64, 0u64);
    for job in batch {
        let Job::Apply {
            src,
            checked,
            reply,
        } = job
        else {
            unreachable!("only Apply jobs are batched");
        };
        let outcome = stage_one(proc, &src, checked);
        match &outcome {
            Staged::Committed { .. } => committed += 1,
            Staged::Settled(r) if r.ok => rejected += 1,
            Staged::Settled(_) => failed += 1,
        }
        outcomes.push((reply, outcome));
    }
    let payloads = outcomes
        .iter()
        .filter_map(|(_, o)| match o {
            Staged::Committed { payload, .. } => Some(payload.clone()),
            Staged::Settled(_) => None,
        })
        .collect();
    (payloads, committed, rejected, failed, outcomes)
}

/// The durability stage: appends each staged batch behind one fsync,
/// publishes the batch's state, and releases its acks — in pipeline
/// order. On an append failure it poisons the epoch so every batch
/// staged on the unfsynced state is demoted too.
fn sync_loop(
    pipe: Receiver<PipeItem>,
    cell: &StateCell,
    mut store: DurableStore,
    min_valid: &AtomicU64,
) {
    let mut commits = cell.load().commits;
    let mut poisoned_below = 0u64;
    for item in pipe {
        let StagedBatch {
            epoch,
            payloads,
            state,
            committed,
            rejected,
            failed,
            outcomes,
        } = match item {
            PipeItem::Admin(job) => {
                run_admin(job, cell, &mut store);
                continue;
            }
            PipeItem::Batch(batch) => *batch,
        };
        let timer = dduf_obs::timer();
        if epoch < poisoned_below {
            // Staged on top of a batch that never reached disk: the
            // same demotion rule as the append error itself — no ok
            // without durable bytes. The diagnostic is retryable; the
            // stager has already rebuilt from the durable snapshot.
            record_batch(committed, rejected, failed, 0, timer.elapsed_us(), true);
            release_acks(
                outcomes,
                Some(
                    "retryable: an earlier pipelined batch failed to reach disk; \
                     this transaction was rolled back — retry",
                ),
            );
            continue;
        }
        let mut fsyncs = 0u64;
        let mut append_error = None;
        if !payloads.is_empty() {
            match store.record_commit_batch(&payloads) {
                Ok(end) => {
                    fsyncs = 1;
                    commits += committed;
                    cell.publish(Published {
                        state,
                        journal_end: end,
                        commits,
                    });
                }
                Err(e) => {
                    // Nothing became durable and nothing was
                    // acknowledged; later in-flight batches staged on
                    // this state are demoted when they arrive.
                    poisoned_below = epoch + 1;
                    min_valid.store(poisoned_below, Ordering::Release);
                    append_error = Some(e.to_string());
                }
            }
        }
        dduf_obs::record_timed(
            "server.fsync",
            "",
            &[
                ("batches", 1),
                ("records", payloads.len() as u64),
                ("fsyncs", fsyncs),
            ],
            timer.elapsed_us(),
        );
        record_batch(
            committed,
            rejected,
            failed,
            fsyncs,
            timer.elapsed_us(),
            append_error.is_some(),
        );
        release_acks(outcomes, append_error.as_deref());
    }
}

/// Records the batch-level summary span (a demoted batch and a synced
/// one report the same phase, so dashboards and the bench read one).
fn record_batch(
    committed: u64,
    rejected: u64,
    failed: u64,
    fsyncs: u64,
    elapsed_us: Option<u64>,
    demoted: bool,
) {
    dduf_obs::record_timed(
        "server.batch",
        "",
        &[
            ("requests", committed + rejected + failed),
            ("committed", if demoted { 0 } else { committed }),
            ("rejected", rejected),
            ("failed", failed),
            ("fsyncs", fsyncs),
        ],
        elapsed_us,
    );
}

/// Releases a batch's replies: staged commits become `ok` acks, or are
/// demoted to `err` when the batch (or its epoch) never became durable;
/// settled replies are final either way.
fn release_acks(outcomes: Vec<(Sender<Reply>, Staged)>, demote: Option<&str>) {
    for (reply, outcome) in outcomes {
        let r = match outcome {
            Staged::Committed { ack, .. } => match demote {
                None => Reply {
                    ok: true,
                    text: ack,
                },
                Some(e) => Reply {
                    ok: false,
                    text: e.to_string(),
                },
            },
            Staged::Settled(r) => r,
        };
        // A client that hung up before its ack is not an error.
        let _ = reply.send(r);
    }
}

/// Parses and stages one transaction against the batch's private
/// processor; what `checked` blocks is [`UpdateProcessor::apply`]'s call.
fn stage_one(staged: &mut UpdateProcessor, src: &str, checked: bool) -> Staged {
    let failed = |e: dduf_core::Error| {
        Staged::Settled(Reply {
            ok: false,
            text: e.to_string(),
        })
    };
    let txn = match staged.transaction(src) {
        Ok(txn) => txn,
        Err(e) => return failed(e),
    };
    // Serialize before committing: the payload is the journal record.
    let payload = serialize_transaction(&txn);
    match staged.apply(&txn, checked, &mut |_| Ok(())) {
        Ok(Ok(res)) => Staged::Committed {
            ack: format!("applied {}; induced {}", res.base, res.derived),
            payload,
        },
        Ok(Err(rejection)) => Staged::Settled(Reply {
            ok: true,
            text: rejection.to_string(),
        }),
        Err(e) => failed(e),
    }
}

/// Admin jobs run between batches, against the published state: they
/// execute on the syncer after every earlier batch is durable and
/// published, so `:checkpoint` covers exactly the acknowledged history.
fn run_admin(job: Job, cell: &StateCell, store: &mut DurableStore) {
    match job {
        Job::Checkpoint { reply } => {
            let cur = cell.load();
            let r = match store.checkpoint_with_maint(&cur.state.db, cur.state.maint.as_ref()) {
                Ok(pos) => Reply {
                    ok: true,
                    text: format!("checkpoint written (journal covered to byte {pos})"),
                },
                Err(e) => Reply {
                    ok: false,
                    text: e.to_string(),
                },
            };
            let _ = reply.send(r);
        }
        Job::Apply { .. } => unreachable!("Apply jobs are batched"),
    }
}

/// The sender side of the job queue plus everything a session needs to
/// apply the configured admission policy.
pub(crate) struct JobQueue {
    /// Bounded channel to the writer; the bound is the high-water mark.
    pub jobs: SyncSender<Job>,
    /// Shared depth/reject accounting.
    pub gauge: Arc<QueueGauge>,
    /// What to do when the queue is at its high-water mark.
    pub backpressure: crate::Backpressure,
}

impl JobQueue {
    /// Admits one job under the configured policy. Returns `Ok(())` if
    /// the job reached the queue, or `Err(reply)` with the final
    /// response (a retryable `busy` rejection, or shutdown).
    pub fn submit(&self, job: Job) -> Result<(), Reply> {
        // The slot is claimed before the send so the writer's dequeue
        // accounting can never observe a job it outran.
        self.gauge.note_enqueue();
        let sent = match self.backpressure {
            crate::Backpressure::Block => self.jobs.send(job).map_err(|_| None),
            crate::Backpressure::Reject => match self.jobs.try_send(job) {
                Ok(()) => Ok(()),
                Err(std::sync::mpsc::TrySendError::Full(_)) => Err(Some(())),
                Err(std::sync::mpsc::TrySendError::Disconnected(_)) => Err(None),
            },
        };
        match sent {
            Ok(()) => {
                dduf_obs::record("server.queue", "", &[("enqueued", 1)]);
                Ok(())
            }
            Err(Some(())) => {
                self.gauge.note_unqueued();
                self.gauge.note_reject();
                dduf_obs::record("server.queue", "", &[("rejected", 1)]);
                Err(Reply {
                    ok: false,
                    text: format!(
                        "busy (retryable): commit queue is at its high-water mark \
                         ({} job(s)); retry",
                        self.gauge.cap
                    ),
                })
            }
            Err(None) => {
                self.gauge.note_unqueued();
                Err(Reply {
                    ok: false,
                    text: "server is shutting down".to_string(),
                })
            }
        }
    }
}
