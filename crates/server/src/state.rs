//! Snapshot publication: the immutable state readers query.
//!
//! The server's concurrency model has exactly one mutable place — the
//! writer's staging processor — and everything a reader touches is an
//! immutable [`Published`] value behind an `Arc`. After each group
//! commit the writer swaps a freshly built `Arc` into the [`StateCell`];
//! a session picks up whichever snapshot is current when its request
//! arrives and keeps querying that same `Arc` for the request's
//! duration. Reads therefore never block writes (the cell is held only
//! long enough to clone or store a pointer) and never observe a
//! half-applied batch: snapshot isolation by construction.

use dduf_core::processor::ProcessorState;
use std::sync::{Arc, RwLock};

/// One published state: the processor state readers query, stamped with
/// how much journal it covers.
#[derive(Debug)]
pub struct Published {
    /// The extensional database, its materialized derived relations, and
    /// the maintenance state the writer carries across group-committed
    /// batches.
    pub state: ProcessorState,
    /// Journal byte offset this state is durable through.
    pub journal_end: u64,
    /// Transactions committed since the server started.
    pub commits: u64,
}

/// The single mutable slot the writer publishes through. Readers
/// [`load`](StateCell::load) an `Arc` and work off it lock-free; the
/// writer [`publish`](StateCell::publish)es a replacement pointer after
/// each durable batch.
#[derive(Debug)]
pub struct StateCell {
    slot: RwLock<Arc<Published>>,
}

impl StateCell {
    /// Creates the cell holding the server's initial (recovered) state.
    pub fn new(initial: Published) -> StateCell {
        StateCell {
            slot: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot. The lock is held only to clone the `Arc`;
    /// all querying happens on the returned owned value.
    pub fn load(&self) -> Arc<Published> {
        self.slot.read().expect("state cell poisoned").clone()
    }

    /// Atomically replaces the published snapshot. Readers holding the
    /// previous `Arc` keep their consistent view until they drop it.
    pub fn publish(&self, next: Published) {
        *self.slot.write().expect("state cell poisoned") = Arc::new(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_core::processor::UpdateProcessor;
    use dduf_datalog::parser::parse_database;

    #[test]
    fn readers_keep_their_snapshot_across_a_publish() {
        let db = parse_database("p(a). q(X) :- p(X).").unwrap();
        let cell = StateCell::new(Published {
            state: UpdateProcessor::new(db).unwrap().into_state(),
            journal_end: 8,
            commits: 0,
        });
        let before = cell.load();

        let db2 = parse_database("p(a). p(b). q(X) :- p(X).").unwrap();
        cell.publish(Published {
            state: UpdateProcessor::new(db2).unwrap().into_state(),
            journal_end: 42,
            commits: 1,
        });

        // The old Arc still describes the old state; a fresh load sees
        // the new one.
        assert_eq!(before.journal_end, 8);
        assert_eq!(before.state.db.fact_count(), 1);
        let after = cell.load();
        assert_eq!(after.journal_end, 42);
        assert_eq!(after.state.db.fact_count(), 2);
    }
}
