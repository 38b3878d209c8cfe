//! The **upward interpretation** of the event rules (§4.1).
//!
//! Given the current (old) state of the database and a transaction (a set
//! of base event facts), the upward interpretation computes the changes on
//! derived predicates induced by the transaction: the left implications
//!
//! ```text
//! ins P(x̄) ← Pⁿ(x̄) ∧ ¬P°(x̄)
//! del P(x̄) ← P°(x̄) ∧ ¬Pⁿ(x̄)
//! ```
//!
//! The paper separates the interpretation from its implementations (§4
//! preamble). Here there is one implementation and one oracle:
//!
//! * [`maintain::MaintenanceEngine`] keeps support counts for
//!   non-recursive strata, after \[GMS93\] — the maintenance algorithm
//!   the paper cites in §5.1.3 — and delete-and-rederives recursive ones.
//!   A commit runs its pass and installs the result; a read-only upward
//!   problem runs the same pass ([`MaintenanceEngine::interpret_for`]),
//!   restricted to the events it asks for, and drops it.
//! * [`semantic`] materializes the new state and takes set differences —
//!   it is definitionally correct (it *is* the event definitions (1)/(2))
//!   and serves as the oracle the engine is differentially tested
//!   against on random programs.
//!
//! [`MaintenanceEngine::interpret_for`]: maintain::MaintenanceEngine::interpret_for

pub mod maintain;
pub mod semantic;

use crate::error::Result;
use crate::transaction::Transaction;
use dduf_datalog::ast::Pred;
use dduf_datalog::storage::database::Database;
use dduf_datalog::storage::relation::Relation;
use dduf_events::event::{EventKind, GroundEvent};
use dduf_events::store::EventStore;
use std::collections::BTreeSet;
use std::fmt;

/// The events an upward problem asks for: the cell of Table 4.1 it is
/// (§5.1.1 *is* "the upward interpretation of `ιIc`").
pub type Goals = BTreeSet<(Pred, EventKind)>;

/// The result of upward-interpreting a transaction: the effective base
/// events plus every induced derived event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpwardResult {
    /// The effective base events (the transaction minus no-ops).
    pub base: EventStore,
    /// The induced events on derived predicates.
    pub derived: EventStore,
}

impl UpwardResult {
    /// The relation of `kind` events on `pred`, base or derived.
    pub fn relation(&self, kind: EventKind, pred: Pred, db: &Database) -> Relation {
        if db.program().is_derived(pred) {
            self.derived.relation(kind, pred).clone()
        } else {
            self.base.relation(kind, pred).clone()
        }
    }

    /// True iff the given event (base or derived) occurred.
    pub fn contains(&self, e: &GroundEvent) -> bool {
        self.base.contains(e) || self.derived.contains(e)
    }

    /// All events (base then derived), deterministic order.
    pub fn all_events(&self) -> impl Iterator<Item = GroundEvent> + '_ {
        self.base.iter().chain(self.derived.iter())
    }

    /// True iff the transaction induced no derived change at all.
    pub fn no_induced_changes(&self) -> bool {
        self.derived.is_empty()
    }
}

impl fmt::Display for UpwardResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "base: {} induced: {}", self.base, self.derived)
    }
}

/// Upward-interprets `txn` against `db`: every induced event, read by a
/// throwaway maintenance engine that builds the old state itself. A caller
/// that keeps state ([`UpdateProcessor`](crate::processor::UpdateProcessor))
/// reads through its own engine instead of building one per call.
pub fn interpret(db: &Database, txn: &Transaction) -> Result<UpwardResult> {
    maintain::MaintenanceEngine::new(db)?.interpret_for(db, txn, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;
    use dduf_datalog::storage::tuple::syms;

    /// Example 4.1 of the paper: T = {del R(B)} induces exactly
    /// {ins P(B)} on P(x) ← Q(x) ∧ ¬R(x) with Q = {A, B}, R = {B} — by
    /// the oracle and by the engine's read.
    #[test]
    fn example_4_1_both_engines() {
        let db = parse_database(
            "q(a). q(b). r(b).
             p(X) :- q(X), not r(X).",
        )
        .unwrap();
        let txn = Transaction::parse(&db, "-r(b).").unwrap();
        let old = materialize(&db).unwrap();
        for res in [
            semantic::interpret(&db, &old, &txn).unwrap(),
            interpret(&db, &txn).unwrap(),
        ] {
            let induced: Vec<String> = res.derived.iter().map(|e| e.to_string()).collect();
            assert_eq!(induced, vec!["+p(b)"]);
        }
    }

    #[test]
    fn default_interpret_works() {
        let db = parse_database("q(a). p(X) :- q(X).").unwrap();
        let txn = Transaction::parse(&db, "+q(b).").unwrap();
        let res = interpret(&db, &txn).unwrap();
        assert!(res.contains(&GroundEvent::ins(Pred::new("p", 1), syms(&["b"]))));
        assert!(res.contains(&GroundEvent::ins(Pred::new("q", 1), syms(&["b"]))));
        assert!(!res.no_induced_changes());
    }

    #[test]
    fn result_accessors() {
        let db = parse_database("q(a). p(X) :- q(X).").unwrap();
        let txn = Transaction::parse(&db, "+q(b).").unwrap();
        let res = interpret(&db, &txn).unwrap();
        // relation() dispatches base vs derived.
        assert_eq!(
            res.relation(EventKind::Ins, Pred::new("q", 1), &db).len(),
            1
        );
        assert_eq!(
            res.relation(EventKind::Ins, Pred::new("p", 1), &db).len(),
            1
        );
        let all: Vec<String> = res.all_events().map(|e| e.to_string()).collect();
        assert_eq!(all, vec!["+q(b)", "+p(b)"]);
        assert!(res.to_string().contains("induced"));
    }

    #[test]
    fn noop_transaction_induces_nothing() {
        let db = parse_database("q(a). p(X) :- q(X).").unwrap();
        let txn = Transaction::parse(&db, "+q(a).").unwrap(); // q(a) already holds
        let res = interpret(&db, &txn).unwrap();
        assert!(res.base.is_empty());
        assert!(res.no_induced_changes());
    }
}
