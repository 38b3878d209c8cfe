//! Explanations for induced events: *why* did the upward interpretation
//! report `ins P(c̄)` or `del P(c̄)`?
//!
//! An insertion is explained by a derivation of the fact in the **new**
//! state (§3.1 case b.2: true after, false before); a deletion by its
//! derivation in the **old** state together with the observation that no
//! derivation survives the transition (case a.2). Derivation trees come
//! from [`dduf_datalog::provenance`].

use crate::error::Result;
use crate::transaction::Transaction;
use crate::upward::maintain::MaintenanceEngine;
use dduf_datalog::eval::StateView;
use dduf_datalog::provenance::{explain, Derivation};
use dduf_datalog::storage::database::Database;
use dduf_events::event::{EventKind, GroundEvent};
use std::fmt;

/// Why an induced event occurred.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EventExplanation {
    /// `ins P(c̄)`: the fact is derivable in the new state (tree included)
    /// and was not derivable before.
    Insertion {
        /// The explained event.
        event: GroundEvent,
        /// A derivation in the new state.
        derivation: Derivation,
    },
    /// `del P(c̄)`: the fact was derivable in the old state (tree
    /// included) and no derivation survives the transition.
    Deletion {
        /// The explained event.
        event: GroundEvent,
        /// A derivation in the old state.
        old_derivation: Derivation,
    },
}

impl fmt::Display for EventExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventExplanation::Insertion { event, derivation } => {
                writeln!(f, "{event}: newly derivable —")?;
                write!(f, "{derivation}")
            }
            EventExplanation::Deletion {
                event,
                old_derivation,
            } => {
                writeln!(
                    f,
                    "{event}: no derivation survives the transition; it held via —"
                )?;
                write!(f, "{old_derivation}")
            }
        }
    }
}

/// Explains one induced event of `txn` on `db`, whose derived state
/// `engine` maintains: the new state is its interpretation with the
/// extensions its pass over `txn` stages laid over it. Returns `None` when
/// the event does not actually occur in the transition (the caller asked
/// about a non-event).
pub fn explain_event(
    db: &Database,
    engine: &MaintenanceEngine,
    txn: &Transaction,
    event: &GroundEvent,
) -> Result<Option<EventExplanation>> {
    let new_db = txn.apply(db);
    let mut staged = engine.interpretation().clone();
    for (pred, rel) in engine.interpret(db, txn)?.1.new_exts {
        staged.set(pred, rel);
    }
    let old = StateView::new(db, engine.interpretation());
    let new = StateView::new(&new_db, &staged);
    let (before, after) = (
        old.holds(event.pred, &event.tuple),
        new.holds(event.pred, &event.tuple),
    );
    let (occurs, state) = match event.kind {
        EventKind::Ins => (after && !before, new),
        EventKind::Del => (before && !after, old),
    };
    if !occurs {
        return Ok(None);
    }
    let derivation = explain(state, event.pred, &event.tuple).expect("the fact holds there");
    let event = event.clone();
    Ok(Some(match event.kind {
        EventKind::Ins => EventExplanation::Insertion { event, derivation },
        EventKind::Del => EventExplanation::Deletion {
            event,
            old_derivation: derivation,
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::Pred;
    use dduf_datalog::parser::parse_database;
    use dduf_datalog::storage::tuple::syms;

    fn setup() -> (Database, MaintenanceEngine) {
        let db = parse_database(
            "la(dolors). u_benefit(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap();
        let engine = MaintenanceEngine::new(&db).unwrap();
        (db, engine)
    }

    #[test]
    fn insertion_explained_with_new_state_derivation() {
        let (db, old) = setup();
        let txn = Transaction::parse(&db, "-u_benefit(dolors).").unwrap();
        let ev = GroundEvent::ins(Pred::new("ic1", 0), syms(&[]));
        let ex = explain_event(&db, &old, &txn, &ev).unwrap().unwrap();
        let shown = ex.to_string();
        assert!(shown.contains("+ic1: newly derivable"), "{shown}");
        assert!(shown.contains("unemp(dolors)"), "{shown}");
        assert!(
            shown.contains("not u_benefit(dolors)  [checked absent]"),
            "{shown}"
        );
    }

    #[test]
    fn deletion_explained_with_old_state_derivation() {
        let (db, old) = setup();
        let txn = Transaction::parse(&db, "+works(dolors).").unwrap();
        let ev = GroundEvent::del(Pred::new("unemp", 1), syms(&["dolors"]));
        let ex = explain_event(&db, &old, &txn, &ev).unwrap().unwrap();
        let shown = ex.to_string();
        assert!(shown.contains("no derivation survives"), "{shown}");
        assert!(shown.contains("la(dolors)  [fact]"), "{shown}");
    }

    #[test]
    fn non_events_return_none() {
        let (db, old) = setup();
        let txn = Transaction::parse(&db, "+works(dolors).").unwrap();
        // unemp(dolors) is deleted, not inserted:
        let not_ev = GroundEvent::ins(Pred::new("unemp", 1), syms(&["dolors"]));
        assert!(explain_event(&db, &old, &txn, &not_ev).unwrap().is_none());
        // and nothing happens to la(dolors) as a derived matter:
        let base_ev = GroundEvent::del(Pred::new("la", 1), syms(&["dolors"]));
        assert!(explain_event(&db, &old, &txn, &base_ev).unwrap().is_none());
    }
}
