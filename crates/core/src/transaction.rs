//! Transactions: sets of base event facts (§3.1).
//!
//! "We assume from now on that T consists of an unspecified set of
//! insertion and/or deletion base event facts." A [`Transaction`] is such a
//! set, validated against a database (base predicates only, internally
//! consistent) and applicable to produce the new extensional state.

use crate::error::{Error, Result};
use dduf_datalog::ast::Pred;
use dduf_datalog::parser;
use dduf_datalog::storage::database::Database;
use dduf_datalog::storage::tuple::Tuple;
use dduf_events::event::{EventKind, GroundEvent};
use dduf_events::store::EventStore;
use std::collections::BTreeMap;
use std::fmt;

/// A set of ground base events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transaction {
    events: EventStore,
}

impl Transaction {
    /// The empty transaction.
    pub fn new() -> Transaction {
        Transaction::default()
    }

    /// Builds a transaction from events, validating against `db`:
    /// every event must target a *base* predicate, and the set must not
    /// both insert and delete the same atom.
    pub fn from_events(
        db: &Database,
        events: impl IntoIterator<Item = GroundEvent>,
    ) -> Result<Transaction> {
        let mut store = EventStore::new();
        for e in events {
            if db.program().is_derived(e.pred) {
                return Err(Error::DerivedEventInTransaction(e));
            }
            store.insert(e);
        }
        if let Some((pred, tuple)) = store.conflicts().next() {
            return Err(Error::ConflictingEvents {
                pred,
                atom: tuple.to_atom(pred).to_string(),
            });
        }
        Ok(Transaction { events: store })
    }

    /// Parses a transaction from surface syntax (`+p(a). -q(b).`),
    /// validating against `db`.
    pub fn parse(db: &Database, src: &str) -> Result<Transaction> {
        let parsed = parser::parse_events(src)?;
        let mut events = Vec::with_capacity(parsed.len());
        for pe in parsed {
            let kind = if pe.insert {
                EventKind::Ins
            } else {
                EventKind::Del
            };
            let tuple = pe
                .atom
                .as_tuple()
                .ok_or_else(|| Error::NonGroundEvent(format!("{}{}", kind.sigil(), pe.atom)))?;
            events.push(GroundEvent::new(kind, pe.atom.pred, tuple.into()));
        }
        Transaction::from_events(db, events)
    }

    /// The events.
    pub fn events(&self) -> &EventStore {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Splits the transaction into *effective* events and *no-ops* with
    /// respect to the old state: by definitions (1)/(2), `+p(c̄)` is only an
    /// event if `p(c̄)` did not hold, and `-p(c̄)` only if it held.
    pub fn normalize(&self, db: &Database) -> (Transaction, Vec<GroundEvent>) {
        let mut effective = EventStore::new();
        let mut noops = Vec::new();
        for e in self.events.iter() {
            let held = db.holds(e.pred, &e.tuple);
            let is_event = match e.kind {
                EventKind::Ins => !held,
                EventKind::Del => held,
            };
            if is_event {
                effective.insert(e);
            } else {
                noops.push(e);
            }
        }
        (Transaction { events: effective }, noops)
    }

    /// Sequential composition: folds `next` into `self`, which becomes the
    /// one transaction `self; next`. A transaction is a set of base events
    /// (§3.1) and applying one sets each fact it names, so for every base
    /// fact the last event on it wins and facts neither names keep their
    /// value: on any state, applying the composition equals applying
    /// `self` and then `next`. The composition is still conflict-free;
    /// [`normalize`](Self::normalize) against the state it will be applied
    /// to then drops the events that change nothing there (an insertion
    /// and a later deletion of a fact absent from it, say).
    pub fn then(&mut self, next: &Transaction) {
        for e in next.events.iter() {
            self.events.remove(&e.inverse());
            self.events.insert(e);
        }
    }

    /// Applies the transaction to a clone of `db`, producing the new
    /// state `Dⁿ` beside the old one. The two share every relation the
    /// transaction does not touch and, of the touched ones, every run its
    /// events do not fall in. No-op events are silently ignored (they do
    /// not change the state).
    pub fn apply(&self, db: &Database) -> Database {
        let mut new_db = db.clone();
        self.apply_in_place(&mut new_db);
        new_db
    }

    /// [`apply`](Self::apply) on `db` itself, for a caller that no longer
    /// needs the old state: the commit path and journal replay.
    pub fn apply_in_place(&self, db: &mut Database) {
        // Group per (kind, pred) so each relation is mutated in one bulk
        // call, not once per event.
        let mut ins: BTreeMap<Pred, Vec<Tuple>> = BTreeMap::new();
        let mut del: BTreeMap<Pred, Vec<Tuple>> = BTreeMap::new();
        for e in self.events.iter() {
            match e.kind {
                EventKind::Ins => ins.entry(e.pred).or_default().push(e.tuple.clone()),
                EventKind::Del => del.entry(e.pred).or_default().push(e.tuple.clone()),
            }
        }
        for (pred, tuples) in ins {
            db.extend_tuples(pred, tuples)
                .expect("validated base event");
        }
        for (pred, tuples) in del {
            db.remove_tuples(pred, tuples.iter());
        }
    }

    /// Returns a transaction extended with more events (re-validated).
    pub fn extended(
        &self,
        db: &Database,
        extra: impl IntoIterator<Item = GroundEvent>,
    ) -> Result<Transaction> {
        Transaction::from_events(db, self.events.iter().chain(extra))
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::Pred;
    use dduf_datalog::parser::parse_database;
    use dduf_datalog::storage::tuple::syms;

    fn db() -> Database {
        parse_database(
            "q(a). q(b). r(b).
             p(X) :- q(X), not r(X).",
        )
        .unwrap()
    }

    #[test]
    fn parse_and_apply() {
        let db = db();
        let t = Transaction::parse(&db, "-r(b).").unwrap();
        assert_eq!(t.len(), 1);
        let new_db = t.apply(&db);
        assert!(!new_db.holds(Pred::new("r", 1), &syms(&["b"])));
        assert!(db.holds(Pred::new("r", 1), &syms(&["b"]))); // old untouched
    }

    #[test]
    fn derived_event_rejected() {
        let db = db();
        let err = Transaction::parse(&db, "+p(a).").unwrap_err();
        assert!(matches!(err, Error::DerivedEventInTransaction(_)));
        let db = crate::testkit::employment_db();
        let err = Transaction::parse(&db, "+works(X).").unwrap_err();
        assert!(matches!(err, Error::NonGroundEvent(_)));
        assert!(err.to_string().contains("works(X)"), "{err}");
    }

    #[test]
    fn conflicting_events_rejected() {
        let db = db();
        let err = Transaction::parse(&db, "+q(z). -q(z).").unwrap_err();
        assert!(matches!(err, Error::ConflictingEvents { .. }));
    }

    #[test]
    fn normalize_drops_noops() {
        let db = db();
        // +q(a) is a no-op (q(a) already holds); -q(z) is a no-op (absent).
        let t = Transaction::parse(&db, "+q(a). -q(z). -r(b).").unwrap();
        let (eff, noops) = t.normalize(&db);
        assert_eq!(eff.len(), 1);
        assert_eq!(noops.len(), 2);
        assert!(eff
            .events()
            .contains(&GroundEvent::del(Pred::new("r", 1), syms(&["b"]))));
    }

    #[test]
    fn extended_revalidates() {
        let db = db();
        let t = Transaction::parse(&db, "+q(z).").unwrap();
        let err = t.extended(&db, [GroundEvent::del(Pred::new("q", 1), syms(&["z"]))]);
        assert!(matches!(err, Err(Error::ConflictingEvents { .. })));
        let ok = t
            .extended(&db, [GroundEvent::del(Pred::new("r", 1), syms(&["b"]))])
            .unwrap();
        assert_eq!(ok.len(), 2);
    }

    /// Folds `srcs` in order and checks the composition law on `db`: the
    /// normalized fold applied once equals the transactions applied one
    /// after the other. Returns the normalized fold.
    fn fold_matches_serial(db: &Database, srcs: &[&str]) -> Transaction {
        let mut serial = db.clone();
        let mut net = Transaction::new();
        for src in srcs {
            let t = Transaction::parse(db, src).unwrap();
            t.apply_in_place(&mut serial);
            net.then(&t);
        }
        let (net, _) = net.normalize(db);
        assert_eq!(
            dduf_datalog::pretty::database(&net.apply(db)),
            dduf_datalog::pretty::database(&serial),
            "{srcs:?}: the fold {net} disagrees with serial application"
        );
        net
    }

    #[test]
    fn fold_keeps_the_last_event_per_fact() {
        let db = db();
        let net = fold_matches_serial(&db, &["+q(z). -r(b).", "+r(b). +q(y).", "-q(z)."]);
        assert_eq!(net.to_string(), "{+q(y)}");
    }

    #[test]
    fn fold_drops_noops_against_the_old_state() {
        let db = db();
        // Each event is a no-op on the old state, alone or together.
        let net = fold_matches_serial(&db, &["+q(a).", "-q(z).", "-r(a). +r(b)."]);
        assert!(net.is_empty(), "{net}");
        // Insert-then-delete of an absent fact, delete-then-reinsert of a
        // present one: both cancel.
        let net = fold_matches_serial(&db, &["+q(z).", "-q(z).", "-q(a).", "+q(a)."]);
        assert!(net.is_empty(), "{net}");
    }

    #[test]
    fn fold_delete_then_reinsert_nets_to_the_last_event() {
        let db = db();
        let net = fold_matches_serial(&db, &["-r(b).", "+r(b).", "-r(b)."]);
        assert_eq!(net.to_string(), "{-r(b)}");
        let net = fold_matches_serial(&db, &["+r(a).", "-r(a).", "+r(a). -q(b)."]);
        assert_eq!(net.to_string(), "{+r(a), -q(b)}");
    }

    #[test]
    fn fold_matches_serial_on_seeded_random_tails() {
        let db = db();
        let atoms = ["q(a)", "q(b)", "q(z)", "r(a)", "r(b)", "r(z)"];
        let mut rng = crate::rng::Rng::new(0xF01D);
        for _ in 0..200 {
            let tail: Vec<String> = (0..rng.usize(8))
                .map(|_| {
                    // A multi-event transaction over distinct atoms.
                    let mut picked: Vec<&str> = Vec::new();
                    for _ in 0..1 + rng.usize(3) {
                        let atom = atoms[rng.usize(atoms.len())];
                        if !picked.contains(&atom) {
                            picked.push(atom);
                        }
                    }
                    picked
                        .iter()
                        .map(|a| format!("{}{a}.", if rng.chance(0.5) { '+' } else { '-' }))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            let srcs: Vec<&str> = tail.iter().map(String::as_str).collect();
            let net = fold_matches_serial(&db, &srcs);
            let (again, noops) = net.normalize(&db);
            assert!(
                noops.is_empty() && again == net,
                "{srcs:?}: {net} is not net"
            );
        }
    }

    #[test]
    fn display_set_syntax() {
        let db = db();
        let t = Transaction::parse(&db, "-r(b).").unwrap();
        assert_eq!(t.to_string(), "{-r(b)}");
    }
}
