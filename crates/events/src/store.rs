//! Sets of ground events, organized per predicate and kind, backed by
//! [`Relation`]s so the join pipeline can query them exactly like database
//! relations ("a base event literal corresponds to a query that must be
//! applied to the transaction", §4.1).

use crate::event::{EventKind, GroundEvent};
use dduf_datalog::ast::Pred;
use dduf_datalog::storage::relation::Relation;
use dduf_datalog::storage::tuple::Tuple;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

fn empty_relation() -> &'static Relation {
    static EMPTY: OnceLock<Relation> = OnceLock::new();
    EMPTY.get_or_init(Relation::new)
}

/// A set of ground events, queryable per (kind, predicate) as a relation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventStore {
    ins: BTreeMap<Pred, Relation>,
    del: BTreeMap<Pred, Relation>,
}

impl EventStore {
    /// Creates an empty store.
    pub fn new() -> EventStore {
        EventStore::default()
    }

    /// Creates a store from events.
    pub fn from_events(events: impl IntoIterator<Item = GroundEvent>) -> EventStore {
        let mut s = EventStore::new();
        for e in events {
            s.insert(e);
        }
        s
    }

    /// Adds an event; returns `true` if it was new.
    pub fn insert(&mut self, e: GroundEvent) -> bool {
        self.side_mut(e.kind)
            .entry(e.pred)
            .or_default()
            .insert(e.tuple)
    }

    /// Removes an event; returns `true` if it was present.
    pub fn remove(&mut self, e: &GroundEvent) -> bool {
        self.side_mut(e.kind)
            .get_mut(&e.pred)
            .is_some_and(|r| r.remove(&e.tuple))
    }

    /// Membership test.
    pub fn contains(&self, e: &GroundEvent) -> bool {
        self.relation(e.kind, e.pred).contains(&e.tuple)
    }

    /// The relation of `kind` events on `pred` (empty if none).
    pub fn relation(&self, kind: EventKind, pred: Pred) -> &Relation {
        self.side(kind)
            .get(&pred)
            .unwrap_or_else(|| empty_relation())
    }

    /// Iterates all events in deterministic order (insertions before
    /// deletions, then by predicate, then by tuple).
    pub fn iter(&self) -> impl Iterator<Item = GroundEvent> + '_ {
        let ins = self
            .ins
            .iter()
            .flat_map(|(&p, r)| r.iter().map(move |t| GroundEvent::ins(p, t.clone())));
        let del = self
            .del
            .iter()
            .flat_map(|(&p, r)| r.iter().map(move |t| GroundEvent::del(p, t.clone())));
        ins.chain(del)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.ins
            .values()
            .chain(self.del.values())
            .map(Relation::len)
            .sum()
    }

    /// True iff no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Predicates that have at least one event of `kind`.
    pub fn predicates(&self, kind: EventKind) -> impl Iterator<Item = Pred> + '_ {
        self.side(kind)
            .iter()
            .filter(|(_, r)| !r.is_empty())
            .map(|(&p, _)| p)
    }

    /// True iff some event, of either kind, is on `pred`.
    pub fn touches(&self, pred: Pred) -> bool {
        !self.relation(EventKind::Ins, pred).is_empty()
            || !self.relation(EventKind::Del, pred).is_empty()
    }

    /// Adds the events that turn `old`, an extension of `pred`, into
    /// `new`: insertions of `new \ old`, deletions of `old \ new`
    /// (definitions (1)/(2) of §3.1).
    pub fn add_difference(&mut self, pred: Pred, old: &Relation, new: &Relation) {
        for t in new.difference(old).iter() {
            self.insert(GroundEvent::ins(pred, t.clone()));
        }
        for t in old.difference(new).iter() {
            self.insert(GroundEvent::del(pred, t.clone()));
        }
    }

    /// Adds every event of `other`.
    pub fn extend(&mut self, other: &EventStore) {
        for e in other.iter() {
            self.insert(e);
        }
    }

    /// Splits the store by predicate: the events on the predicates `f`
    /// holds of, and the rest. Moves each predicate's relations whole.
    pub fn partition(self, f: impl Fn(Pred) -> bool) -> (EventStore, EventStore) {
        let split = |side: BTreeMap<Pred, Relation>| -> (BTreeMap<_, _>, BTreeMap<_, _>) {
            side.into_iter().partition(|&(p, _)| f(p))
        };
        let ((ins, other_ins), (del, other_del)) = (split(self.ins), split(self.del));
        let other = EventStore {
            ins: other_ins,
            del: other_del,
        };
        (EventStore { ins, del }, other)
    }

    /// True iff this store contains `+p(t)` and `-p(t)` for the same ground
    /// atom (an internally contradictory set of events — by definitions
    /// (1)/(2) an atom cannot be both inserted and deleted in one
    /// transition).
    pub fn has_conflict(&self) -> bool {
        self.conflicts().next().is_some()
    }

    /// The (pred, tuple) pairs appearing with both kinds.
    pub fn conflicts(&self) -> impl Iterator<Item = (Pred, Tuple)> + '_ {
        self.ins.iter().flat_map(move |(&p, r)| {
            let del = self.del.get(&p);
            r.iter()
                .filter(move |t| del.is_some_and(|d| d.contains(t)))
                .map(move |t| (p, t.clone()))
        })
    }

    fn side(&self, kind: EventKind) -> &BTreeMap<Pred, Relation> {
        match kind {
            EventKind::Ins => &self.ins,
            EventKind::Del => &self.del,
        }
    }

    fn side_mut(&mut self, kind: EventKind) -> &mut BTreeMap<Pred, Relation> {
        match kind {
            EventKind::Ins => &mut self.ins,
            EventKind::Del => &mut self.del,
        }
    }
}

impl FromIterator<GroundEvent> for EventStore {
    fn from_iter<I: IntoIterator<Item = GroundEvent>>(iter: I) -> EventStore {
        EventStore::from_events(iter)
    }
}

/// Prints insertions before deletions like [`EventStore::iter`], but
/// within a kind by predicate name, arity, then rendered tuple: `Sym`
/// order is interning order, which differs from process to process, and
/// what two processes print for one event set must not.
impl fmt::Display for EventStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut events: Vec<GroundEvent> = self.iter().collect();
        events.sort_by_cached_key(|e| {
            (
                e.kind,
                e.pred.name.as_str(),
                e.pred.arity,
                e.tuple.to_string(),
            )
        });
        write!(f, "{{")?;
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::storage::tuple::syms;

    #[test]
    fn difference_of_two_extensions_is_their_events() {
        let (p, q) = (Pred::new("v", 1), Pred::new("w", 1));
        let old: Relation = [syms(&["a"]), syms(&["b"])].into_iter().collect();
        let new: Relation = [syms(&["b"]), syms(&["c"])].into_iter().collect();
        let mut s = EventStore::new();
        s.add_difference(p, &old, &new);
        s.add_difference(q, &old, &old);
        assert_eq!(s.to_string(), "{+v(c), -v(a)}");
        assert!(s.touches(p) && !s.touches(q));
    }

    #[test]
    fn insert_query_relation() {
        let mut s = EventStore::new();
        let p = Pred::new("works", 1);
        assert!(s.insert(GroundEvent::ins(p, syms(&["john"]))));
        assert!(!s.insert(GroundEvent::ins(p, syms(&["john"]))));
        assert_eq!(s.relation(EventKind::Ins, p).len(), 1);
        assert!(s.relation(EventKind::Del, p).is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn partition_splits_by_predicate() {
        let (p, q) = (Pred::new("p", 1), Pred::new("q", 1));
        let s = EventStore::from_events([
            GroundEvent::ins(p, syms(&["a"])),
            GroundEvent::del(p, syms(&["b"])),
            GroundEvent::ins(q, syms(&["c"])),
        ]);
        let (ps, rest) = s.clone().partition(|pred| pred == p);
        assert_eq!(ps.to_string(), "{+p(a), -p(b)}");
        assert_eq!(
            rest,
            EventStore::from_events([GroundEvent::ins(q, syms(&["c"]))])
        );
        let (all, none) = s.clone().partition(|_| true);
        assert_eq!((all, none), (s, EventStore::new()));
    }

    #[test]
    fn conflicts_detected() {
        let p = Pred::new("p", 1);
        let mut s = EventStore::new();
        s.insert(GroundEvent::ins(p, syms(&["a"])));
        assert!(!s.has_conflict());
        s.insert(GroundEvent::del(p, syms(&["a"])));
        assert!(s.has_conflict());
        assert_eq!(s.conflicts().count(), 1);
    }

    #[test]
    fn display_is_set_like() {
        let p = Pred::new("r", 1);
        let s = EventStore::from_events([GroundEvent::del(p, syms(&["b"]))]);
        assert_eq!(s.to_string(), "{-r(b)}");
    }

    #[test]
    fn display_orders_by_name_not_by_interning() {
        // Intern in reverse order so id order differs from lexicographic.
        let z = Pred::new("zzz_display_test", 1);
        let a2 = Pred::new("aaa_display_test", 2);
        let a1 = Pred::new("aaa_display_test", 1);
        let s = EventStore::from_events([
            GroundEvent::del(a1, syms(&["k"])),
            GroundEvent::ins(z, syms(&["zz_display_const"])),
            GroundEvent::ins(z, syms(&["aa_display_const"])),
            GroundEvent::ins(a2, syms(&["x", "y"])),
            GroundEvent::ins(a1, syms(&["x"])),
        ]);
        assert_eq!(
            s.to_string(),
            "{+aaa_display_test(x), +aaa_display_test(x, y), \
             +zzz_display_test(aa_display_const), +zzz_display_test(zz_display_const), \
             -aaa_display_test(k)}"
        );
        // `iter()` keeps `Sym` order: the journal payload and every map
        // key depend on it.
        assert_eq!(s.iter().next().map(|e| e.pred), Some(z));
    }

    #[test]
    fn iter_deterministic() {
        let p = Pred::new("p", 1);
        let q = Pred::new("q", 1);
        let s = EventStore::from_events([
            GroundEvent::del(q, syms(&["z"])),
            GroundEvent::ins(p, syms(&["a"])),
        ]);
        let order: Vec<String> = s.iter().map(|e| e.to_string()).collect();
        assert_eq!(order, vec!["+p(a)", "-q(z)"]);
    }

    #[test]
    fn remove_and_absent_relations() {
        let p = Pred::new("p", 1);
        let mut s = EventStore::from_events([GroundEvent::ins(p, syms(&["a"]))]);
        assert!(s.remove(&GroundEvent::ins(p, syms(&["a"]))));
        assert!(!s.remove(&GroundEvent::ins(p, syms(&["a"]))));
        assert!(s.is_empty());
        // Relations for never-touched predicates are empty, not panics.
        assert!(s.relation(EventKind::Del, Pred::new("ghost", 3)).is_empty());
        assert_eq!(s.predicates(EventKind::Ins).count(), 0);
    }

    #[test]
    fn extend_unions() {
        let p = Pred::new("p", 1);
        let mut a = EventStore::from_events([GroundEvent::ins(p, syms(&["a"]))]);
        let b = EventStore::from_events([
            GroundEvent::ins(p, syms(&["a"])),
            GroundEvent::ins(p, syms(&["b"])),
        ]);
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }
}
