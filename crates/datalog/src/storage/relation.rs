//! In-memory relations: ordered tuple sets with pattern selection and
//! composite (multi-column) hash indexes for the hot lookup paths of the
//! join pipeline.

use crate::ast::Const;
use crate::storage::runs::Runs;
use crate::storage::tuple::Tuple;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, RwLock};

/// A composite index: key tuple (values of the indexed columns, in
/// column order) → matching tuples.
type CompositeIndex = HashMap<Box<[Const]>, Vec<Tuple>>;

/// Below this size, indexing never pays off: selects and probes fall back
/// to scanning the (tiny) tuple set directly.
pub(crate) const INDEX_MIN: usize = 16;

/// A set of ground tuples of a single arity.
///
/// Tuples are kept in persistent sorted runs ([`Runs`]), so iteration is
/// in ascending tuple order — and therefore every answer the engine
/// produces is deterministic — while `clone()` copies nothing: a clone
/// shares every run with its origin until one of them is mutated, and a
/// mutation copies only the runs it touches. Joins that probe bound
/// columns go through an internal composite index keyed by the bound
/// column *set*: one hash map per distinct column set, mapping the key
/// tuple (the values of those columns) to the matching tuples. Indexes
/// are built on first use, and only for column sets that are not a
/// prefix of the column order ([`Relation::probe_cols`]).
#[derive(Clone, Debug, Default)]
pub struct Relation {
    tuples: Runs<()>,
    /// Composite indexes keyed by the (sorted) indexed column set. Behind
    /// an `RwLock` so the steady state — session threads probing an
    /// already-built index of a shared snapshot relation — takes only a
    /// shared read lock; the exclusive
    /// write lock is held just once per column set to build. Clones share
    /// the cache (same tuple set, same indexes, whichever of them builds
    /// one); a mutation *detaches* the mutated relation onto an empty
    /// cache and leaves the others theirs. It does not participate in
    /// equality.
    index: Arc<RwLock<HashMap<Box<[usize]>, CompositeIndex>>>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new() -> Relation {
        Relation::default()
    }

    /// Creates a relation from tuples.
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut sorted: Vec<Tuple> = tuples.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        Relation::from_sorted(sorted)
    }

    /// Creates a relation from tuples in strictly ascending order.
    fn from_sorted(tuples: impl IntoIterator<Item = Tuple>) -> Relation {
        Relation {
            tuples: Runs::from_sorted(tuples.into_iter().map(|t| (t, ()))),
            index: Arc::default(),
        }
    }

    /// Leaves the index cache to the clones that still have this
    /// relation's previous tuple set; called after every change to it.
    fn detach_index(&mut self) {
        match Arc::get_mut(&mut self.index) {
            Some(own) => own.get_mut().expect("index lock").clear(),
            None => self.index = Arc::default(),
        }
    }

    /// Inserts a tuple; returns `true` if it was not already present.
    pub fn insert(&mut self, t: Tuple) -> bool {
        let fresh = self.tuples.insert(t, ());
        if fresh {
            self.detach_index();
        }
        fresh
    }

    /// Removes a tuple; returns `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let removed = self.tuples.remove(t).is_some();
        if removed {
            self.detach_index();
        }
        removed
    }

    /// Bulk insertion: adds every tuple, detaching the index cache at
    /// most once. Returns the tuples that were genuinely new, in input
    /// order.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> Vec<Tuple> {
        let mut fresh = Vec::new();
        for t in tuples {
            if self.tuples.insert(t.clone(), ()) {
                fresh.push(t);
            }
        }
        if !fresh.is_empty() {
            self.detach_index();
        }
        fresh
    }

    /// Bulk removal: removes every tuple, detaching the index cache at
    /// most once. Returns the number of tuples actually removed.
    pub fn remove_all<'a>(&mut self, tuples: impl IntoIterator<Item = &'a Tuple>) -> usize {
        let mut removed = 0;
        for t in tuples {
            if self.tuples.remove(t).is_some() {
                removed += 1;
            }
        }
        if removed > 0 {
            self.detach_index();
        }
        removed
    }

    fn build_composite(&self, cols: &[usize]) -> CompositeIndex {
        let mut idx: CompositeIndex = HashMap::new();
        for t in self.iter() {
            let key: Box<[Const]> = cols.iter().map(|&c| t[c]).collect();
            idx.entry(key).or_default().push(t.clone());
        }
        idx
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.get(t).is_some()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates tuples in deterministic (ordered) fashion.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter().map(|(t, ())| t)
    }

    /// The tuples matching a binding pattern (`Some(c)` = column must equal
    /// `c`, `None` = free). Uses a composite index over *all* bound columns
    /// when the relation is large enough for indexing to pay off (built on
    /// first use and cached until mutation).
    pub fn select(&self, pattern: &[Option<Const>]) -> Vec<Tuple> {
        debug_assert!(self
            .iter()
            .next()
            .is_none_or(|t| t.arity() == pattern.len()));
        let bound: Vec<(usize, Const)> = pattern
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (i, c)))
            .collect();
        if bound.is_empty() {
            return self.iter().cloned().collect();
        }
        if self.tuples.len() >= INDEX_MIN {
            let cols: Vec<usize> = bound.iter().map(|&(i, _)| i).collect();
            let key: Vec<Const> = bound.iter().map(|&(_, c)| c).collect();
            return self.probe(&cols, &key);
        }
        self.iter()
            .filter(|t| bound.iter().all(|&(i, c)| t[i] == c))
            .cloned()
            .collect()
    }

    /// Looks up the tuples whose columns `cols` (strictly ascending) equal
    /// `key`: every evaluator's one way to an index. A bound prefix is
    /// answered from the sorted runs; any other column set from the cached
    /// composite index for it, built first if absent. Returns the matches
    /// and whether the probe was indexed, which is exactly "the relation
    /// has at least `INDEX_MIN` tuples" (`false` = it was scanned) and
    /// never depends on what the shared index cache holds.
    ///
    /// Fast path: a shared read lock, so concurrent probes from session
    /// threads never serialize once the index exists. Only a probe that finds
    /// the column set unindexed upgrades to the write lock; the re-check
    /// under the write lock makes a racing double-build harmless (last
    /// build wins, both are identical).
    pub fn probe_cols(&self, cols: &[usize], key: &[Const]) -> (Vec<Tuple>, bool) {
        debug_assert_eq!(cols.len(), key.len());
        if self.tuples.len() < INDEX_MIN {
            return (self.probe_scan(cols, key), false);
        }
        (self.probe(cols, key), true)
    }

    /// [`Relation::probe_cols`] on a relation below the indexing floor: a
    /// scan that neither builds nor consults an index.
    fn probe_scan(&self, cols: &[usize], key: &[Const]) -> Vec<Tuple> {
        self.iter()
            .filter(|t| cols.iter().zip(key).all(|(&c, &k)| t[c] == k))
            .cloned()
            .collect()
    }

    fn probe(&self, cols: &[usize], key: &[Const]) -> Vec<Tuple> {
        // Bound columns forming a *prefix* of the column order need no
        // index at all: tuples sort lexicographically, so the matches
        // are one contiguous range of the ordered set (a shorter tuple
        // sorts before every tuple extending it). This keeps probes
        // change-proportional on a relation a transaction has just
        // mutated and thereby detached from its indexes — the incremental
        // maintenance engine does that to its materialized extensions
        // every transaction, and an O(n) index rebuild per transaction
        // would swallow the incrementality.
        if cols.iter().copied().eq(0..cols.len()) {
            return self
                .tuples
                .range_from(key)
                .map(|(t, ())| t)
                .take_while(|t| t[..key.len()] == *key)
                .cloned()
                .collect();
        }
        {
            let cache = self.index.read().expect("index lock");
            if let Some(idx) = cache.get(cols) {
                return idx.get(key).cloned().unwrap_or_default();
            }
        }
        let mut cache = self.index.write().expect("index lock");
        let idx = cache
            .entry(cols.into())
            .or_insert_with(|| self.build_composite(cols));
        idx.get(key).cloned().unwrap_or_default()
    }

    /// The column sets the shared index cache holds, ascending.
    #[cfg(test)]
    pub(crate) fn indexed_cols(&self) -> Vec<Box<[usize]>> {
        let mut cols: Vec<_> = self
            .index
            .read()
            .expect("index lock")
            .keys()
            .cloned()
            .collect();
        cols.sort_unstable();
        cols
    }

    /// Set union (self ∪ other); shares with `self` every run `other`
    /// adds nothing to.
    pub fn union(&self, other: &Relation) -> Relation {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Set difference (self \ other).
    pub fn difference(&self, other: &Relation) -> Relation {
        Relation::from_sorted(self.iter().filter(|t| !other.contains(t)).cloned())
    }

    /// Set intersection (self ∩ other).
    pub fn intersection(&self, other: &Relation) -> Relation {
        Relation::from_sorted(self.iter().filter(|t| other.contains(t)).cloned())
    }

    /// Inserts all tuples of `other`; returns the tuples that were new.
    /// Bulk operation: the index cache is detached once, not per tuple.
    pub fn merge(&mut self, other: &Relation) -> Vec<Tuple> {
        self.extend(other.iter().cloned())
    }

    /// All constants appearing in any tuple.
    pub fn constants(&self) -> BTreeSet<Const> {
        self.iter().flat_map(|t| t.iter().copied()).collect()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl FromIterator<Tuple> for Relation {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Relation {
        Relation::from_tuples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::runs::RUN;
    use crate::storage::tuple::syms;

    /// What the relations are checked against.
    type Model = BTreeSet<super::Tuple>;

    fn rel(rows: &[&[&str]]) -> Relation {
        rows.iter().map(|r| syms(r)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut r = Relation::new();
        assert!(r.insert(syms(&["a"])));
        assert!(!r.insert(syms(&["a"])));
        assert!(r.contains(&syms(&["a"])));
        assert!(r.remove(&syms(&["a"])));
        assert!(!r.remove(&syms(&["a"])));
        assert!(r.is_empty());
    }

    #[test]
    fn select_with_bound_columns() {
        let r = rel(&[&["john", "sales"], &["mary", "sales"], &["john", "hr"]]);
        let sales = r.select(&[None, Some(Const::sym("sales"))]);
        assert_eq!(sales.len(), 2);
        let john_sales = r.select(&[Some(Const::sym("john")), Some(Const::sym("sales"))]);
        assert_eq!(john_sales.len(), 1);
        let all = r.select(&[None, None]);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn select_uses_index_on_large_relations() {
        let mut r = Relation::new();
        for i in 0..100 {
            r.insert(Tuple::new(vec![Const::Int(i), Const::Int(i % 7)]));
        }
        let hits = r.select(&[None, Some(Const::Int(3))]);
        assert_eq!(hits.len(), 100 / 7 + usize::from(3 < 100 % 7));
        // Mutation invalidates the index.
        r.insert(Tuple::new(vec![Const::Int(1000), Const::Int(3)]));
        assert_eq!(r.select(&[None, Some(Const::Int(3))]).len(), hits.len() + 1);
    }

    #[test]
    fn select_uses_composite_index_on_multiple_bound_columns() {
        let mut r = Relation::new();
        for i in 0..100i64 {
            r.insert(Tuple::new(vec![
                Const::Int(i % 10),
                Const::Int(i % 4),
                Const::Int(i),
            ]));
        }
        let hits = r.select(&[Some(Const::Int(3)), Some(Const::Int(1)), None]);
        let expected: Vec<Tuple> = (0..100i64)
            .filter(|i| i % 10 == 3 && i % 4 == 1)
            .map(|i| Tuple::new(vec![Const::Int(3), Const::Int(1), Const::Int(i)]))
            .collect();
        assert_eq!(hits, expected);
    }

    #[test]
    fn probe_cols_matches_select_and_reports_indexing() {
        let mut big = Relation::new();
        for i in 0..50i64 {
            big.insert(Tuple::new(vec![Const::Int(i % 5), Const::Int(i)]));
        }
        let (hits, indexed) = big.probe_cols(&[0], &[Const::Int(2)]);
        assert!(indexed);
        assert_eq!(hits.len(), 10);
        let small = rel(&[&["a", "x"], &["b", "y"]]);
        let (hits, indexed) = small.probe_cols(&[0, 1], &[Const::sym("b"), Const::sym("y")]);
        assert!(!indexed, "tiny relations are scanned, not indexed");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn probe_scan_matches_probe_cols_without_indexing() {
        let mut r = Relation::new();
        for i in 0..50i64 {
            r.insert(Tuple::new(vec![Const::Int(i % 5), Const::Int(i)]));
        }
        let scanned = r.probe_scan(&[1], &[Const::Int(2)]);
        assert!(r.indexed_cols().is_empty(), "a scan builds nothing");
        let (probed, indexed) = r.probe_cols(&[1], &[Const::Int(2)]);
        assert!(indexed);
        assert_eq!(scanned, probed);
    }

    #[test]
    fn lazy_index_is_built_once_per_non_prefix_column_set() {
        let mut r = Relation::new();
        for i in 0..40i64 {
            r.insert(Tuple::new(vec![Const::Int(i % 3), Const::Int(i)]));
        }
        // A bound prefix reads the sorted runs: no index, however often.
        for cols in [&[0][..], &[0, 1]] {
            let key: Vec<Const> = cols.iter().map(|&c| Const::Int(c as i64)).collect();
            assert!(r.probe_cols(cols, &key).1);
        }
        assert!(r.indexed_cols().is_empty(), "prefix probes index nothing");
        assert_eq!(r.probe_cols(&[1], &[Const::Int(4)]).0.len(), 1);
        assert_eq!(r.probe_cols(&[1], &[Const::Int(5)]).0.len(), 1);
        assert_eq!(r.indexed_cols(), [Box::from([1usize])], "built once");
        // Small relations are scanned and never indexed.
        let small = rel(&[&["a", "b"]]);
        assert_eq!(
            small.probe_cols(&[1], &[Const::sym("b")]),
            (vec![syms(&["a", "b"])], false)
        );
        assert!(small.indexed_cols().is_empty());
    }

    #[test]
    fn extend_invalidates_once_and_reports_fresh() {
        let mut r = rel(&[&["x"]]);
        let fresh = r.extend([syms(&["x"]), syms(&["y"]), syms(&["z"])]);
        assert_eq!(fresh, vec![syms(&["y"]), syms(&["z"])]);
        assert_eq!(r.len(), 3);
        // No-op extend leaves everything alone.
        assert!(r.extend([syms(&["x"])]).is_empty());
    }

    #[test]
    fn remove_all_bulk_removes() {
        let mut r = rel(&[&["x"], &["y"], &["z"]]);
        let gone = [syms(&["x"]), syms(&["q"]), syms(&["z"])];
        assert_eq!(r.remove_all(gone.iter()), 2);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&syms(&["y"])));
    }

    #[test]
    fn set_operations() {
        let a = rel(&[&["x"], &["y"]]);
        let b = rel(&[&["y"], &["z"]]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.difference(&b), rel(&[&["x"]]));
        assert_eq!(a.intersection(&b), rel(&[&["y"]]));
    }

    #[test]
    fn merge_reports_fresh_tuples() {
        let mut a = rel(&[&["x"]]);
        let b = rel(&[&["x"], &["y"]]);
        let fresh = a.merge(&b);
        assert_eq!(fresh, vec![syms(&["y"])]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn deterministic_iteration_order() {
        let r = rel(&[&["b"], &["a"], &["c"]]);
        let order: Vec<Tuple> = r.iter().cloned().collect();
        let order2: Vec<Tuple> = r.iter().cloned().collect();
        assert_eq!(order, order2);
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn concurrent_probes_share_one_index() {
        let mut r = Relation::new();
        for i in 0..200 {
            r.insert(Tuple::new(vec![Const::Int(i), Const::Int(i % 5)]));
        }
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for k in 0..5 {
                        let hits = r.select(&[None, Some(Const::Int(k))]);
                        assert_eq!(hits.len(), 40);
                    }
                });
            }
        });
        // The index survives and still answers correctly after the race.
        assert_eq!(r.select(&[None, Some(Const::Int(0))]).len(), 40);
    }

    /// Every run but at most one holds `RUN / 2 ..= 2 * RUN - 1` tuples
    /// and none is empty.
    fn assert_run_sizes(r: &Relation) {
        let sizes: Vec<usize> = r.tuples.runs().iter().map(|run| run.len()).collect();
        assert!(sizes.iter().all(|&n| n > 0 && n < 2 * RUN), "{sizes:?}");
        let small = sizes.iter().filter(|&&n| n < RUN / 2).count();
        assert!(small <= 1, "{small} underfull runs: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), r.len());
    }

    /// Everything a reader can ask of `r` answers as the model does.
    fn assert_matches_model(r: &Relation, model: &Model, rng: &mut u64) {
        assert_eq!(r.len(), model.len());
        assert_eq!(r.is_empty(), model.is_empty());
        assert!(r.iter().eq(model.iter()), "iteration order");
        assert_run_sizes(r);
        let scan = |cols: &[usize], key: &[Const]| -> Vec<Tuple> {
            let hit = |t: &&Tuple| cols.iter().zip(key).all(|(&c, &k)| t[c] == k);
            model.iter().filter(hit).cloned().collect()
        };
        for _ in 0..4 {
            let t = random_tuple(rng);
            assert_eq!(r.contains(&t), model.contains(&t));
            // Prefix keys (shorter than the arity, and whole), non-prefix.
            for cols in [&[0][..], &[0, 1], &[0, 1, 2], &[1], &[2], &[0, 2], &[1, 2]] {
                let key: Vec<Const> = cols.iter().map(|&c| t[c]).collect();
                let expected = scan(cols, &key);
                let (hits, indexed) = r.probe_cols(cols, &key);
                assert_eq!(hits, expected, "probe_cols {cols:?}");
                assert_eq!(indexed, model.len() >= INDEX_MIN);
                assert_eq!(r.probe_scan(cols, &key), expected, "probe_scan {cols:?}");
                let mut pattern = vec![None; 3];
                for (&c, &k) in cols.iter().zip(&key) {
                    pattern[c] = Some(k);
                }
                assert_eq!(r.select(&pattern), expected, "select {pattern:?}");
            }
        }
        assert!(r.select(&[None, None, None]).iter().eq(model.iter()));
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// One of 6 × 12 × 30 tuples, so draws repeat and prefixes are shared.
    fn random_tuple(rng: &mut u64) -> Tuple {
        let x = xorshift(rng);
        let col = |shift: u32, modulus: u64| Const::Int(((x >> shift) % modulus) as i64);
        Tuple::new(vec![col(0, 6), col(16, 12), col(32, 30)])
    }

    fn random_tuples(rng: &mut u64, at_most: u64) -> Vec<Tuple> {
        (0..xorshift(rng) % (at_most + 1))
            .map(|_| random_tuple(rng))
            .collect()
    }

    /// Seeded model-based sweep: every operation of `Relation` against a
    /// `BTreeSet` of tuples, over a handful of relations that are clones and
    /// combinations of each other and all stay alive — so a clone that saw
    /// a later mutation of its origin or of a sibling fails its next check.
    #[test]
    fn random_operations_match_a_btreeset_model() {
        const SLOTS: usize = 5;
        for seed in [1u64, 0x9e3779b97f4a7c15, 20260101] {
            let mut rng = seed;
            let mut slots: Vec<(Relation, Model)> = vec![Default::default(); SLOTS];
            for step in 0..1500u64 {
                let i = (xorshift(&mut rng) % SLOTS as u64) as usize;
                let j = (xorshift(&mut rng) % SLOTS as u64) as usize;
                // Alternate growing and shrinking spells, so sizes cross
                // 0, 1, INDEX_MIN, one run and many runs in both directions.
                let growing = (step / 250) % 2 == 0;
                let (other, other_model) = slots[j].clone();
                let (r, model) = &mut slots[i];
                match xorshift(&mut rng) % 12 {
                    0 => {
                        let t = random_tuple(&mut rng);
                        assert_eq!(r.insert(t.clone()), model.insert(t));
                    }
                    1 => {
                        let t = random_tuple(&mut rng);
                        assert_eq!(r.remove(&t), model.remove(&t));
                    }
                    2 | 3 if growing => {
                        let ts = random_tuples(&mut rng, 200);
                        let fresh = r.extend(ts.clone());
                        let mut expected = Vec::new();
                        for t in ts {
                            if model.insert(t.clone()) {
                                expected.push(t);
                            }
                        }
                        assert_eq!(fresh, expected);
                    }
                    2 | 3 => {
                        // Mostly members, so the spell really shrinks.
                        let mut ts = random_tuples(&mut rng, 20);
                        let stride = 1 + (xorshift(&mut rng) % 4) as usize;
                        ts.extend(model.iter().step_by(stride).take(300).cloned());
                        let expected = ts.iter().filter(|t| model.remove(t)).count();
                        assert_eq!(r.remove_all(ts.iter()), expected);
                    }
                    4 => {
                        let ts = random_tuples(&mut rng, if growing { 400 } else { 3 });
                        *model = ts.iter().cloned().collect();
                        *r = Relation::from_tuples(ts);
                    }
                    5 => {
                        *model = model.union(&other_model).cloned().collect();
                        *r = r.union(&other);
                    }
                    6 => {
                        *model = model.difference(&other_model).cloned().collect();
                        *r = r.difference(&other);
                    }
                    7 => {
                        *model = model.intersection(&other_model).cloned().collect();
                        *r = r.intersection(&other);
                    }
                    8 => {
                        let expected: Vec<Tuple> = other_model.difference(model).cloned().collect();
                        assert_eq!(r.merge(&other), expected);
                        model.extend(other_model);
                    }
                    9 if !growing => {
                        let all: Vec<Tuple> = model.iter().cloned().collect();
                        assert_eq!(r.remove_all(all.iter()), all.len());
                        model.clear();
                    }
                    _ => slots[i] = (other, other_model),
                }
                for (k, (r, model)) in slots.iter().enumerate() {
                    if k == i {
                        assert_matches_model(r, model, &mut rng);
                    } else {
                        assert!(r.iter().eq(model.iter()), "slot {k} moved at step {step}");
                    }
                }
            }
        }
    }

    fn numbered(n: i64) -> Relation {
        (0..n)
            .map(|i| Tuple::new(vec![Const::Int(i), Const::Int(i % 7)]))
            .collect()
    }

    #[test]
    fn a_clone_shares_every_run_it_did_not_touch() {
        let origin = numbered(1000);
        let mut copy = origin.clone();
        assert!(copy.insert(Tuple::new(vec![Const::Int(500), Const::Int(-1)])));
        let (old, new) = (origin.tuples.runs(), copy.tuples.runs());
        assert_eq!(old.len(), new.len());
        let copied = old.iter().zip(new).filter(|(a, b)| !Arc::ptr_eq(a, b));
        assert_eq!(copied.count(), 1, "one insert copies one run");
        assert_eq!(origin.len(), 1000);
        assert_eq!(copy.len(), 1001);
        // No tuple was copied either: the two runs hold the same `Arc`s.
        let shared = origin
            .iter()
            .zip(copy.iter().filter(|t| t[1] != Const::Int(-1)));
        assert!(shared
            .into_iter()
            .all(|(a, b)| std::ptr::eq(&a[..], &b[..])));
    }

    #[test]
    fn clones_share_indexes_until_one_is_mutated() {
        let threes = |r: &Relation| r.probe_cols(&[1], &[Const::Int(3)]).0.len();
        let origin = numbered(200);
        let mut copy = origin.clone();
        let n = threes(&origin);
        assert_eq!(n, 200 / 7 + usize::from(3 < 200 % 7));
        assert_eq!(
            copy.indexed_cols(),
            [Box::from([1usize])],
            "built through the origin"
        );
        // A mutation detaches the clone; the origin keeps its index.
        copy.insert(Tuple::new(vec![Const::Int(1000), Const::Int(3)]));
        assert!(
            copy.indexed_cols().is_empty(),
            "detached from the shared cache"
        );
        assert_eq!(origin.indexed_cols(), [Box::from([1usize])]);
        assert_eq!(threes(&copy), n + 1);
        assert_eq!(threes(&origin), n);
        // A relation that owns its cache alone clears it in place.
        let mut alone = numbered(50);
        threes(&alone);
        alone.remove(&Tuple::new(vec![Const::Int(3), Const::Int(3)]));
        assert!(alone.indexed_cols().is_empty());
    }

    #[test]
    fn constants_collects_all_columns() {
        let r = rel(&[&["a", "b"], &["c", "a"]]);
        let cs = r.constants();
        assert_eq!(cs.len(), 3);
    }
}
