//! In-memory relations: ordered tuple sets with pattern selection and
//! secondary indexes for the probes of the join kernel.

use crate::ast::Const;
use crate::storage::runs::{self, Iter, Runs};
use crate::storage::tuple::Tuple;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Below this size, indexing never pays off: selects and probes fall back
/// to scanning the (tiny) tuple set directly.
pub(crate) const INDEX_MIN: usize = 16;

/// The widest tuple whose permuted index key [`Relation::remove`] builds
/// on the stack instead of allocating.
const STACK_KEY: usize = 8;

/// A set of ground tuples of a single arity.
///
/// Tuples are kept in persistent sorted runs ([`Runs`]), so iteration is
/// in ascending tuple order — and therefore every answer the engine
/// produces is deterministic — while `clone()` copies nothing: a clone
/// shares every run with its origin until one of them is mutated, and a
/// mutation copies only the runs it touches.
///
/// A probe on a bound *prefix* of the column order is one contiguous
/// range of the runs. A probe on any other column set goes through a
/// secondary index for that set: the same container again, holding each
/// tuple with its columns permuted so the set comes first, which turns
/// the probe into a prefix range too. An index is built on the first
/// probe of its column set and from then on kept up to date by every
/// insertion and removal, so a commit that changes a few tuples changes a
/// few index entries instead of dropping the index for the next probe to
/// rebuild. A clone shares the index runs exactly as it shares the tuple
/// runs.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    tuples: Runs<()>,
    /// The secondary indexes of this tuple set. Every relation sharing
    /// the `Arc` has the same tuples, so an index one of them builds
    /// through `&self` serves them all; a mutation first takes its own
    /// copy (the index runs stay shared), even of an empty list, so no
    /// index a sibling builds later from other tuples reaches it. It does
    /// not participate in equality.
    index: Arc<Indexes>,
}

/// The secondary indexes of one tuple set, as an append-only list: a
/// probe through `&self` adds an index at the end, and a lookup that
/// finds it never takes a lock.
#[derive(Clone, Debug, Default)]
struct Indexes(OnceLock<Box<Index>>);

/// One secondary index.
#[derive(Clone, Debug)]
struct Index {
    /// The indexed column set, strictly ascending.
    cols: Box<[usize]>,
    /// Column `j` of an entry is column `perm[j]` of its tuple: `cols`
    /// first, the other columns after them, ascending.
    perm: Box<[usize]>,
    /// The inverse of `perm`: where column `c` of a tuple sits in its
    /// entry.
    at: Box<[usize]>,
    /// Every tuple of the relation, permuted; nothing else.
    entries: Runs<()>,
    next: Indexes,
}

impl Indexes {
    /// The index on `cols`, appended (built from `tuples`) if absent. Two
    /// threads appending at once both succeed: the loser finds the
    /// winner's index in the slot and appends after it.
    fn get_or_build(&self, cols: &[usize], tuples: &Runs<()>) -> &Index {
        let mut list = self;
        loop {
            let idx = list.0.get_or_init(|| Box::new(Index::build(cols, tuples)));
            if *idx.cols == *cols {
                return idx;
            }
            list = &idx.next;
        }
    }

    /// Applies `f` to every index's entries and permutation.
    fn for_each_mut(&mut self, mut f: impl FnMut(&mut Runs<()>, &[usize])) {
        let mut list = self;
        while let Some(idx) = list.0.get_mut() {
            f(&mut idx.entries, &idx.perm);
            list = &mut idx.next;
        }
    }
}

impl Index {
    fn build(cols: &[usize], tuples: &Runs<()>) -> Index {
        let arity = tuples.iter().next().map_or(0, |(t, ())| t.arity());
        let perm: Box<[usize]> = cols
            .iter()
            .copied()
            .chain((0..arity).filter(|c| !cols.contains(c)))
            .collect();
        let mut at = vec![0; perm.len()];
        for (j, &c) in perm.iter().enumerate() {
            at[c] = j;
        }
        let entries = tuples
            .iter()
            .map(|(t, ())| keyed(permute(t, &perm)))
            .collect();
        Index {
            cols: cols.into(),
            perm,
            at: at.into(),
            entries: runs_of(entries),
            next: Indexes::default(),
        }
    }
}

/// `t` with its word, the key its runs sort it by.
fn keyed(t: Tuple) -> (u64, Tuple) {
    (runs::word(&t), t)
}

/// The runs of `keyed` tuples, in any order and with duplicates. They
/// sort by word, and by tuple only where words tie, so the sort reads
/// few tuples.
fn runs_of(mut keyed: Vec<(u64, Tuple)>) -> Runs<()> {
    keyed.sort_unstable();
    keyed.dedup();
    Runs::from_sorted_words(keyed.into_iter().map(|(w, t)| (w, (t, ()))))
}

/// `t` with its columns in the order `perm` lists them.
fn permute(t: &[Const], perm: &[usize]) -> Tuple {
    perm.iter().map(|&c| t[c]).collect()
}

/// The candidates of one [`Relation::probe`], borrowed from the relation.
pub struct Probe<'a> {
    /// Whether the probe was indexed: exactly "the relation has at least
    /// `INDEX_MIN` tuples", never what its indexes hold.
    pub indexed: bool,
    /// Where column `c` of the relation sits in a yielded tuple: `None`
    /// when the tuples come in their own column order, `Some(at)` when
    /// they are index entries and column `c` is entry column `at[c]`.
    pub at: Option<&'a [usize]>,
    entries: Iter<'a, ()>,
}

impl<'a> Iterator for Probe<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        self.entries.next().map(|(t, ())| t)
    }
}

impl Relation {
    /// Creates an empty relation.
    pub fn new() -> Relation {
        Relation::default()
    }

    /// Creates a relation from tuples.
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Relation {
        Relation::from_runs(runs_of(tuples.into_iter().map(keyed).collect()))
    }

    /// Creates a relation from `rows` rows of `arity` constants each,
    /// laid end to end in `flat`, in any order and with duplicates. Rows
    /// whose words are exact ([`runs::abbreviate`]: one or two symbols or
    /// small integers, what a snapshot mostly holds) are told apart and
    /// ordered by their words alone, so they sort as one `u64` each and
    /// become tuples once sorted and deduplicated; other rows go through
    /// [`Relation::from_tuples`].
    pub(crate) fn from_rows(arity: usize, rows: usize, flat: &[Const]) -> Relation {
        debug_assert_eq!(flat.len(), arity * rows);
        if arity == 0 {
            return Relation::from_sorted((rows > 0).then(Tuple::empty));
        }
        if !flat.chunks_exact(arity).all(|row| runs::abbreviate(row).1) {
            return Relation::from_tuples(flat.chunks_exact(arity).map(Tuple::from));
        }
        let mut keyed: Vec<(u64, &[Const])> = flat
            .chunks_exact(arity)
            .map(|row| (runs::word(row), row))
            .collect();
        keyed.sort_unstable_by_key(|&(key, _)| key);
        keyed.dedup_by_key(|&mut (key, _)| key);
        let entries = keyed
            .into_iter()
            .map(|(w, row)| (w, (Tuple::from(row), ())));
        Relation::from_runs(Runs::from_sorted_words(entries))
    }

    /// Creates a relation from tuples in strictly ascending order.
    fn from_sorted(tuples: impl IntoIterator<Item = Tuple>) -> Relation {
        Relation::from_runs(Runs::from_sorted(tuples.into_iter().map(|t| (t, ()))))
    }

    /// A relation of `tuples`, with no index yet.
    fn from_runs(tuples: Runs<()>) -> Relation {
        Relation {
            tuples,
            index: Arc::default(),
        }
    }

    /// The indexes, to change along with the tuples: this relation's own
    /// copy of the list, taken if it is shared.
    fn indexes_mut(&mut self) -> &mut Indexes {
        Arc::make_mut(&mut self.index)
    }

    /// Inserts a tuple; returns `true` if it was not already present.
    pub fn insert(&mut self, t: Tuple) -> bool {
        let fresh = self.tuples.insert(t.clone(), ());
        if fresh {
            self.indexes_mut().for_each_mut(|entries, perm| {
                entries.insert(permute(&t, perm), ());
            });
        }
        fresh
    }

    /// Removes a tuple; returns `true` if it was present.
    pub fn remove(&mut self, t: &[Const]) -> bool {
        let removed = self.tuples.remove(t).is_some();
        if removed {
            // Each index's key is permuted into one buffer, on the stack
            // unless the arity is unusually wide.
            let mut stack = [Const::Int(0); STACK_KEY];
            let mut heap = Vec::new();
            self.indexes_mut().for_each_mut(|entries, perm| {
                let key = match stack.get_mut(..perm.len()) {
                    Some(key) => key,
                    None => {
                        heap.resize(perm.len(), Const::Int(0));
                        &mut heap[..]
                    }
                };
                for (k, &c) in key.iter_mut().zip(perm) {
                    *k = t[c];
                }
                entries.remove(key);
            });
        }
        removed
    }

    /// Bulk insertion: adds every tuple, and its entry to every index.
    /// Returns the tuples that were genuinely new, in input order.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> Vec<Tuple> {
        tuples
            .into_iter()
            .filter(|t| self.insert(t.clone()))
            .collect()
    }

    /// Bulk removal: removes every tuple, and its entry from every index.
    /// Returns the number of tuples actually removed.
    pub fn remove_all<'a>(&mut self, tuples: impl IntoIterator<Item = &'a Tuple>) -> usize {
        tuples.into_iter().filter(|t| self.remove(t)).count()
    }

    /// Membership test.
    pub fn contains(&self, t: &[Const]) -> bool {
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
    /// `c`, `None` = free), ascending.
    pub fn select(&self, pattern: &[Option<Const>]) -> Vec<Tuple> {
        debug_assert!(self
            .iter()
            .next()
            .is_none_or(|t| t.arity() == pattern.len()));
        let (cols, key): (Vec<usize>, Vec<Const>) = pattern
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (i, c)))
            .unzip();
        if cols.is_empty() {
            return self.iter().cloned().collect();
        }
        self.probe_cols(&cols, &key).0
    }

    /// The candidates for a lookup of the tuples whose columns `cols`
    /// (strictly ascending) equal `key`: every evaluator's one way to an
    /// index. On a relation of at least `INDEX_MIN` tuples the probe is
    /// indexed and yields exactly the matches — a bound prefix from the
    /// sorted runs, any other column set from its secondary index, built
    /// on this first probe if absent, as permuted entries ([`Probe::at`]
    /// maps them back). A smaller relation is scanned: the probe yields
    /// every tuple and the caller's match is the filter.
    pub fn probe(&self, cols: &[usize], key: &[Const]) -> Probe<'_> {
        debug_assert_eq!(cols.len(), key.len());
        if self.tuples.len() < INDEX_MIN {
            return Probe {
                indexed: false,
                at: None,
                entries: self.tuples.iter(),
            };
        }
        if cols.iter().copied().eq(0..cols.len()) {
            return Probe {
                indexed: true,
                at: None,
                entries: self.tuples.prefix(key),
            };
        }
        let idx = self.index.get_or_build(cols, &self.tuples);
        Probe {
            indexed: true,
            at: Some(&idx.at),
            entries: idx.entries.prefix(key),
        }
    }

    /// [`probe`](Self::probe), collected: the matching tuples in ascending
    /// order, and whether the probe was indexed.
    pub fn probe_cols(&self, cols: &[usize], key: &[Const]) -> (Vec<Tuple>, bool) {
        let probe = self.probe(cols, key);
        match probe.at {
            _ if !probe.indexed => (self.probe_scan(cols, key), false),
            None => (probe.cloned().collect(), true),
            Some(at) => {
                let mut hits: Vec<Tuple> =
                    probe.map(|e| at.iter().map(|&j| e[j]).collect()).collect();
                hits.sort_unstable();
                (hits, true)
            }
        }
    }

    /// The matches of a lookup by scanning: builds and consults no index.
    fn probe_scan(&self, cols: &[usize], key: &[Const]) -> Vec<Tuple> {
        self.iter()
            .filter(|t| cols.iter().zip(key).all(|(&c, &k)| t[c] == k))
            .cloned()
            .collect()
    }

    /// The column sets this relation has indexes on, ascending.
    #[cfg(test)]
    pub(crate) fn indexed_cols(&self) -> Vec<Box<[usize]>> {
        let list = std::iter::successors(self.index.0.get(), |idx| idx.next.0.get());
        let mut cols: Vec<_> = list.map(|idx| idx.cols.clone()).collect();
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

    /// Inserts all tuples of `other`, updating every index as
    /// [`extend`](Self::extend) does; returns the tuples that were new.
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
    use crate::storage::runs::{Run, RUN};
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
        // A mutation updates the index.
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

    /// Every run's fence is its last key's word, and every slot holds its
    /// tuple's, in the tuples and in every index.
    fn assert_fences(r: &Relation) {
        let list = std::iter::successors(r.index.0.get(), |idx| idx.next.0.get());
        for runs in std::iter::once(&r.tuples).chain(list.map(|idx| &idx.entries)) {
            runs.assert_words();
        }
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
    /// Odd values of a column lie beyond the integers with codes of their
    /// own (below them in the first column, above in the others), so
    /// tuples tie on their words and the searches compare the tuples.
    fn random_tuple(rng: &mut u64) -> Tuple {
        let x = xorshift(rng);
        let col = |shift: u32, modulus: u64, far: i64| {
            let v = ((x >> shift) % modulus) as i64;
            Const::Int(if v % 2 == 1 { v + far } else { v })
        };
        Tuple::new(vec![
            col(0, 6, -(1 << 40)),
            col(16, 12, 1 << 40),
            col(32, 30, 1 << 40),
        ])
    }

    fn random_tuples(rng: &mut u64, at_most: u64) -> Vec<Tuple> {
        (0..xorshift(rng) % (at_most + 1))
            .map(|_| random_tuple(rng))
            .collect()
    }

    /// `from_rows` holds what `from_tuples` holds, for every arity up to
    /// four, on rows of symbols only (sorted by key up to arity two) and
    /// on rows that mix in integers, duplicates and empty inputs
    /// included.
    #[test]
    fn from_rows_matches_from_tuples() {
        let syms: Vec<Const> = ["zz_rows_b", "zz_rows_a", "zz_rows_c"]
            .iter()
            .map(|s| Const::sym(s))
            .collect();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for arity in 0..=4 {
            for ints in [false, true] {
                for rows in [0, 1, 2, 7, 300] {
                    let flat: Vec<Const> = (0..rows * arity)
                        .map(|_| match xorshift(&mut rng) % 4 {
                            3 if ints => Const::Int((xorshift(&mut rng) % 5) as i64 - 2),
                            k => syms[k as usize % syms.len()],
                        })
                        .collect();
                    let tuples: Vec<Tuple> = if arity == 0 {
                        vec![Tuple::empty(); rows]
                    } else {
                        flat.chunks_exact(arity).map(Tuple::from).collect()
                    };
                    let built = Relation::from_rows(arity, rows, &flat);
                    assert_eq!(
                        built,
                        Relation::from_tuples(tuples),
                        "{arity}/{rows}/{ints}"
                    );
                    let listed: Vec<&Tuple> = built.iter().collect();
                    assert!(listed.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
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
                    assert_fences(r);
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

    /// The runs of `r`'s index on `cols`.
    fn index_runs<'a>(r: &'a Relation, cols: &[usize]) -> &'a [Run<()>] {
        let list = std::iter::successors(r.index.0.get(), |idx| idx.next.0.get());
        let idx = list.into_iter().find(|idx| *idx.cols == *cols);
        idx.expect("indexed").entries.runs()
    }

    fn threes(r: &Relation) -> Vec<Tuple> {
        r.probe_cols(&[1], &[Const::Int(3)]).0
    }

    #[test]
    fn a_mutated_clone_keeps_its_indexes_and_shares_untouched_runs() {
        let origin = numbered(1000);
        let n = threes(&origin).len();
        assert_eq!(n, 1000 / 7 + usize::from(3 < 1000 % 7));
        let mut copy = origin.clone();
        assert_eq!(
            copy.indexed_cols(),
            [Box::from([1usize])],
            "built through the origin"
        );
        // A mutation updates the clone's index instead of dropping it.
        let (new, gone) = (
            Tuple::new(vec![Const::Int(1000), Const::Int(3)]),
            Tuple::new(vec![Const::Int(3), Const::Int(3)]),
        );
        copy.insert(new.clone());
        copy.remove(&gone);
        assert_eq!(copy.indexed_cols(), [Box::from([1usize])], "kept");
        let mut expected: Vec<Tuple> = threes(&origin);
        expected.retain(|t| *t != gone);
        expected.push(new);
        expected.sort();
        assert_eq!(threes(&copy), expected);
        // The threes span two index runs, the removal lands in the first
        // and the insertion in the last: those two are copied, the clone
        // shares every other index run with its origin.
        let (old, new) = (index_runs(&origin, &[1]), index_runs(&copy, &[1]));
        assert_eq!(old.len(), new.len());
        assert!(old.len() > 10);
        let copied = old.iter().zip(new).filter(|(a, b)| !Arc::ptr_eq(a, b));
        assert_eq!(
            copied.count(),
            2,
            "the clone shares its untouched index runs"
        );
        // The origin is unaffected.
        assert_eq!(threes(&origin).len(), n);
        assert!(threes(&origin).contains(&gone));
        assert_eq!(origin.indexed_cols(), [Box::from([1usize])]);
        // A relation that owns its indexes alone updates them in place.
        let mut alone = numbered(50);
        let before = threes(&alone).len();
        alone.remove(&Tuple::new(vec![Const::Int(3), Const::Int(3)]));
        assert_eq!(alone.indexed_cols(), [Box::from([1usize])]);
        assert_eq!(threes(&alone).len(), before - 1);
    }

    #[test]
    fn removing_a_tuple_wider_than_the_stack_key_updates_its_index() {
        let arity = STACK_KEY as i64 + 2;
        let wide = |i: i64| -> Tuple {
            (0..arity)
                .map(|c| Const::Int(if c == arity - 1 { i % 3 } else { i + c }))
                .collect()
        };
        let mut r: Relation = (0..40).map(wide).collect();
        let last = [arity as usize - 1];
        assert_eq!(r.probe_cols(&last, &[Const::Int(0)]).0.len(), 14);
        assert!(r.remove(&wide(3)));
        let (hits, indexed) = r.probe_cols(&last, &[Const::Int(0)]);
        assert!(indexed);
        assert_eq!(hits.len(), 13);
        assert!(!hits.contains(&wide(3)));
    }

    #[test]
    fn a_clone_mutated_before_any_index_never_sees_one_a_sibling_builds() {
        let origin = numbered(200);
        let n = threes(&origin).len();
        let fresh = numbered(200);
        // Cloned while the shared list is still empty, then mutated.
        let mut mutated = fresh.clone();
        mutated.insert(Tuple::new(vec![Const::Int(1000), Const::Int(3)]));
        // A sibling with the old tuples builds the index.
        let sibling = fresh.clone();
        assert_eq!(threes(&sibling).len(), n);
        assert_eq!(fresh.indexed_cols(), [Box::from([1usize])], "shared");
        // The mutated clone builds its own, from its own tuples.
        assert!(mutated.indexed_cols().is_empty(), "not the sibling's index");
        assert_eq!(threes(&mutated).len(), n + 1);
        assert_eq!(threes(&sibling).len(), n);
    }

    #[test]
    fn constants_collects_all_columns() {
        let r = rel(&[&["a", "b"], &["c", "a"]]);
        let cs = r.constants();
        assert_eq!(cs.len(), 3);
    }
}
